"""The differential fuzz of ``fuzz.py``, run in process on a fixed seed."""

import fuzz


def test_fuzz_finds_no_disagreement_on_a_fixed_seed():
    assert fuzz.run(seed=13, cases=100) is None


def test_fuzz_prints_the_first_disagreement_with_its_inputs_and_exits_1(monkeypatch, capsys):
    monkeypatch.setattr(fuzz, "energy", lambda f, a: -1)
    assert fuzz.main(["--seed", "13", "--cases", "5"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("seed 13, case 0: energy disagrees\n  f = ")
    assert "\n  A = [" in out and "\n  got  -1\n  want " in out
