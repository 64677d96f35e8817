import contextlib
import io
import json
import math
import random
import subprocess
import sys
import tempfile
import typing
from collections import Counter
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polyexpand
from genutil import all_monomials, run_python_with_two_cpu_seconds
from polyexpand import (
    audit_vanishing_subsums,
    classify_monomial_composition,
    cli,
    format_rational,
    image_set,
    lab,
    read_set_file,
    structure,
)
from polyexpand.cli import SWEEP_CSV_HEADER, main
from polyexpand.polynomials import BivariatePoly
from test_cli_golden import CASES, canonical, replay


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def set_file(tmp_path):
    path = tmp_path / "a.txt"
    path.write_text("2\n4\n8\n", encoding="utf-8")
    return str(path)


def test_classify_exceptional(capsys):
    code, out, _ = run_cli(["classify", "--poly", "x*y + x^2*y^2"], capsys)
    assert code == 0
    assert "EXCEPTIONAL" in out
    assert "g(t) = t + t^2" in out
    assert "M(x,y) = x*y" in out


def test_classify_non_exceptional(capsys):
    code, out, _ = run_cli(["classify", "--poly", "x + y"], capsys)
    assert code == 0
    assert "NON-EXCEPTIONAL" in out
    assert "(0, 1)" in out and "(1, 0)" in out


def test_classify_json(capsys):
    code, out, _ = run_cli(
        ["classify", "--poly", "x*y + x^2*y^2", "--format", "json"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["classification"] == "exceptional"
    assert payload["monomial_exponents"] == [1, 1]
    assert payload["trivial"] is False


def test_classify_parse_error_exit_2(capsys):
    code, _, err = run_cli(["classify", "--poly", "x^^2"], capsys)
    assert code == 2
    assert "position 2" in err
    code, _, err = run_cli(["classify", "--poly", "x^" + "9" * 5000], capsys)
    assert code == 2
    assert "value has 5000 digits at position 2" in err


def test_image(capsys, set_file):
    code, out, _ = run_cli(
        ["image", "--poly", "x*y", "--set", set_file, "--format", "json"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["size"] == 5
    assert payload["values"] == ["4", "8", "16", "32", "64"]


def test_energy(capsys, set_file):
    code, out, _ = run_cli(["energy", "--poly", "x*y", "--set", set_file], capsys)
    assert code == 0
    assert "E = 19" in out
    assert "image = 5" in out


def test_structure(capsys, set_file):
    code, out, _ = run_cli(["structure", "--set", set_file], capsys)
    assert code == 0
    assert "rank = 1" in out
    assert "doubling = 5/3" in out


def test_structure_rank_sees_hidden_primes(capsys, tmp_path):
    p, q, r = 1000003, 1000033, 1000037
    path = tmp_path / "hidden.txt"
    path.write_text(f"{p * q}\n{p * r}\n{q}/{r}\n", encoding="utf-8")
    code, out, _ = run_cli(["structure", "--set", str(path)], capsys)
    assert code == 0
    assert "rank = 2" in out
    code, out, _ = run_cli(["structure", "--set", str(path), "--format", "json"], capsys)
    assert code == 0
    assert '"rank": 2' in out


def test_audit_subsum(capsys, set_file):
    code, out, _ = run_cli(
        ["audit", "--poly", "x*y + x^2*y^3", "--set", set_file], capsys
    )
    assert code == 0
    assert "consistent = true" in out


def test_audit_json_schema(capsys, set_file):
    code, out, _ = run_cli(
        ["audit", "--poly", "x + y", "--set", set_file, "--format", "json"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    audit = payload["subsum_audit"]
    assert audit["consistent"] is True
    assert audit["pairs"] == 9
    assert {"value", "clean", "dirty"} <= set(audit["table"][0])


def test_text_audit_checks_no_pair_when_no_value_can_be_bad(capsys, tmp_path):
    # 6 terms of degree 4 bound the dirty pairs of a value by 16 * 2^6 = 1,024, more than
    # the 784 pairs, and f > 0 on the set: text checks no pair, JSON tabulates and checks all.
    path = tmp_path / "geometric.txt"
    path.write_text("".join(f"{Fraction(3, 2) ** k}\n" for k in range(1, 29)), encoding="utf-8")
    argv = ["audit", "--poly", "x^3*y - x*y^3 + x^2*y - x*y^2 + x^4 + y^4", "--set", str(path)]
    original, received = lab.zero_proper_subset_flags, []
    with mock.patch.object(lab, "zero_proper_subset_flags",
                           lambda columns: received.append(len(columns[0])) or original(columns)):
        code, out, _ = run_cli(argv, capsys)
        text_pairs = sum(received)
        json_code, json_out, _ = run_cli([*argv, "--format", "json"], capsys)
    table = json.loads(json_out)["subsum_audit"]["table"]
    assert (code, json_code) == (0, 0) and "consistent = true" in out
    assert all(row["value"] != "0" for row in table) and any(row["dirty"] for row in table)
    assert (text_pairs, sum(received) - text_pairs) == (0, 784)


def test_audit_injectivity(capsys):
    code, out, _ = run_cli(
        ["audit", "--poly", "x*y + x^2*y^3", "--ggp", "2^[3]", "--t", "5"], capsys
    )
    assert code == 0
    assert "injective" in out


def test_audit_distinctness_precondition(capsys):
    code, _, err = run_cli(
        ["audit", "--poly", "x + y", "--ggp", "2^[3] * 4^[3]", "--t", "1"], capsys
    )
    assert code == 2
    assert "collide" in err


@pytest.mark.parametrize("command, poly", [("classify", "-2/5*x^2+y"), ("image", "-x*y+x")])
def test_poly_value_starting_with_minus(command, poly, capsys, set_file):
    rest = [] if command == "classify" else ["--set", set_file]
    spaced = run_cli([command, "--poly", poly, *rest], capsys)
    assert spaced == run_cli([command, f"--poly={poly}", *rest], capsys)
    assert spaced[0] == 0 and spaced[1]


@pytest.mark.parametrize("argv, message", [
    (["audit", "--poly", "x + y", "--ggp", "-2^[3]", "--t", "1"],
     "error: generators must be positive and not 1, got -2\n"),
    (["sweep", "--poly", "x + y", "--family", "geometric:2", "--N", "-1,2"],
     "error: sample sizes must be positive, got -1\n"),
], ids=["ggp", "N"])
def test_option_value_starting_with_minus_reaches_the_program(argv, message, capsys):
    assert run_cli(argv, capsys) == (2, "", message)


def test_set_path_starting_with_minus(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "-A.txt").write_text("1\n2\n", encoding="utf-8")
    code, out, _ = run_cli(["image", "--poly", "x + y", "--set", "-A.txt"], capsys)
    assert (code, out) == (0, "size = 3\nvalues = {2, 3, 4}\n")


@pytest.mark.parametrize("argv", [["image", "--poly", "--set", "a.txt"], ["classify", "--poly"]])
def test_poly_without_a_value_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "argument --poly: expected one argument" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["audit", "--poly", "x*y^2 + x", "--ggp", "2^[\u00b2]", "--t", "1"],
    ["sweep", "--poly", "x*y^2 + x", "--family", "ggp:2^[\u00b9]", "--N", "1"],
], ids=["audit", "sweep"])
def test_superscript_box_dimension_exit_2(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    assert "box dimension must be an unsigned integer" in err


def test_audit_requires_target(capsys):
    code, _, err = run_cli(["audit", "--poly", "x + y"], capsys)
    assert code == 2
    assert "--set" in err


def test_audit_ggp_requires_t(capsys):
    code, _, err = run_cli(["audit", "--poly", "x + y", "--ggp", "2^[3]"], capsys)
    assert code == 2
    assert "--t" in err


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--set", "{A}", "--t", "3"], "--t needs --ggp"),
        (["--set", "/nonexistent.txt", "--t", "3"], "--t needs --ggp"),
        (["--ggp", "2^[3]", "--t", "1", "--threshold", "2"], "--threshold needs --set"),
    ],
    ids=["t-without-ggp", "t-without-ggp-before-set-read", "threshold-without-set"],
)
def test_audit_flag_without_its_audit_exit_2(extra, message, set_file, capsys):
    # Each flag would be ignored; it is refused before any set file is opened.
    argv = ["audit", "--poly", "x*y + x^2*y^3", *[arg.format(A=set_file) for arg in extra]]
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


def test_image_asymmetric_sets(capsys, tmp_path):
    a = tmp_path / "a.txt"
    a.write_text("1\n2\n", encoding="utf-8")
    b = tmp_path / "b.txt"
    b.write_text("3\n", encoding="utf-8")
    code, out, _ = run_cli(
        ["image", "--poly", "x*y", "--set", str(a), "--set2", str(b), "--format", "json"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["values"] == ["3", "6"]


def test_sweep_csv(capsys):
    code, out, _ = run_cli(
        [
            "sweep",
            "--poly",
            "x + y",
            "--family",
            "geometric:2",
            "--N",
            "3,10",
            "--format",
            "csv",
        ],
        capsys,
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == SWEEP_CSV_HEADER
    assert lines[1].startswith("3,3,5,")
    assert lines[2].startswith("10,10,19,")
    assert lines[2].split(",")[4] == "55"


def test_sweep_refuses_exceptional(capsys):
    code, _, err = run_cli(
        ["sweep", "--poly", "x^2*y^3", "--family", "geometric:2", "--N", "10"], capsys
    )
    assert code == 2
    assert "--allow-exceptional" in err


def test_sweep_exceptional_override(capsys):
    code, out, _ = run_cli(
        [
            "sweep",
            "--poly",
            "x*y + x^2*y^2",
            "--family",
            "geometric:2",
            "--N",
            "10",
            "--allow-exceptional",
            "--format",
            "json",
        ],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["rows"][0]["image"] == 19


def test_sweep_missing_file(capsys):
    code, _, err = run_cli(
        ["sweep", "--poly", "x + y", "--family", "files:/nonexistent.txt", "--N", "1"],
        capsys,
    )
    assert code == 2


@pytest.mark.parametrize("command", ["structure", "image", "sweep"])
def test_directory_path_exits_2(command, set_file, tmp_path, capsys):
    argv = {
        "structure": ["structure", "--set", str(tmp_path)],
        "image": ["image", "--poly", "x + y", "--set", set_file, "--set2", str(tmp_path)],
        "sweep": ["sweep", "--poly", "x + y", "--family", f"files:{tmp_path}", "--N", "1"],
    }[command]
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and str(tmp_path) in err and err.count("\n") == 1


def test_sweep_cap_exit_3(capsys):
    code, _, err = run_cli(
        [
            "sweep",
            "--poly",
            "x + y",
            "--family",
            "geometric:2",
            "--N",
            "10",
            "--max-pairs",
            "4",
        ],
        capsys,
    )
    assert code == 3


def test_bound(capsys):
    code, out, _ = run_cli(["bound", "--n", "1", "--r", "0"], capsys)
    assert code == 0
    assert "value = 16777216" in out


def test_bound_large_value_prints(capsys):
    # 40^77500 has ~124k digits, past the int-to-str guard, which must stay
    # in force afterwards: it turns oversize literals into parse errors
    limit = sys.get_int_max_str_digits()
    code, out, _ = run_cli(["bound", "--n", "5", "--r", "4", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert len(payload["value"]) > 100_000
    assert payload["value"].isdigit()
    assert sys.get_int_max_str_digits() == limit


def test_values_past_the_digit_limit_print(tmp_path, capsys):
    # 7^6000 has 5,071 digits: image and audit print it as bound prints its value,
    # and the int-to-str limit stays in force for parsing.
    path = tmp_path / "f.txt"
    path.write_text("7\n", encoding="utf-8")
    limit = sys.get_int_max_str_digits()
    code, out, err = run_cli(["image", "--poly", "x^6000", "--set", str(path)], capsys)
    assert (code, out, err) == (0, f"size = 1\nvalues = {{{Decimal(7**6000)}}}\n", "")
    argv = ["audit", "--poly", "x^6000 + y", "--set", str(path), "--format", "json"]
    code, out, err = run_cli(argv, capsys)
    assert (code, err) == (0, "")
    table = json.loads(out)["subsum_audit"]["table"]
    assert table == [{"value": str(Decimal(7**6000 + 7)), "clean": 1, "dirty": 0}]
    assert sys.get_int_max_str_digits() == limit


# Set-file lines: integers, fractions written unreduced, zeros and decimals, with repeats.
set_lines = st.one_of(
    st.integers(-20, 20).map(str),
    st.builds("{}/{}".format, st.integers(-9, 9), st.integers(1, 6)),
    st.sampled_from(["0", "-0", "0.5", "-1.25", "3/6"]),
)
set_texts = st.lists(set_lines, min_size=1, max_size=6).flatmap(
    lambda lines: st.lists(st.sampled_from(lines), max_size=3).map(lines.__add__)
)


@st.composite
def cli_polys(draw):
    degree = draw(st.integers(1, 3))
    triangle = [(i, j) for i in range(degree + 1) for j in range(degree + 1 - i)]
    support = draw(st.lists(st.sampled_from(triangle), min_size=1, max_size=4, unique=True))
    coefficients = st.fractions(min_value=-9, max_value=9, max_denominator=6).filter(bool)
    return BivariatePoly({pair: draw(coefficients) for pair in support})


@settings(max_examples=60, deadline=None)
@given(cli_polys(), set_texts, st.one_of(st.none(), st.integers(0, 3)))
def test_json_lists_are_canonical_and_exact(f, lines, threshold):
    """image's values and the audit's lists and table, written as joined text, print what
    json.dumps prints for them, and the values the library computes."""
    def run(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv + ["--format", "json"])
        return code, out.getvalue()

    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "a.txt"
        path.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
        a = read_set_file(path)
        code, out = run(["image", "--poly", str(f), "--set", str(path)])
        assert (code, out) == (0, canonical(out))
        assert json.loads(out)["values"] == list(map(format_rational, image_set(f, a).elements))
        if classify_monomial_composition(f) is not None:
            return  # the subsum audit refuses g(x^a y^b)
        tau = [] if threshold is None else ["--threshold", str(threshold)]
        code, out = run(["audit", "--poly", str(f), "--set", str(path)] + tau)
    assert (code, out) == (0, canonical(out))
    report = audit_vanishing_subsums(f, a, threshold)

    def texts(keys):
        return [format_rational(Fraction(k, report.scale)) for k in keys]

    audit = json.loads(out)["subsum_audit"]
    assert audit["table"] == [
        {"value": value, "clean": c, "dirty": d}
        for value, (_, c, d) in zip(texts(k for k, _, _ in report.table), report.table)
    ]
    assert audit["bad_values"] == texts(report.bad_values)
    assert audit["high_multiplicity"] == texts(report.high_multiplicity)


def test_bound_above_digit_cap_exit_3():
    # 160^77440000 has about 1.7e8 digits. The cap must refuse it from log10
    # alone; the child gets 2 s of CPU, far too little to build the integer,
    # so a missing cap kills the child instead of building it.
    result = run_python_with_two_cpu_seconds(
        ["-m", "polyexpand", "bound", "--n", "20", "--r", "5"]
    )
    assert result.returncode == 3
    assert result.stdout == ""
    assert "digit budget exceeded" in result.stderr
    assert "170687052 digits" in result.stderr


@pytest.mark.parametrize(
    "n,r",
    [("1" + "0" * 83, "0"), ("1", "7" * 400), ("1" + "0" * 900, "0")],
    ids=["huge-n", "huge-r", "900-digit-n"],
)
def test_bound_past_float_range_exit_3(n, r, capsys):
    # the digit count of (8n)^(4n^4(n+nr+1)) does not fit a float here;
    # the cap must still refuse it instead of raising OverflowError, and
    # for n = 10^900 the count has more digits than the int-to-str limit
    code, out, err = run_cli(["bound", "--n", n, "--r", r], capsys)
    assert code == 3
    assert out == ""
    assert "digit budget exceeded: the bound value needs" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["audit", "--poly", "x*y^2 + x", "--ggp", "2^[10] * 3^[10]", "--t", "900"],
        ["sweep", "--poly", "x*y^2 + x", "--family", "ggp:2^[10]*3^[10]", "--N", "900"],
    ],
    ids=["audit", "sweep"],
)
def test_dilated_box_above_element_cap_exit_3(argv):
    # The box dilated by 900 has 81M elements, which the child's 2 s of CPU
    # cannot build; the default --max-pairs holds a box to isqrt(10^8).
    result = run_python_with_two_cpu_seconds(["-m", "polyexpand", *argv])
    assert result.returncode == 3
    assert result.stdout == ""
    assert result.stderr == (
        "error: element budget exceeded: box enumeration needs 81000000 elements, "
        "above the cap of 10000; raise it with --max-pairs\n"
    )


def test_audit_above_support_cap_exit_3(set_file):
    # 45 terms would cost about 2^22 subsum entries per pair, far more than
    # the child's 2 s of CPU, so only a refusal before the walk exits 3.
    result = run_python_with_two_cpu_seconds(
        ["-m", "polyexpand", "audit", "--poly", all_monomials(8), "--set", set_file]
    )
    assert result.returncode == 3
    assert result.stdout == ""
    assert "term budget exceeded: subsum audit needs 45 terms" in result.stderr
    assert "this cap is fixed" in result.stderr


def test_structure_cap_exit_3(capsys, set_file):
    # |A| = 3, so the product set needs 9 pairs
    code, out, err = run_cli(["structure", "--set", set_file, "--max-pairs", "8"], capsys)
    assert code == 3
    assert out == ""
    assert "product set needs 9 pairs" in err and "--max-pairs" in err
    code, _, _ = run_cli(["structure", "--set", set_file, "--max-pairs", "9"], capsys)
    assert code == 0


def test_structure_refuses_zero_before_the_product_walk(capsys, tmp_path, monkeypatch):
    # A larger cap cannot help a set holding 0, so no cap is named and no pair is walked.
    path = tmp_path / "zero.txt"
    path.write_text("-1\n0\n2\n", encoding="utf-8")
    monkeypatch.setattr(polyexpand.cli, "productset_size", lambda *a: pytest.fail("walked"))
    for cap in ([], ["--max-pairs", "8"]):
        code, out, err = run_cli(["structure", "--set", str(path), *cap], capsys)
        assert (code, out) == (2, "")
        assert err == "error: 0 is not in any multiplicative group; drop it first\n"


def test_structure_rank_over_its_budget_exit_3(capsys, tmp_path, monkeypatch):
    # 30 elements over the first 30 primes: the product set needs 900 pairs,
    # and the rank charges 30 * 30 * 30 entry updates before it eliminates.
    primes = [p for p in range(2, 114) if all(p % d for d in range(2, p))]
    rng = random.Random(30)
    values = [math.prod(Fraction(p) ** rng.randint(-3, 3) for p in primes) for _ in range(30)]
    path = tmp_path / "dense.txt"
    path.write_text("".join(f"{v}\n" for v in values), encoding="utf-8")
    monkeypatch.setattr(structure, "_integer_rank", lambda matrix: pytest.fail("eliminated"))
    code, out, err = run_cli(["structure", "--set", str(path), "--max-pairs", "26999"], capsys)
    assert (code, out) == (3, "")
    assert err == (
        "error: entry update budget exceeded: multiplicative rank needs 27000 entry updates, "
        "above the cap of 26999; raise it with --max-pairs\n"
    )
    monkeypatch.undo()
    code, out, _ = run_cli(["structure", "--set", str(path), "--max-pairs", "27000"], capsys)
    assert (code, out.splitlines()[-1]) == (0, "rank = 30")


def test_json_outputs_are_byte_stable(capsys, set_file):
    argv = ["energy", "--poly", "x*y + x^2", "--set", set_file, "--format", "json"]
    _, first, _ = run_cli(argv, capsys)
    _, second, _ = run_cli(argv, capsys)
    assert first == second


def test_bad_common_flags(capsys, set_file):
    code, _, _ = run_cli(["structure", "--set", set_file, "--max-pairs", "0"], capsys)
    assert code == 2
    code, _, err = run_cli(
        ["energy", "--poly", "x*y", "--set", set_file, "--format", "csv"], capsys
    )
    assert code == 2
    assert "csv" in err


def test_unknown_family(capsys):
    code, _, err = run_cli(
        ["sweep", "--poly", "x + y", "--family", "arithmetic:2", "--N", "4"], capsys
    )
    assert code == 2
    assert "family" in err


def test_csv_rejected_before_any_work(capsys, set_file):
    code, out, err = run_cli(
        ["image", "--poly", "x + y", "--set", "/nonexistent", "--format", "csv"], capsys
    )
    assert (code, out) == (2, "")
    assert "csv" in err
    # The pair budget is never reached: exit 2, not 3.
    code, out, err = run_cli(
        ["energy", "--poly", "x*y", "--set", set_file, "--format", "csv", "--max-pairs", "1"],
        capsys,
    )
    assert (code, out) == (2, "")
    assert "csv" in err


def test_cached_parser_dispatches_to_rebound_commands(capsys, set_file, monkeypatch):
    run_cli(["structure", "--set", set_file], capsys)
    monkeypatch.setattr(polyexpand.cli, "cmd_structure", lambda args, f: (0, {}, ["patched"]))
    assert run_cli(["structure", "--set", set_file], capsys) == (0, "patched\n", "")


def test_cached_parser_keeps_no_state_between_calls(capsys, set_file, tmp_path):
    b = tmp_path / "b.txt"
    b.write_text("3\n", encoding="utf-8")
    argv = ["image", "--poly", "x*y", "--set", set_file, "--format", "json"]
    _, out, _ = run_cli(argv + ["--set2", str(b)], capsys)
    assert json.loads(out)["values"] == ["6", "12", "24"]
    _, out, _ = run_cli(argv, capsys)
    assert json.loads(out)["values"] == ["4", "8", "16", "32", "64"]


def test_type_error_is_not_a_usage_error(set_file, monkeypatch):
    # No CLI input reaches a TypeError, so one is a defect and must propagate.
    def broken(args, f):
        raise TypeError("defect")

    monkeypatch.setattr(polyexpand.cli, "cmd_structure", broken)
    with pytest.raises(TypeError, match="defect"):
        main(["structure", "--set", set_file])
    # json_text writes a JSONText as it stands; any other value goes to json's encoder.
    monkeypatch.setattr(polyexpand.cli, "cmd_structure", lambda args, f: (0, {"x": object()}, []))
    with pytest.raises(TypeError, match="^Object of type object is not JSON serializable$"):
        main(["structure", "--set", set_file, "--format", "json"])


def test_json_prints_a_nul_string_beside_a_json_text(set_file, monkeypatch, capsys):
    # A payload string "\0" is a string like any other, never taken for a JSON text.
    payload = {"note": "\0", "values": cli.json_array(["1", "-2/3"])}
    monkeypatch.setattr(cli, "cmd_structure", lambda args, f: (0, payload, []))
    code, out, err = run_cli(["structure", "--set", set_file, "--format", "json"], capsys)
    resolved = {"command": "structure", "note": "\0", "values": ["1", "-2/3"]}
    assert (code, out, err) == (0, json.dumps(resolved, sort_keys=True) + "\n", "")


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.sampled_from(["\0", "Ä"])
    | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=12,
)


@given(st.data())
def test_json_text_matches_json_dumps(data):
    # q is a nested dict of JSON values, NaN and infinities among the floats; p is q
    # with some of its dicts' values v replaced by their JSON text.
    def as_texts(q):
        return {k: cli.JSONText(json.dumps(v, sort_keys=True)) if data.draw(st.booleans())
                else as_texts(v) if isinstance(v, dict) else v for k, v in q.items()}

    q = data.draw(st.dictionaries(st.text(), JSON_VALUES, max_size=4))
    assert cli.json_text(as_texts(q)) == json.dumps(q, sort_keys=True)


def test_running_out_of_memory_exits_3(tmp_path):
    # x + 10007*y has 9,000,000 distinct values on 1..3000, about 800 MB of keys.
    path = tmp_path / "ints.txt"
    path.write_text("".join(f"{v}\n" for v in range(1, 3001)), encoding="utf-8")
    code = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (300 << 20,) * 2)\n"
            "from polyexpand.cli import main\n"
            "raise SystemExit(main(['image', '--poly', 'x + 10007*y', '--set', sys.argv[1]]))")
    result = run_python_with_two_cpu_seconds(["-c", code, str(path)])
    assert (result.returncode, result.stdout, result.stderr) == (3, "", "error: out of memory\n")


def test_cli_import_loads_no_dataclasses_or_inspect():
    # Every invocation pays for what `import polyexpand.cli` loads; dataclasses
    # alone brings inspect, ast, dis and tokenize. -S keeps a site-installed
    # .pth file from importing them first (hiding a regression) or at all.
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import polyexpand.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    src = str(Path(polyexpand.__file__).parents[1])
    result = subprocess.run([sys.executable, "-S", "-c", code, src],
                            capture_output=True, text=True, timeout=60)
    assert (result.returncode, result.stdout, result.stderr) == (0, "[]\n", "")
    # Under postponed annotations, each record field would hold a ForwardRef built at import.
    records = (
        polyexpand.AuditReport, polyexpand.EnergyCheck, polyexpand.SweepRow,
        polyexpand.ExpansionReport, polyexpand.GGPFamily, polyexpand.BoundValue,
        polyexpand.MonomialDecomposition, polyexpand.MultiplicityHistogram,
    )
    assert [
        (record.__name__, field)
        for record in records
        for field, annotation in record.__annotations__.items()
        if isinstance(annotation, typing.ForwardRef)
    ] == []
    assert polyexpand.ExpansionReport._fields == ("family", "rows", "growth_exponent")


@pytest.mark.parametrize(
    "case", [case for case in CASES if case["code"] in (0, 4)], ids=lambda case: case["id"]
)
def test_each_printed_value_is_rendered_once(case, tmp_path):
    """str(f) runs only where f is printed, and a sweep formats no rational it does not print.

    image renders its values in one format_keys call, and a subsum audit makes one call
    per list it prints; structure's one list is its doubling."""
    argv = case["argv"]
    assert not any(arg.startswith(("--format=", "--poly=")) for arg in argv)
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else "text"
    calls = Counter()

    def counted(name, function):
        def wrapper(*args):
            calls[name] += 1
            return function(*args)
        return wrapper

    with mock.patch.object(BivariatePoly, "__str__", counted("str", BivariatePoly.__str__)), \
            mock.patch.object(cli, "format_rational", counted("format", cli.format_rational)), \
            mock.patch.object(cli, "format_keys", counted("keys", cli.format_keys)):
        code, out, _ = replay(argv, case["patch"], tmp_path)
    assert code == case["code"]
    sweep = argv[0] == "sweep"
    printed = (fmt == "json" and "--poly" in argv) or (sweep and fmt == "text")
    assert calls["str"] == (1 if printed else 0)
    if sweep:
        rows = len(json.loads(out)["rows"]) if fmt == "json" else 0
        assert calls["format"] == 2 * rows
    command = None if "-h" in argv else argv[0]  # help runs no command
    lists = 0  # high multiplicity, then bad values and the table where they are printed
    if command in ("image", "structure"):
        lists = 1
    elif command == "audit" and "--set" in argv:
        lists = 3 if fmt == "json" else 1 + ("full table" in out)
    assert calls["keys"] == lists
