"""Tests of the benchmark itself: generator, oracle and tracing.

    python3 -m pytest bench
"""

from __future__ import annotations

import contextlib
import io
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import gen  # noqa: E402
import oracle  # noqa: E402
from tracing import Tracer, calls_by_kind, layer_metrics  # noqa: E402


def _files(root: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted((root / "sets").iterdir())}


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload, tmp_path):
    first = gen.generate(workload, 7, tmp_path / "a")
    again = gen.generate(workload, 7, tmp_path / "b")
    other = gen.generate(workload, 8, tmp_path / "c")
    assert first == again
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert first != other
    assert [op["pairs"] for op in first] == [op["pairs"] for op in other]


def _geometric(ratio: int, n: int) -> dict:
    return gen.geometric_set(Fraction(ratio), n)


def _image_size(poly: list, s: dict) -> int:
    return oracle.expected({"kind": "image", "format": "text", "poly": poly, "set": s})["size"]


@pytest.mark.parametrize("n", [2, 5, 12])
def test_oracle_matches_closed_forms(n):
    dyadic = _geometric(2, n)
    assert _image_size([[1, 0, "1"], [0, 1, "1"]], dyadic) == n * (n + 1) // 2
    assert _image_size([[2, 3, "1"]], dyadic) == 5 * n - 6
    structure = oracle.expected({"kind": "structure", "format": "text",
                                 "set": {**_geometric(3, n), "vectors": [[k] for k in
                                                                          range(1, n + 1)]}})
    assert structure["productset"] == 2 * n - 1
    assert structure["rank"] == 1


def test_ggp_product_set_closed_form_matches_brute_force():
    rows = [[1, 0, 0], [0, -1, 1]]  # 2 and 5/3
    dims = [3, 4]
    s = gen.set_spec(gen.box(rows, dims), [2, 3, 5])
    brute = oracle.expected({"kind": "structure", "format": "text", "set": s})
    assert brute["productset"] == (2 * 3 - 1) * (2 * 4 - 1)
    assert brute["rank"] == 2
    sweep = oracle.expected({
        "kind": "sweep", "format": "csv", "poly": [[1, 0, "1"], [0, 1, "1"]],
        "family": {"kind": "ggp", "gens": ["2", "5/3"], "dims": [1, 1]}, "sizes": [3, 4],
    })
    assert [row[2] for row in sweep["rows"]] == ["25", "49"]


def test_oracle_rank_of_hidden_shared_prime():
    p, q, r = 1000003, 1000033, 1000037
    s = gen.set_spec([[1, 1, 0], [1, 0, 1], [0, 1, -1]], [p, q, r])
    assert oracle.expected({"kind": "structure", "format": "text", "set": s})["rank"] == 2


@pytest.mark.parametrize("variant, rank", [("one", 3), ("split", 3), ("shared", 2)])
def test_large_prime_sets_have_rank_by_construction(variant, rank):
    import random

    s = gen.large_prime_set(random.Random(1), variant)
    assert gen.rank_of(s["vectors"]) == rank
    assert all(p > gen.TRIAL_BOUND for p in s["primes"][-4:])


def test_defect_probes_stay_out_of_the_pool(tmp_path):
    ops = gen.generate("sweep-structure", 5, tmp_path)
    probes = gen.defect_probes("sweep-structure", 5, len(ops), tmp_path)
    assert [p["id"] for p in probes] == list(range(len(ops), len(ops) + len(probes)))
    assert all(p["probe"] and p["kind"] == "structure" for p in probes)
    assert not any(op.get("probe") for op in ops)
    assert [oracle.expected(p)["rank"] for p in probes] == [2] * len(probes)
    assert gen.defect_probes("image-energy", 5, 0) == []
    # Probe set files sit beside the pool's, under names of their own.
    assert all(p["argv"][2].startswith("sets/p") and (tmp_path / p["argv"][2]).is_file()
               for p in probes)


def test_subset_enumeration():
    assert oracle._zero_proper_subsum([1, -1, 2])
    assert not oracle._zero_proper_subsum([1, 2, 4])
    # Only the full (improper) sum vanishes.
    assert not oracle._zero_proper_subsum([3, -1, -2])
    assert not oracle._zero_proper_subsum([1, -1])


def _run(cli, argv, cwd):
    argv = [str(cwd / a) if a.startswith("sets/") else a for a in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


def test_audit_split_agrees_with_cli(tmp_path):
    import polyexpand.cli as cli

    # x^2*y - x*y^2 + y on {2^k}: the first two terms cancel exactly when x = y.
    s = _geometric(2, 6)
    (tmp_path / "sets").mkdir()
    (tmp_path / "sets" / "a.txt").write_text("\n".join(s["elements"]) + "\n")
    op = {"kind": "audit_set", "format": "json", "threshold": None,
          "poly": [[2, 1, "1"], [1, 2, "-1"], [0, 1, "1"]], "set": s}
    argv = ["audit", "--poly", "x^2*y - x*y^2 + y", "--set", "sets/a.txt", "--format", "json"]
    want = oracle.expected(op)
    assert want["pairs"] == 36
    assert oracle.check(op, *_run(cli, argv, tmp_path), want) is None


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_tracing_leaves_stdout_unchanged(workload, tmp_path):
    import polyexpand.cli as cli

    ops = [op for op in gen.generate(workload, 3, tmp_path) if op["kind"] != "structure"
           or len(op["set"]["primes"]) == len(gen.SMALL_PRIMES)][:6]
    original = cli.image_set
    tracer = Tracer()
    for op in ops:
        plain = _run(cli, op["argv"], tmp_path)
        tracer.op = op["id"]
        tracer.install()
        try:
            traced = _run(cli, op["argv"], tmp_path)
        finally:
            tracer.uninstall()
        assert traced == plain
        assert oracle.check(op, *plain, oracle.expected(op)) is None
    assert cli.image_set is original
    assert tracer.spans
    metrics = layer_metrics(tracer, len(ops))
    assert metrics["cli.self_s"] > 0
    assert set(calls_by_kind(tracer, ops, 1)) <= {op["kind"] for op in ops}


def test_check_reports_a_wrong_output(tmp_path):
    import polyexpand.cli as cli

    op = gen.generate("image-energy", 1, tmp_path)[0]
    rc, stdout = _run(cli, op["argv"], tmp_path)
    want = oracle.expected(op)
    assert oracle.check(op, rc, stdout, want) is None
    assert oracle.check(op, rc, stdout.replace("size = ", "size = 1"), want)
    assert oracle.check(op, 2, stdout, want)


def test_reference_kernel_leaves_gc_as_it_was():
    import gc

    import worker

    assert gc.isenabled()
    assert worker.reference() > 0
    assert gc.isenabled()
    gc.disable()
    try:
        worker.reference()
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_metric_lists_agree():
    import json

    from tracing import PER_LAYER, layer_map

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    mapping = layer_map(BENCH / "layer_map.json")
    names = [m["name"] for m in spec["per_layer"]]
    assert names == list(PER_LAYER)
    assert sorted(names) == sorted(mapping) and len(mapping) == len(names)
    assert [w["name"] for w in spec["workloads"]] == list(gen.WORKLOADS)
    e2e = {m["name"] for m in spec["end_to_end"]}
    assert all(set(m["moves"]) <= e2e for m in mapping.values())

    # A layer predicted to move a workload must be called on it at the seed commit.
    traced = json.loads((BENCH / "baseline.json").read_text())["per_layer"]["workloads"]
    for name, entry in mapping.items():
        assert list(entry["prediction"]) == list(gen.WORKLOADS)
        for workload, prediction in entry["prediction"].items():
            assert prediction in ("moves", "no-change")
            if prediction == "moves":
                assert traced[workload]["metrics"][name]["median"] > 0, (name, workload)
