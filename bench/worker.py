"""Benchmark worker: one fresh process per run, single-threaded.

The worker runs the op pool in whole rounds until ``--seconds``
have passed, calling ``polyexpand.cli.main(argv)`` in process with stdout
captured, and writes one JSON result file. The first execution of each op
is checked against the oracle's answer; later executions must reproduce
its stdout digest and exit code. Ops marked ``probe`` (see
``gen.defect_probes``) run once after the timed loop and are reported
apart. With ``--trace 1`` every op runs twice in
a row, untraced and then traced, so the tracing overhead and the stdout
digests of both are compared on identical work.

Right before each untraced op the worker times a fixed reference kernel
(``reference()``), so that each op's latency can be taken relative to the
host's speed at that moment.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import resource
import sys
import time
import traceback
from fractions import Fraction

import oracle
from tracing import Tracer, calls_by_kind, layer_metrics


def reference() -> float:
    """Seconds of a fixed stdlib kernel shaped like the image path: Fraction
    products, hashing, counting and a sort. No package code runs in it."""
    enabled = gc.isenabled()
    gc.disable()  # objects the package keeps alive must not slow the kernel
    start = time.perf_counter()
    counts: dict[Fraction, int] = {}
    for k in range(1, 200):
        value = Fraction(k, k + 7) * Fraction(3, 2) ** (k % 20)
        counts[value] = counts.get(value, 0) + 1
    sorted(counts)
    elapsed = time.perf_counter() - start
    if enabled:
        gc.enable()
    return elapsed


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--ops", required=True)
    parser.add_argument("--expect", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", required=True)
    args = parser.parse_args()

    sys.path.insert(0, args.src)
    import polyexpand.cli as cli

    with open(args.ops, encoding="utf-8") as handle:
        ops = json.load(handle)
    with open(args.expect, encoding="utf-8") as handle:
        expect = json.load(handle)

    def run(argv: list[str]) -> tuple[int, str, float]:
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(argv)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 2
            except Exception:
                # An uncaught error exits the CLI with 1; the oracle sees a failed op.
                traceback.print_exc()
                rc = 1
        return rc, out.getvalue(), time.perf_counter() - start

    first: dict[int, tuple[int, str]] = {}
    failures: dict[int, str] = {}
    execs = []  # [op id, seconds, ok, traced, stdout bytes, reference seconds]

    def record(op: dict, rc: int, stdout: str, seconds: float, traced: bool,
               ref: float) -> None:
        digest = hashlib.sha256(stdout.encode("utf-8")).hexdigest()
        op_id = op["id"]
        if op_id not in first:
            first[op_id] = (rc, digest)
            reason = oracle.check(op, rc, stdout, expect[op_id])
            if reason:
                failures[op_id] = reason
        ok = op_id not in failures
        if first[op_id] != (rc, digest):
            ok = False
            failures.setdefault(
                op_id, f"stdout or exit code differs between runs (traced={traced})"
            )
        execs.append([op_id, seconds, ok, traced, len(stdout.encode("utf-8")), ref])

    tracer = Tracer() if args.trace else None
    traced_ops = 0
    rounds = 0
    deadline = time.perf_counter() + args.seconds
    pool = [op for op in ops if not op.get("probe")]
    while not rounds or time.perf_counter() < deadline:
        for op in pool:
            ref = reference()
            record(op, *run(op["argv"]), traced=False, ref=ref)
            if tracer:
                tracer.op = op["id"]
                tracer.install()
                try:
                    result = run(op["argv"])
                finally:
                    tracer.uninstall()
                record(op, *result, traced=True, ref=ref)
                traced_ops += 1
        rounds += 1

    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Known-defect probes run once, untraced and after the timed loop; their
    # answers are checked like any op's but kept out of execs.
    probes = {}
    for op in ops:
        if op.get("probe"):
            rc, stdout, _ = run(op["argv"])
            probes[str(op["id"])] = oracle.check(op, rc, stdout, expect[op["id"]])

    result = {
        "rounds": rounds,
        "peak_rss_kb": peak_rss_kb,
        "execs": execs,
        "failures": {str(k): v for k, v in failures.items()},
        "probes": probes,
    }
    if tracer:
        result["layers"] = layer_metrics(tracer, traced_ops)
        result["calls_by_kind"] = calls_by_kind(tracer, pool, rounds)
        tracer.write(args.spans)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main()
