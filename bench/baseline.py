"""Run every workload over several seeds and summarise each metric.

    python3 bench/baseline.py --seeds 1-10 [--trace 0|1] [--write]

Each run measures for ``run_seconds`` of ``BENCHMARK.json``. For each
workload and metric it prints the median over the seeds and the
spread the acceptance rule uses: the distance between the first and third
quartiles (``statistics.quantiles(values, n=4)``) as a share of the median.
``--write`` records the medians, together with the Python version, the
core count and the git commit, in ``bench/baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
from gen import WORKLOADS  # noqa: E402

SECONDS = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["run_seconds"]


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", str(trace)],
        capture_output=True, text=True, check=True, cwd=BENCH.parent, timeout=900,
    )
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    if not trace:
        result["tail"] = next(json.loads(line)["op_tail_s"] for line in lines
                              if line.startswith('{"op_tail_s"'))
    return result


def spread(values: list[float]) -> float | None:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else None


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args()

    summary = {}
    for workload in WORKLOADS:
        results = [run(workload, s, args.trace) for s in seeds(args.seeds)]
        rows = {}
        print(f"{workload}: {sum(r['attempted'] for r in results)} ops, "
              f"{sum(r['failed'] for r in results)} failed")
        for name, first in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            rows[name] = {"median": statistics.median(values), "unit": first["unit"],
                          "spread": spread(values) if len(values) > 1 else None}
            if name == "op_tail_s":
                for key in ("percentile", "samples"):
                    rows[name][key] = statistics.median(r["tail"][key] for r in results)
            shown = "-" if rows[name]["spread"] is None else f"{rows[name]['spread']:.4f}"
            print(f"  {name:28s} {rows[name]['median']:>14.6g} {first['unit']:<8s} "
                  f"spread {shown:>6s}  "
                  f"[{min(values):.6g} .. {max(values):.6g}]")
        summary[workload] = {
            "fail_share": sum(r["failed"] for r in results) / sum(r["attempted"] for r in results),
            "metrics": rows,
        }

    if args.write:
        path = BENCH / "baseline.json"
        data = json.loads(path.read_text()) if path.is_file() else {}
        sha = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                             cwd=BENCH).stdout.strip() or "unknown"
        mode = "per_layer" if args.trace else "end_to_end"
        data[mode] = {
            "git_sha": sha,
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "seeds": args.seeds,
            "seconds": SECONDS,
            "workloads": summary,
        }
        path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
