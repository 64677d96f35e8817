"""Per-layer tracing of polyexpand from outside the package.

``Tracer.install()`` rebinds public functions of the package's modules to
timing wrappers: the attribute is replaced in the defining module and in
every package module that imported it by name (``cli``, ``lab``, ...), so
calls through either path are seen. ``uninstall()`` puts the originals back.
Nothing under ``src/`` is edited.

Boundary calls become spans (name, start, end, parent, op id) kept in
memory. Hot per-pair or per-value calls are aggregated as call count plus
total time instead. A span's self time is its duration minus the time of
the spans and aggregated calls made inside it.
"""

from __future__ import annotations

import importlib
import json
import sys
from time import perf_counter

# Defining module -> functions traced as spans.
SPANS = {
    "cli": ("main", "cmd_image", "cmd_energy", "cmd_structure", "cmd_audit", "cmd_sweep"),
    "polynomials": ("parse_poly", "classify_monomial_composition", "non_parallel_witnesses"),
    "sets": ("read_set_file", "image_set", "multiplicity_histogram", "productset",
             "doubling_ratio"),
    "structure": ("multiplicative_rank", "parse_ggp_spec", "ggp_enumerate", "ggp_power",
                  "distinctness_check"),
    "lab": ("audit_vanishing_subsums", "audit_injectivity", "expansion_sweep",
            "cauchy_schwarz_check", "parse_family"),
}
# Defining module -> functions called per pair or per value: count + time only.
AGGREGATED = {
    "rational": ("parse_rational", "format_rational"),
    "polynomials": ("zero_proper_subset_exists",),
    "structure": ("solve_exponent_system",),
}
LAYERS = ("cli", "rational", "polynomials", "sets", "structure", "lab")

# Per-layer metric -> (unit, better). Seconds, counts and bytes are averages per
# traced op; a layer that a workload never calls reads exactly 0 there.
PER_LAYER = {
    "sets.image_s": ("s/op", "lower"),
    "sets.histogram_s": ("s/op", "lower"),
    "sets.pairs": ("count/op", "lower"),
    "sets.distinct": ("count/op", "lower"),
    "sets.distinct_ratio": ("ratio", "higher"),
    "sets.max_value_bits": ("bits", "lower"),
    "sets.productset_s": ("s/op", "lower"),
    "sets.productset_calls": ("count/op", "lower"),
    "sets.doubling_s": ("s/op", "lower"),
    "rational.format_s": ("s/op", "lower"),
    "rational.format_calls": ("count/op", "lower"),
    "cli.self_s": ("s/op", "lower"),
    "cli.stdout_bytes": ("bytes/op", "lower"),
    "rational.read_s": ("s/op", "lower"),
    "polynomials.parse_s": ("s/op", "lower"),
    "polynomials.classify_s": ("s/op", "lower"),
    "structure.rank_s": ("s/op", "lower"),
    "structure.rank_calls": ("count/op", "lower"),
    "structure.rank_ints": ("count/op", "lower"),
    "structure.rank_wrong": ("count", "lower"),
    "polynomials.subsum_s": ("s/op", "lower"),
    "polynomials.subsum_calls": ("count/op", "lower"),
    "polynomials.subsum_hits": ("count/op", "lower"),
    "lab.audit_self_s": ("s/op", "lower"),
    "structure.ggp_s": ("s/op", "lower"),
    "structure.solve_calls": ("count/op", "lower"),
    "lab.injectivity_self_s": ("s/op", "lower"),
    "lab.sweep_self_s": ("s/op", "lower"),
    **{f"{layer}.self_s": ("s/op", "lower") for layer in LAYERS},
    "trace.op_s": ("s/op", "lower"),
    "trace.overhead_share": ("ratio", "lower"),
}


def layer_map(path) -> dict[str, dict]:
    """Expand ``layer_map.json``'s groups into one entry per per-layer metric."""
    with open(path, encoding="utf-8") as handle:
        groups = json.load(handle)["groups"]
    return {name: {key: group[key] for key in ("moves", "why", "prediction")}
            for group in groups for name in group["metrics"]}


def _max_bits(values) -> int:
    return max((max(v.numerator.bit_length(), v.denominator.bit_length()) for v in values),
               default=0)


def _image_extra(args, kwargs, result) -> dict:
    a = args[1]
    b = args[2] if len(args) > 2 else kwargs.get("b")
    pairs = len(a) * len(a if b is None else b)
    return {"pairs": pairs, "distinct": len(result), "bits": _max_bits(result.elements)}


def _histogram_extra(args, kwargs, result) -> dict:
    return {"pairs": len(args[1]) ** 2, "distinct": len(result.counts),
            "bits": _max_bits(result.counts)}


def _rank_extra(args, kwargs, result) -> dict:
    ints = sum((abs(v.numerator) > 1) + (v.denominator > 1) for v in args[0])
    return {"ints": ints}


EXTRA = {
    "sets.image_set": _image_extra,
    "sets.multiplicity_histogram": _histogram_extra,
    "structure.multiplicative_rank": _rank_extra,
}


class Tracer:
    """Spans and aggregated counters for the ops run while installed."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, parent, op, name, start, end, self_s, extra)
        self.aggregates: dict[str, list] = {}  # name -> [calls, seconds, truthy results]
        self.op = -1
        self._stack: list[list] = []  # [span id, child seconds]
        self._next_id = 0
        self._saved: list[tuple] = []

    def _span(self, name, fn):
        extra_fn = EXTRA.get(name)

        def wrapper(*args, **kwargs):
            stack = self._stack
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
            extra = extra_fn(args, kwargs, result) if extra_fn else None
            self.spans.append((span_id, parent[0] if parent else None, self.op, name,
                               start, end, end - start - frame[1], extra))
            if parent:
                # Time spent on the extra counters is charged to nobody.
                parent[1] += perf_counter() - start
            return result

        return wrapper

    def _aggregate(self, name, fn):
        stats = self.aggregates.setdefault(name, [0, 0.0, 0])

        def wrapper(*args, **kwargs):
            start = perf_counter()
            result = fn(*args, **kwargs)
            elapsed = perf_counter() - start
            stats[0] += 1
            stats[1] += elapsed
            if result:
                stats[2] += 1
            if self._stack:
                self._stack[-1][1] += elapsed
            return result

        return wrapper

    def install(self) -> None:
        package = [m for n, m in list(sys.modules.items()) if n.startswith("polyexpand")]
        for table, make in ((SPANS, self._span), (AGGREGATED, self._aggregate)):
            for module_name, functions in table.items():
                home = importlib.import_module(f"polyexpand.{module_name}")
                for fname in functions:
                    original = getattr(home, fname)
                    wrapper = make(f"{module_name}.{fname}", original)
                    for module in package:
                        if module.__dict__.get(fname) is original:
                            self._saved.append((module, fname, original))
                            setattr(module, fname, wrapper)

    def uninstall(self) -> None:
        for module, fname, original in reversed(self._saved):
            setattr(module, fname, original)
        self._saved.clear()

    def write(self, path) -> None:
        """Write the spans and aggregates as JSON lines."""
        with open(path, "w", encoding="utf-8") as out:
            for s in self.spans:
                out.write(json.dumps({"id": s[0], "parent": s[1], "op": s[2], "name": s[3],
                                      "start": s[4], "end": s[5], "self_s": s[6],
                                      "extra": s[7]}) + "\n")
            for name, (calls, seconds, hits) in sorted(self.aggregates.items()):
                out.write(json.dumps({"aggregate": name, "calls": calls, "seconds": seconds,
                                      "hits": hits}) + "\n")


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, float]:
    """Per-layer numbers per traced op (counts and seconds), from spans and aggregates."""
    by_id = {s[0]: s for s in tracer.spans}

    def outermost(names) -> list[tuple]:
        out = []
        for s in tracer.spans:
            if s[3] not in names:
                continue
            parent = s[1]
            while parent is not None and by_id[parent][3] not in names:
                parent = by_id[parent][1]
            if parent is None:
                out.append(s)
        return out

    def seconds(*names) -> float:
        return sum(s[5] - s[4] for s in outermost(names)) / ops

    def self_s(*names) -> float:
        return sum(s[6] for s in tracer.spans if s[3] in names) / ops

    def calls(name) -> float:
        return sum(1 for s in tracer.spans if s[3] == name) / ops

    def extra(key, *names) -> int:
        return sum(s[7][key] for s in tracer.spans if s[3] in names)

    agg = {
        f"{module_name}.{fname}": tracer.aggregates.get(f"{module_name}.{fname}", [0, 0.0, 0])
        for module_name, functions in AGGREGATED.items()
        for fname in functions
    }

    kernels = ("sets.image_set", "sets.multiplicity_histogram")
    pairs = extra("pairs", *kernels)
    distinct = extra("distinct", *kernels)
    metrics = {
        "sets.image_s": seconds("sets.image_set"),
        "sets.histogram_s": seconds("sets.multiplicity_histogram"),
        "sets.pairs": pairs / ops,
        "sets.distinct": distinct / ops,
        "sets.distinct_ratio": distinct / pairs if pairs else 0.0,
        "sets.max_value_bits": max((s[7]["bits"] for s in tracer.spans if s[3] in kernels),
                                   default=0),
        "sets.productset_s": seconds("sets.productset"),
        "sets.productset_calls": calls("sets.productset"),
        "sets.doubling_s": seconds("sets.doubling_ratio"),
        "rational.format_s": agg["rational.format_rational"][1] / ops,
        "rational.format_calls": agg["rational.format_rational"][0] / ops,
        "rational.read_s": agg["rational.parse_rational"][1] / ops,
        "polynomials.parse_s": seconds("polynomials.parse_poly"),
        "polynomials.classify_s": seconds("polynomials.classify_monomial_composition",
                                          "polynomials.non_parallel_witnesses"),
        "structure.rank_s": seconds("structure.multiplicative_rank"),
        "structure.rank_calls": calls("structure.multiplicative_rank"),
        "structure.rank_ints": extra("ints", "structure.multiplicative_rank") / ops,
        "polynomials.subsum_s": agg["polynomials.zero_proper_subset_exists"][1] / ops,
        "polynomials.subsum_calls": agg["polynomials.zero_proper_subset_exists"][0] / ops,
        "polynomials.subsum_hits": agg["polynomials.zero_proper_subset_exists"][2] / ops,
        "structure.ggp_s": seconds("structure.ggp_enumerate", "structure.ggp_power",
                                   "structure.distinctness_check"),
        "structure.solve_calls": agg["structure.solve_exponent_system"][0] / ops,
        "lab.audit_self_s": self_s("lab.audit_vanishing_subsums"),
        "lab.injectivity_self_s": self_s("lab.audit_injectivity"),
        "lab.sweep_self_s": self_s("lab.expansion_sweep"),
    }
    for layer in LAYERS:
        spans = sum(s[6] for s in tracer.spans if s[3].split(".")[0] == layer)
        aggregated = sum(v[1] for n, v in agg.items() if n.split(".")[0] == layer)
        metrics[f"{layer}.self_s"] = (spans + aggregated) / ops
    return metrics


def calls_by_kind(tracer: Tracer, ops: list[dict], rounds: int) -> dict[str, dict[str, float]]:
    """Span calls per op of each op kind, e.g. product sets per structure op."""
    per_kind: dict[str, int] = {}
    for op in ops:
        per_kind[op["kind"]] = per_kind.get(op["kind"], 0) + rounds
    out: dict[str, dict[str, float]] = {kind: {} for kind in per_kind}
    for s in tracer.spans:
        kind = ops[s[2]]["kind"]
        out[kind][s[3]] = out[kind].get(s[3], 0) + 1 / per_kind[kind]
    return out
