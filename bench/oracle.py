"""Reference answers for the benchmark's ops, sharing no code with ``src/``.

``expected(op)`` works from the op spec the generator wrote (exponent ->
coefficient maps, set elements, generator matrices), never from the CLI's
own parsers:

* images and energies by brute-force Fraction evaluation of every pair;
* product-set sizes of geometric sets and GGP boxes from the closed forms
  ``2N - 1`` and ``prod(2H_i - 1)`` (independent generators);
* clean/dirty splits by enumerating all ``2^m`` subsets of the term values;
* multiplicative rank from the element exponent matrix by construction.

``observed(op, stdout)`` parses the CLI output into the same canonical
dict, so a check is one comparison.
"""

from __future__ import annotations

import ast
import hashlib
import json
import math
import re
from fractions import Fraction

from gen import box, fmt, rank_of


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _terms(op: dict) -> list[tuple[int, int, Fraction]]:
    return [(i, j, Fraction(c)) for i, j, c in op["poly"]]


def _elements(spec: dict) -> list[Fraction]:
    return [Fraction(e) for e in spec["elements"]]


def _pair_values(terms, xs, ys):
    """Yield f(x, y) for every pair, each term evaluated as c * x**i * y**j."""
    max_i = max(i for i, _, _ in terms)
    max_j = max(j for _, j, _ in terms)
    xpow = [[x**k for k in range(max_i + 1)] for x in xs]
    ypow = [[y**k for k in range(max_j + 1)] for y in ys]
    for px in xpow:
        for py in ypow:
            yield sum(c * px[i] * py[j] for i, j, c in terms)


def _ggp_elements(gens: list[str], dims: list[int]) -> list[Fraction]:
    out = [Fraction(1)]
    for g, h in zip(gens, dims):
        out = [v * Fraction(g) ** e for v in out for e in range(h)]
    return out


def _image(op: dict) -> dict:
    values = sorted(set(_pair_values(_terms(op), _elements(op["set"]), _elements(op["set"]))))
    return {"size": len(values), "values_sha": _sha(", ".join(fmt(v) for v in values))}


def _energy(op: dict) -> dict:
    a = _elements(op["set"])
    counts: dict[Fraction, int] = {}
    for v in _pair_values(_terms(op), a, a):
        counts[v] = counts.get(v, 0) + 1
    e = sum(m * m for m in counts.values())
    lower = Fraction(len(a) ** 4, len(counts))
    return {"E": e, "image": len(counts), "lower": fmt(lower), "holds": e >= lower}


def _structure(op: dict) -> dict:
    a = _elements(op["set"])
    products = {x * y for x in a for y in a}
    doubling = Fraction(len(products), len(a))
    out = {
        "size": len(a),
        "productset": len(products),
        "doubling": fmt(doubling),
        "rank": rank_of(op["set"]["vectors"]),
    }
    if op["format"] == "json":
        out["doubling_float"] = float(doubling)
    return out


def _slope(points: list[tuple[int, int]]) -> float | None:
    if len({p[0] for p in points}) < 2:
        return None
    xs = [math.log(p[0]) for p in points]
    ys = [math.log(p[1]) for p in points]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def _sweep(op: dict) -> dict:
    family = op["family"]
    terms = _terms(op)
    rows = []
    points = []
    for n in op["sizes"]:
        if family["kind"] == "geometric":
            q = Fraction(family["ratio"])
            a = [q**k for k in range(1, n + 1)]
            aa = 2 * n - 1
        else:
            dims = [h * n for h in family["dims"]]
            a = _ggp_elements(family["gens"], dims)
            aa = math.prod(2 * h - 1 for h in dims)
        image = len(set(_pair_values(terms, a, a)))
        k = Fraction(aa, len(a))
        r = Fraction(image, len(a) ** 2)
        points.append((len(a), image))
        if op["format"] == "json":
            rows.append([n, len(a), aa, fmt(k), float(k), image, fmt(r), float(r)])
        elif op["format"] == "csv":
            rows.append([str(n), str(len(a)), str(aa), repr(float(k)), str(image), repr(float(r))])
        else:
            rows.append([str(n), str(len(a)), str(aa), f"{float(k):.4f}", str(image),
                         f"{float(r):.4f}"])
    return {"rows": rows, "growth": None if op["format"] == "csv" else _slope(points)}


def _zero_proper_subsum(values: list[int]) -> bool:
    """Enumerate all 2^m subset sums; True when a nonempty proper one is 0."""
    sums = [0] * (1 << len(values))
    for mask in range(1, len(sums)):
        low = mask & -mask
        sums[mask] = sums[mask ^ low] + values[low.bit_length() - 1]
    return 0 in sums[1:-1]


def _audit_set(op: dict) -> dict:
    terms = _terms(op)
    a = _elements(op["set"])
    degree = max(i + j for i, j, _ in terms)
    # Exact integer term values: scale x by D and f by L * D^degree.
    d = math.lcm(*(v.denominator for v in a))
    scale_l = math.lcm(*(c.denominator for _, _, c in terms))
    ints = [int(v * d) for v in a]
    coeffs = [(i, j, int(c * scale_l) * d ** (degree - i - j)) for i, j, c in terms]
    unit = scale_l * d**degree
    table: dict[int, list[int]] = {}
    zero_full = 0
    for x in ints:
        for y in ints:
            values = [c * x**i * y**j for i, j, c in coeffs]
            total = sum(values)
            entry = table.setdefault(total, [0, 0])
            if _zero_proper_subsum(values):
                entry[1] += 1
            else:
                entry[0] += 1
                zero_full += total == 0
    m = len(terms)
    bound = degree * degree * 2**m
    tau = bound if op["threshold"] is None else op["threshold"]
    splits = [(fmt(Fraction(v, unit)), c, dd) for v, (c, dd) in sorted(table.items())]
    bad = [v for v, _, dd in splits if dd > bound]
    k_floor = max(1, math.floor(Fraction(len({x * y for x in a for y in a}), len(a))))
    n = math.comb(degree + 2, 2)
    log10 = 4 * n**4 * (n + n * k_floor + 1) * math.log10(8 * n)
    out = {
        "degree": degree,
        "support": m,
        "pairs": len(a) ** 2,
        "dirty_bound": bound,
        "bad_count": len(bad),
        "max_bad": degree + 1,
        "high": [v for v, c, dd in splits if c + dd > tau],
        "log10": f"{log10:.6g}",
        "consistent": len(bad) <= degree + 1,
    }
    if op["format"] == "json":
        out.update(
            bad_values=bad,
            threshold=tau,
            zero_full=zero_full,
            table_sha=_sha(";".join(f"{v}:{c}:{dd}" for v, c, dd in splits)),
        )
    return out


def _audit_ggp(op: dict) -> dict:
    ggp = op["ggp"]
    support = sorted(((i, j) for i, j, _ in op["poly"]), key=lambda v: (v[0] + v[1], v[0]))
    (i, j), (i2, j2) = next(
        (p, q)
        for k, p in enumerate(support)
        for q in support[k + 1 :]
        if p[0] * q[1] - p[1] * q[0]
    )
    dilated = box(ggp["rows"], [op["t"] * h for h in ggp["dims"]])
    if len(dilated) != math.prod(op["t"] * h for h in ggp["dims"]):
        return {"rc": 2}
    members = box(ggp["rows"], ggp["dims"])
    seen = set()
    for x in members:
        for y in members:
            seen.add((
                tuple(i * a + j * b for a, b in zip(x, y)),
                tuple(i2 * a + j2 * b for a, b in zip(x, y)),
            ))
    return {"t": op["t"], "injective": len(seen) == len(members) ** 2}


_EXPECTED = {
    "image": _image,
    "energy": _energy,
    "structure": _structure,
    "sweep": _sweep,
    "audit_set": _audit_set,
    "audit_ggp": _audit_ggp,
}


def expected(op: dict) -> dict:
    """Canonical reference answer for one op, including its exit code."""
    out = {"rc": 0}
    out.update(_EXPECTED[op["kind"]](op))
    return out


def _kv(lines: list[str]) -> dict[str, str]:
    out = {}
    for line in lines:
        key, sep, value = line.strip().partition(" = ")
        if sep:
            out[key] = value
    return out


def observed(op: dict, stdout: str) -> dict:
    """Parse CLI stdout into the canonical dict `expected` produces."""
    kind, form = op["kind"], op["format"]
    lines = stdout.splitlines()
    payload = json.loads(stdout) if form == "json" else None
    if kind == "image":
        if payload:
            return {"size": payload["size"], "values_sha": _sha(", ".join(payload["values"]))}
        kv = _kv(lines)
        return {"size": int(kv["size"]), "values_sha": _sha(kv["values"][1:-1])}
    if kind == "energy":
        kv = _kv(lines)
        return {
            "E": int(kv["E"]),
            "image": int(kv["image"]),
            "lower": kv["lower bound |A|^4/|f(A,A)|"],
            "holds": kv["holds"] == "true",
        }
    if kind == "structure":
        if payload:
            return {
                "size": payload["set_size"],
                "productset": payload["productset_size"],
                "doubling": payload["doubling"],
                "rank": payload["rank"],
                "doubling_float": payload["doubling_float"],
            }
        kv = _kv(lines)
        return {
            "size": int(kv["size"]),
            "productset": int(kv["productset"]),
            "doubling": kv["doubling"],
            "rank": int(kv["rank"]),
        }
    if kind == "sweep":
        if payload:
            rows = [
                [r["N"], r["setsize"], r["productset"], r["K"], r["K_float"], r["image"],
                 r["ratio"], r["ratio_float"]]
                for r in payload["rows"]
            ]
            return {"rows": rows, "growth": payload["growth_exponent"]}
        if form == "csv":
            return {"rows": [line.split(",") for line in lines[1:]], "growth": None}
        rows = [line.split() for line in lines[3:] if line[:1] == " "]
        growth = _kv(lines).get("fitted growth exponent")
        return {"rows": rows, "growth": None if growth is None else float(growth)}
    if kind == "audit_set":
        if payload:
            rep = payload["subsum_audit"]
            return {
                "degree": rep["degree"],
                "support": rep["support_size"],
                "pairs": rep["pairs"],
                "dirty_bound": rep["dirty_bound"],
                "bad_count": len(rep["bad_values"]),
                "max_bad": rep["max_bad_values"],
                "high": rep["high_multiplicity"],
                "log10": f"{rep['theoretical_threshold_log10']:.6g}",
                "consistent": rep["consistent"],
                "bad_values": rep["bad_values"],
                "threshold": rep["threshold"],
                "zero_full": rep["zero_value_full_sum_solutions"],
                "table_sha": _sha(
                    ";".join(f"{r['value']}:{r['clean']}:{r['dirty']}" for r in rep["table"])
                ),
            }
        head = re.fullmatch(
            r"subsum audit: degree = (\d+), support = (\d+), pairs = (\d+)", lines[0]
        )
        bound = re.fullmatch(
            r"\s+dirty bound = (\d+), values above it = (\d+) \(allowed (\d+)\)", lines[1]
        )
        high = re.fullmatch(r"\s+high multiplicity \(> \d+\): (.*)", lines[2])
        kv = _kv(lines)
        return {
            "degree": int(head[1]),
            "support": int(head[2]),
            "pairs": int(head[3]),
            "dirty_bound": int(bound[1]),
            "bad_count": int(bound[2]),
            "max_bad": int(bound[3]),
            "high": ast.literal_eval(high[1]),
            "log10": kv["theoretical threshold log10"],
            "consistent": kv["consistent"] == "true",
        }
    if kind == "audit_ggp":
        m = re.fullmatch(r"injectivity audit on .* \(t = (\d+)\): (injective|NOT injective)",
                         lines[0])
        return {"t": int(m[1]), "injective": m[2] == "injective"}
    raise ValueError(f"unknown op kind {kind!r}")


def check(op: dict, rc: int, stdout: str, expect: dict) -> str | None:
    """None when the output matches the reference, else the reason it does not."""
    if rc != expect["rc"]:
        return f"exit code {rc}, expected {expect['rc']}"
    if rc != 0:
        return None
    try:
        got = observed(op, stdout)
    except (ValueError, KeyError, IndexError, TypeError, SyntaxError) as exc:
        return f"unparseable output: {exc!r}"
    want = {k: v for k, v in expect.items() if k != "rc"}
    if "growth" in want:
        g, w = got.pop("growth"), want.pop("growth")
        if (g is None) != (w is None) or (w is not None and abs(g - w) > 1e-4):
            return f"growth exponent {g}, expected {w}"
    for key in want:
        if got.get(key) != want[key]:
            return f"{key}: got {str(got.get(key))[:80]}, expected {str(want[key])[:80]}"
    return None
