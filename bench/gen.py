"""Seeded input generator for the benchmark workloads (standard library only).

``generate(workload, seed, workdir)`` returns the op list of one workload and
writes the set files the ops read. Polynomials are built as exponent ->
coefficient maps and rendered to text here; sets are built from
prime-exponent generator matrices, so every element's factorization is
known by construction. The program under test sees only the argv and the
files; the oracle sees only the op specs.

The mix of op kinds, formats and input sizes is fixed by position in the
pool, so every seed gives the same pair counts; the seed chooses the
contents: polynomials, generator exponents and hidden primes. What drives
an op's cost (kind, format, set size, geometric ratio, term count and
total degree) is fixed by position, so the seed moves the cost of a pool,
and the heaviest ops that set the tail latency, as little as possible.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import isqrt
from pathlib import Path

WORKLOADS = ("image-energy", "sweep-structure", "subsum-audit")

SMALL_PRIMES = (2, 3, 5, 7, 11, 13)
TRIAL_BOUND = 1_000_000


def is_prime(n: int) -> bool:
    """Trial division; only used for the hidden primes, which are below 2e6."""
    if n < 2:
        return False
    return all(n % d for d in range(2, isqrt(n) + 1))


def fmt(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def monomial_text(i: int, j: int) -> str:
    parts = []
    if i:
        parts.append("x" if i == 1 else f"x^{i}")
    if j:
        parts.append("y" if j == 1 else f"y^{j}")
    return "*".join(parts)


def poly_text(terms: dict[tuple[int, int], Fraction]) -> str:
    """Render an exponent -> coefficient map in the CLI's polynomial grammar."""
    out = []
    for (i, j), c in terms.items():
        body = monomial_text(i, j)
        mag = abs(c)
        if not body:
            term = fmt(mag)
        elif mag == 1:
            term = body
        else:
            term = f"{fmt(mag)}*{body}"
        if not out:
            out.append(term if c > 0 else f"-{term}")
        else:
            out.append(f"+ {term}" if c > 0 else f"- {term}")
    return " ".join(out)


def is_exceptional(terms: dict[tuple[int, int], Fraction]) -> bool:
    """f = g(x^a y^b) exactly when no two nonconstant exponents are non-parallel."""
    vectors = [v for v in terms if v != (0, 0)]
    return not any(
        i * j2 - j * i2 for k, (i, j) in enumerate(vectors) for (i2, j2) in vectors[k + 1 :]
    )


def coefficient(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4))


def nonexceptional_poly(rng: random.Random, n_terms: int, degree: int = 4) -> dict:
    """n_terms terms of total degree exactly `degree`, not of the g(x^a y^b) shape."""
    triangle = [(i, j) for i in range(degree + 1) for j in range(degree + 1 - i)]
    while True:
        support = rng.sample(triangle, n_terms)
        terms = {v: coefficient(rng) for v in support}
        if max(i + j for i, j in terms) == degree and not is_exceptional(terms):
            return terms


def exceptional_poly(rng: random.Random) -> dict:
    """g(x^a y^b) with deg g >= 2, total degree 4 (tiny, collision-heavy images)."""
    a, b = rng.choice(((1, 1), (1, 0), (0, 1)))
    top = 4 // (a + b)
    powers = [rng.randrange(1, top), top]
    terms = {(k * a, k * b): coefficient(rng) for k in powers}
    if rng.random() < 0.5:
        terms[(0, 0)] = coefficient(rng)
    return terms


def paired_poly(rng: random.Random, n_terms: int) -> dict:
    """Non-exceptional, 5-8 terms, with +c/-c pairs that cancel on geometric sets.

    A pair c*x^i*y^j - c*x^k*y^l with i > k and j < l vanishes at
    (r^u, r^v) whenever u*(i-k) = v*(l-j), so some proper subsums vanish on
    part of the pair space.
    """
    cells = [(i, j) for i in range(5) for j in range(5 - i)]
    candidates = [
        (p, q) for p in cells for q in cells if p[0] > q[0] and p[1] < q[1]
    ]
    while True:
        terms: dict[tuple[int, int], Fraction] = {}
        for _ in range(100):
            if len(terms) + 2 > n_terms:
                break
            p, q = rng.choice(candidates)
            if p in terms or q in terms:
                continue
            c = coefficient(rng)
            terms[p], terms[q] = c, -c
        while len(terms) < n_terms:
            v = rng.choice(cells)
            if v not in terms:
                terms[v] = coefficient(rng)
        if (len(terms) == n_terms and max(i + j for i, j in terms) == 4
                and not is_exceptional(terms)):
            return terms


# Geometric ratios, assigned by position in the pool.
RATIONAL_RATIOS = tuple(Fraction(p, q) for p, q in ((3, 2), (2, 3), (5, 3), (4, 3), (5, 4),
                                                      (7, 4), (5, 2), (7, 5)))
INTEGER_RATIOS = tuple(Fraction(r) for r in (2, 3, 4, 5, 6, 7, 3, 5))


def independent_generators(rng: random.Random, count: int) -> list[list[int]]:
    """Rank-`count` exponent rows over SMALL_PRIMES, none the zero vector."""
    while True:
        rows = []
        for _ in range(count):
            row = [0] * len(SMALL_PRIMES)
            for k in rng.sample(range(len(SMALL_PRIMES)), rng.randint(1, 2)):
                row[k] = rng.choice((-1, 1))
            rows.append(row)
        if rank_of(rows) == count:
            return rows


def rank_of(rows: list[list[int]]) -> int:
    """Rank over Q by Fraction elimination (used to keep generators independent)."""
    m = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                factor = m[r][col] / m[rank][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def value_of(vector: list[int], primes: list[int]) -> Fraction:
    out = Fraction(1)
    for p, e in zip(primes, vector):
        out *= Fraction(p) ** e
    return out


def box(gen_rows: list[list[int]], dims: list[int]) -> list[list[int]]:
    """Distinct exponent vectors of g1^[H1] * ... * gr^[Hr], in no fixed order."""
    vectors = {tuple([0] * len(gen_rows[0]))}
    for row, h in zip(gen_rows, dims):
        vectors = {
            tuple(v + e * r for v, r in zip(vec, row)) for vec in vectors for e in range(h)
        }
    return [list(v) for v in vectors]


def set_spec(vectors: list[list[int]], primes: list[int]) -> dict:
    values = sorted(value_of(v, primes) for v in vectors)
    by_value = {value_of(v, primes): v for v in vectors}
    return {
        "elements": [fmt(v) for v in values],
        "primes": primes,
        "vectors": [by_value[v] for v in values],
    }


def geometric_set(q: Fraction, n: int) -> dict:
    return {"elements": [fmt(q**k) for k in range(1, n + 1)]}


def ggp_text(gens: list[Fraction], dims: list[int]) -> str:
    return "*".join(f"{fmt(g)}^[{h}]" for g, h in zip(gens, dims))


def small_box_set(rng: random.Random, dims: list[int]) -> dict:
    rows = independent_generators(rng, len(dims))
    return set_spec(box(rows, dims), list(SMALL_PRIMES))


def hidden_primes(rng: random.Random, count: int) -> list[int]:
    out: list[int] = []
    while len(out) < count:
        p = rng.randrange(TRIAL_BOUND + 1, 2 * TRIAL_BOUND)
        if is_prime(p) and p not in out:
            out.append(p)
    return out


def large_prime_set(rng: random.Random, variant: str) -> dict:
    """Box over three generators mixing small primes and primes above 1e6.

    Every composite of two hidden primes lies beyond the trial bound, so
    each element that holds one costs a full trial division.

    - ``"one"``: g1 = s1*P*Q, g2 = s2, g3 = s3 (rank 3); every element holds
      the composite P*Q to the same power.
    - ``"split"``: g1 = s1*P*Q, g2 = s2, g3 = s3/(R*S) (rank 3); P*Q only
      ever sits in numerators and R*S only in denominators, so most elements
      need one or two full trial divisions, and each composite keeps a
      single exponent column.
    - ``"shared"``: g1 = s1*P*Q, g2 = s2*P*R, g3 = (s1/s2)*Q/R, so
      g1/g2 = g3 and the rank is 2, although P, Q and R only appear inside
      composites. Today's rank reads 5 here (see ``defect_probes``).
    """
    primes = list(SMALL_PRIMES) + hidden_primes(rng, 4)
    s = independent_generators(rng, 3)
    g1 = s[0] + [1, 1, 0, 0]
    if variant == "shared":
        g2 = s[1] + [1, 0, 1, 0]
        g3 = [a - b for a, b in zip(s[0], s[1])] + [0, 1, -1, 0]
    elif variant == "split":
        g2 = s[1] + [0, 0, 0, 0]
        g3 = s[2] + [0, 0, -1, -1]
    else:
        g2 = s[1] + [0, 0, 0, 0]
        g3 = s[2] + [0, 0, 0, 0]
    return set_spec(box([g1, g2, g3], [2, 2, 2]), primes)


def _op(kind: str, form: str, argv: list[str], pairs: int, **spec) -> dict:
    return {"kind": kind, "format": form, "argv": argv + ["--format", form], "pairs": pairs, **spec}


def _poly_spec(terms: dict) -> list:
    return [[i, j, fmt(c)] for (i, j), c in terms.items()]


def _image_energy(rng: random.Random, files: dict) -> list[dict]:
    n = 48
    ops = []
    commands = (("image", "text"), ("image", "json"), ("energy", "text"))
    for k in range(24):
        shape = k % 3
        if shape == 0:
            s = geometric_set(RATIONAL_RATIOS[k // 3], n)
        elif shape == 1:
            s = geometric_set(INTEGER_RATIOS[k // 3], n)
        else:
            h1 = rng.choice((4, 6, 8))
            s = small_box_set(rng, [h1, n // h1])
        terms = exceptional_poly(rng) if k % 4 == 3 else nonexceptional_poly(rng, 2 + k % 3)
        kind, form = commands[(k // 3 + k) % 3]
        path = _set_file(files, s)
        ops.append(
            _op(kind, form, [kind, "--poly", poly_text(terms), "--set", path],
                n * n, poly=_poly_spec(terms), set=s)
        )
    return ops


def _sweep_structure(rng: random.Random, files: dict) -> list[dict]:
    ops = []
    forms = ("text", "json", "csv")
    ratios = (RATIONAL_RATIOS[0], INTEGER_RATIOS[1], RATIONAL_RATIOS[3])
    for k in range(6):
        terms = nonexceptional_poly(rng, 2 + k % 3)
        if k % 2 == 0:
            q = ratios[k // 2]
            family = {"kind": "geometric", "ratio": fmt(q)}
            sizes = [4, 8, 12, 16, 20, 24]
            spec_text = f"geometric:{fmt(q)}"
            set_sizes = sizes
        else:
            rows = independent_generators(rng, 2)
            gens = [value_of(r, list(SMALL_PRIMES)) for r in rows]
            dims = [1, 2]
            family = {"kind": "ggp", "gens": [fmt(g) for g in gens], "dims": dims}
            sizes = [1, 2, 3, 4]
            spec_text = f"ggp:{ggp_text(gens, dims)}"
            set_sizes = [dims[0] * dims[1] * n * n for n in sizes]
        ops.append(
            _op("sweep", forms[k % 3],
                ["sweep", "--poly", poly_text(terms), "--family", spec_text,
                 "--N", ",".join(map(str, sizes))],
                sum(2 * m * m for m in set_sizes),
                poly=_poly_spec(terms), family=family, sizes=sizes)
        )
    for k in range(6):
        if k < 2:
            s = small_box_set(rng, [6, 6])
        else:
            s = large_prime_set(rng, "split" if k >= 4 else "one")
        path = _set_file(files, s)
        n = len(s["elements"])
        ops.append(_op("structure", ("text", "json")[k % 2],
                       ["structure", "--set", path], n * n, set=s))
    return ops


def _subsum_audit(rng: random.Random, files: dict) -> list[dict]:
    n = 28
    ops = []
    ratios = INTEGER_RATIOS[:4] + RATIONAL_RATIOS[:4]
    for k in range(8):
        terms = paired_poly(rng, 5 + k % 4)
        q = ratios[k // 2 + 4 * (k % 2)]
        s = geometric_set(q, n)
        path = _set_file(files, s)
        argv = ["audit", "--poly", poly_text(terms), "--set", path]
        threshold = None
        if k % 2 == 1:
            threshold = rng.randint(2, 4)
            argv += ["--threshold", str(threshold)]
        ops.append(_op("audit_set", ("json", "text")[k % 2], argv, n * n,
                       poly=_poly_spec(terms), set=s, threshold=threshold))
    # Five box audits, the fastest ops, put the median latency inside the
    # cluster of 5-term set audits instead of in the gap above it.
    for k in range(5):
        terms = paired_poly(rng, 5 + k % 4)
        rows = independent_generators(rng, 2)
        gens = [value_of(r, list(SMALL_PRIMES)) for r in rows]
        dims = [6, 6]
        t = 1 + k % 3
        ops.append(
            _op("audit_ggp", "text",
                ["audit", "--poly", poly_text(terms), "--ggp", ggp_text(gens, dims),
                 "--t", str(t)],
                36 * 36, poly=_poly_spec(terms),
                ggp={"dims": dims, "rows": rows}, t=t)
        )
    return ops


def _set_file(files: dict, s: dict, prefix: str = "a") -> str:
    name = f"sets/{prefix}{len(files):03d}.txt"
    files[name] = "".join(e + "\n" for e in s["elements"])
    return name


def _write(files: dict, workdir: Path | None) -> None:
    if workdir is not None:
        (workdir / "sets").mkdir(parents=True, exist_ok=True)
        for name, text in files.items():
            (workdir / name).write_text(text, encoding="utf-8")


_BUILDERS = {
    "image-energy": _image_energy,
    "sweep-structure": _sweep_structure,
    "subsum-audit": _subsum_audit,
}


def generate(workload: str, seed: int, workdir: Path | None = None) -> list[dict]:
    """The op pool of `workload` for `seed`; writes its set files under workdir."""
    rng = random.Random(f"{workload}:{seed}")
    files: dict[str, str] = {}
    # Three draws per pool cut the share of one unlucky polynomial in the
    # pool's cost, median and tail; with two, the median op latency of
    # sweep-structure still spread by 0.09 over ten seeds.
    ops = [op for _ in range(3) for op in _BUILDERS[workload](rng, files)]
    for index, op in enumerate(ops):
        op["id"] = index
    _write(files, workdir)
    return ops


# The set {pq, pr, q/r}: rank 2, for which today's rank reports 3.
HIDDEN_PRIME_EXAMPLE = ([[1, 1, 0], [1, 0, 1], [0, 1, -1]], [1000003, 1000033, 1000037])


def defect_probes(workload: str, seed: int, first_id: int,
                  workdir: Path | None = None) -> list[dict]:
    """Structure ops on sets whose generators share a prime above the trial
    bound, where the rank is known to come out wrong (ROADMAP item 3).

    The timed pool holds only ops the package gets right, so these run once
    per run of `sweep-structure`, outside the timed loop, and are counted
    apart from the pool's failed ops. Ids continue after the pool's.
    """
    if workload != "sweep-structure":
        return []
    rng = random.Random(f"{workload}:{seed}:probes")
    files: dict[str, str] = {}
    sets = [set_spec(*HIDDEN_PRIME_EXAMPLE)]
    sets += [large_prime_set(rng, "shared") for _ in range(2)]
    probes = []
    for k, s in enumerate(sets):
        path = _set_file(files, s, prefix="p")
        n = len(s["elements"])
        probe = _op("structure", "text", ["structure", "--set", path], n * n, set=s)
        probes.append({**probe, "id": first_id + k, "probe": True})
    _write(files, workdir)
    return probes
