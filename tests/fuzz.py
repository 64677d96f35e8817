"""Differential fuzz: the package against the plain Fraction loops of ``reference.py``.

Each case draws a set A (and a second set B) of signed products of two powers, with
exponents in -3..3, of the bases 2, 3, 5, 7, 11, 13, 6, 10, 15 and 35 (in a quarter of
the cases of 2 alone, in another quarter of 2 and 3), and a polynomial f of up to 4 terms
and degree 6. It checks:
- ``image_keys`` over A x B, printed by ``format_keys``, against ``str`` of
  ``reference.image_values``;
- ``energy``, ``value_multiplicities`` and ``productset_size`` against the reference;
- ``ladder_sizes`` over a ladder of prefixes of A's values in shuffled order;
- ``multiplicative_rank`` against a Fraction Gaussian rank of A's exponent matrix;
- ``audit_vanishing_subsums``, with and without the full table, against
  ``reference.audit_table`` (non-exceptional f only);
- ``RationalSet(scale, keys)`` on random keys against the Fractions k/scale.

Run ``python tests/fuzz.py --seed S --cases N``. It prints the first disagreement, with
its seed, case and inputs, and exits 1; otherwise it prints the number of cases and
exits 0. Pytest does not collect this file; ``test_fuzz.py`` runs a fixed seed.
"""

import argparse
import math
import random
import sys
import traceback
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import reference  # noqa: E402
from genutil import random_poly  # noqa: E402
from polyexpand import (  # noqa: E402
    RationalSet,
    audit_vanishing_subsums,
    classify_monomial_composition,
    energy,
    make_set,
    multiplicative_rank,
    productset_size,
    value_multiplicities,
)
from polyexpand.rational import format_keys  # noqa: E402
from polyexpand.sets import image_keys, ladder_sizes  # noqa: E402

BASES = (2, 3, 5, 7, 11, 13, 6, 10, 15, 35)
PRIMES = (2, 3, 5, 7, 11, 13)
MAX_PAIRS = 10**8


def draw_set(rng: random.Random, bases: tuple[int, ...], max_size: int = 9) -> RationalSet:
    return make_set(
        rng.choice((1, -1)) * Fraction(rng.choice(bases)) ** rng.randint(-3, 3)
        * Fraction(rng.choice(bases)) ** rng.randint(-3, 3)
        for _ in range(rng.randint(1, max_size))
    )


def exponent_row(v: Fraction) -> list[int]:
    """The exponents of |v| over PRIMES."""
    row = []
    for p in PRIMES:
        n, d, e = abs(v.numerator), v.denominator, 0
        while n % p == 0:
            n, e = n // p, e + 1
        while d % p == 0:
            d, e = d // p, e - 1
        row.append(e)
    return row


def gaussian_rank(rows: list[list[int]]) -> int:
    """The rank of an integer matrix, by Gaussian elimination over Fractions."""
    rows = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(PRIMES)):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            factor = rows[r][col] / rows[rank][col]
            rows[r] = [x - factor * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def audit_rows(f, a) -> tuple[list, list, int, bool]:
    """The full and the short audit tables as (value, clean, dirty) rows of Fractions, the
    report's clean solutions of f = 0, and whether the two reports agree off the table."""
    report = audit_vanishing_subsums(f, a)
    short = audit_vanishing_subsums(f, a, full_table=False)
    full = [(Fraction(k, report.scale), c, d) for k, c, d in report.table]
    kept = [(Fraction(k, short.scale), c, d) for k, c, d in short.table]
    return (full, kept, report.zero_value_full_sum_solutions,
            short._replace(table=report.table) == report)


def check_case(rng: random.Random) -> tuple[str, dict, object, object] | None:
    """Draw one case and run every check; the first (check, inputs, got, want) that
    disagrees, or None."""
    # Sets over 2 alone, or 2 and 3, give image scales odd * 2^t with t > 30 and a small
    # odd part, which format_keys takes its gcd split on.
    bases = BASES[:rng.choice((1, 2, len(BASES), len(BASES)))]
    a, b = draw_set(rng, bases), draw_set(rng, bases)
    f = random_poly(rng, max_degree=6, max_terms=4)
    values = list(a)
    rng.shuffle(values)
    cuts = sorted(rng.sample(range(1, len(values) + 1), rng.randint(1, len(values))))
    ladder = [make_set(values[:cut]) for cut in cuts]
    scale = rng.randint(1, 60) * rng.choice((1, 2, 6, 2**31, 3**20))
    keys = [rng.randint(-60, 60) * rng.choice((1, 2, 6, 2**31))
            for _ in range(rng.randint(1, 8))]
    fractions = sorted({Fraction(k, scale) for k in keys})
    d = math.lcm(*[v.denominator for v in fractions])
    inputs = {"f": str(f), "A": [str(v) for v in a], "B": [str(v) for v in b],
              "ladder": cuts, "shuffled": [str(v) for v in values], "scale": scale, "keys": keys}

    def image():
        key_scale, image = image_keys(f, a, b, MAX_PAIRS)
        return format_keys(image, key_scale)

    def rational_set():
        s = RationalSet(scale, keys)
        return s == make_set(fractions), s.scale, s.keys, type(s.keys), tuple(s)

    checks = [
        ("image_keys", image, lambda: [str(v) for v in reference.image_values(f, a, b)]),
        ("energy", lambda: energy(f, a), lambda: reference.energy(f, a)),
        ("value_multiplicities", lambda: sorted(value_multiplicities(f, a)),
         lambda: sorted(reference.histogram(f, a).values())),
        ("productset_size", lambda: productset_size(a),
         lambda: len({x * y for x in a for y in a})),
        ("ladder_sizes", lambda: ladder_sizes(f, ladder),
         lambda: [len(reference.image_values(f, s)) for s in ladder]),
        ("multiplicative_rank", lambda: multiplicative_rank(a),
         lambda: gaussian_rank([exponent_row(v) for v in a])),
        ("RationalSet", rational_set,
         lambda: (True, d, tuple(v.numerator * (d // v.denominator) for v in fractions),
                  tuple, tuple(fractions))),
    ]
    if classify_monomial_composition(f) is None:
        def audit_reference():
            table, zero_full_sum = reference.audit_table(f, a)
            dirty_bound = f.degree ** 2 * 2 ** len(f.support)
            kept = [row for row in table if row[0] == 0 or row[1] + row[2] > dirty_bound]
            return table, kept, zero_full_sum, True
        checks.append(("audit_vanishing_subsums", lambda: audit_rows(f, a), audit_reference))
    for name, got, want in checks:
        try:
            got = got()
        except Exception:  # a crash is a disagreement too, reported with its inputs
            got = traceback.format_exc()
        want = want()
        if got != want:
            return name, inputs, got, want
    return None


def run(seed: int, cases: int) -> str | None:
    """The first disagreement of cases cases drawn from seed, as text, or None."""
    rng = random.Random(seed)
    for case in range(cases):
        found = check_case(rng)
        if found is not None:
            name, inputs, got, want = found
            lines = [f"seed {seed}, case {case}: {name} disagrees"]
            lines += [f"  {key} = {value}" for key, value in inputs.items()]
            got = got if isinstance(got, str) else repr(got)  # str: a traceback
            return "\n".join(lines + [f"  got  {got}", f"  want {want!r}"])
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--cases", type=int, default=200)
    args = parser.parse_args(argv)
    disagreement = run(args.seed, args.cases)
    if disagreement is not None:
        print(disagreement)
        return 1
    print(f"seed {args.seed}: {args.cases} cases agree")
    return 0


if __name__ == "__main__":
    sys.exit(main())
