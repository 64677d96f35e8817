"""Plain Fraction reference loops for the pair-space engine, the subsum audit and the rank.

These walk the pair space with exact Fraction arithmetic, the way the
package did before its integer kernel, and find vanishing subsums by full
enumeration. Polynomials are evaluated and composed here, term by term,
sharing no code with the package's fast paths. Property tests compare the
package against them.
"""

import itertools
import math
from collections.abc import Iterator
from fractions import Fraction

from polyexpand import (
    BivariatePoly,
    make_set,
    non_parallel_witnesses,
)


def evaluate(f, x, y) -> Fraction:
    """f(x, y), summed term by term."""
    total = Fraction(0)
    for (i, j), coefficient in f.terms.items():
        total += coefficient * x**i * y**j
    return total


def evaluate_univariate(g, t) -> Fraction:
    """g(t) by Horner's rule."""
    total = Fraction(0)
    for coefficient in reversed(g.coefficients):
        total = total * t + coefficient
    return total


def compose(g, monomial) -> BivariatePoly:
    """Build g(x^a y^b) as a bivariate polynomial."""
    a, b = monomial
    if a < 0 or b < 0:
        raise ValueError("monomial exponents must be non-negative")
    terms = []
    for power, coefficient in enumerate(g.coefficients):
        if coefficient != 0:
            terms.append(((power * a, power * b), coefficient))
    return BivariatePoly(terms)


def image_values(f, a, b=None) -> tuple[Fraction, ...]:
    """Sorted distinct values f(x, y) over a x b (b defaults to a)."""
    b = a if b is None else b
    values = set()
    for x in a:
        for y in b:
            values.add(evaluate(f, x, y))
    return tuple(sorted(values))


def histogram(f, a) -> dict[Fraction, int]:
    """Value -> number of pairs in a x a, keys ascending."""
    counts: dict[Fraction, int] = {}
    for x in a:
        for y in a:
            value = evaluate(f, x, y)
            counts[value] = counts.get(value, 0) + 1
    return dict(sorted(counts.items()))


def energy(f, a) -> int:
    return sum(m * m for m in histogram(f, a).values())


def sumset(a, b):
    return make_set(x + y for x in a for y in b)


def productset(a, b):
    return make_set(x * y for x in a for y in b)


def pair_term_values(f, a) -> Iterator[list[Fraction]]:
    """The term values of f at every (x, y) in a x a, aligned with f.support."""
    support = f.support
    for x in a:
        for y in a:
            yield [f.terms[(i, j)] * x**i * y**j for i, j in support]


def has_zero_proper_subsum(values) -> bool:
    """Does some nonempty proper subset of values sum to 0? Full enumeration."""
    m = len(values)
    return any(
        sum(v for b, v in enumerate(values) if mask >> b & 1) == 0
        for mask in range(1, (1 << m) - 1)
    )


def audit_table(f, a) -> tuple[list[tuple[Fraction, int, int]], int]:
    """Sorted (value, clean, dirty) rows and the clean solutions of f = 0."""
    table: dict[Fraction, list[int]] = {}
    zero_full_sum = 0
    for values in pair_term_values(f, a):
        total = sum(values)
        entry = table.setdefault(total, [0, 0])
        if has_zero_proper_subsum(values):
            entry[1] += 1
        else:
            entry[0] += 1
            zero_full_sum += total == 0
    return [(v, c, d) for v, (c, d) in sorted(table.items())], zero_full_sum


def proper_support_subsets(f) -> Iterator[tuple[tuple[int, int], ...]]:
    """All 2^|S| - 2 nonempty proper subsets of the support, in mask order."""
    support = f.support
    if len(support) < 2:
        raise ValueError("subsum operations need at least two support terms")
    m = len(support)
    for mask in range(1, (1 << m) - 1):
        yield tuple(support[b] for b in range(m) if mask >> b & 1)


def vanishing_subsets(f, x, y) -> tuple[tuple[tuple[int, int], ...], ...]:
    """All nonempty proper support subsets whose partial sum is 0 at (x, y)."""
    return tuple(
        subset
        for subset in proper_support_subsets(f)
        if sum(f.terms[(i, j)] * x**i * y**j for i, j in subset) == 0
    )


def gauss_rank(matrix) -> int:
    """Rank over the rationals by plain Gaussian elimination."""
    rows = [[Fraction(v) for v in row] for row in matrix]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][col]
        for i in range(rank + 1, len(rows)):
            if rows[i][col] != 0:
                scale = rows[i][col] / lead
                rows[i] = [a - scale * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def box_members(g, t) -> list[tuple[tuple[int, ...], Fraction]]:
    """(exponent vector, Fraction product) of the t-dilated box, vectors in lexicographic order."""
    return [
        (mu, math.prod((gen**e for gen, e in zip(g.generators, mu)), start=Fraction(1)))
        for mu in itertools.product(*[range(t * h) for h in g.dims])
    ]


def injective(f, g) -> bool:
    """Is (x, y) -> (x^i y^j, x^i' y^j') injective on the box G x G?

    (i, j) and (i', j') are f's first non-parallel support exponents. The map is
    injective when no two pairs (x, y) of box members share their pair of values.
    """
    (i, j), (i2, j2) = non_parallel_witnesses(f)
    members = box_members(g, 1)
    seen = {}
    for mu, x in members:
        for nu, y in members:
            pair_of_values = (x**i * y**j, x**i2 * y**j2)
            if seen.setdefault(pair_of_values, (mu, nu)) != (mu, nu):
                return False
    return True
