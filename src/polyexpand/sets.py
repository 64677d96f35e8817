"""Finite rational sets and the exact pair-space aggregation engine.

Sumsets, product sets, polynomial image sets, multiplicity histograms and
polynomial energies all walk the |A| x |B| pair space through one integer
kernel (``_pair_rows``). Clearing denominators once turns every value f(x, y)
into an int key scale*f(x, y) with a fixed scale > 0, so dedup, counts,
energies, sort order and vanishing subsums are exact on plain ints; Fractions
are built only for the distinct values a caller asks for. Energies cost
O(|A|^2) pair work rather than O(|A|^4) quadruple work, and nothing here
touches floating point.
"""

from __future__ import annotations

import bisect
from collections import Counter
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import add
from pathlib import Path

from .polynomials import BivariatePoly
from .rational import RationalParseError, format_rational, parse_rational

DEFAULT_MAX_PAIRS = 100_000_000


class CapExceeded(RuntimeError):
    """An enumeration would exceed the configured resource budget."""


def check_budget(
    count: int, cap: int, what: str, unit: str = "pairs", flag: str | None = "--max-pairs"
) -> None:
    """Raise CapExceeded, naming the budget, the request and the cap, if count > cap."""
    if count > cap:
        remedy = f"raise it with {flag}" if flag else "this cap is fixed"
        raise CapExceeded(f"{unit[:-1]} budget exceeded: {what} needs {count} {unit}, "
                          f"above the cap of {cap}; {remedy}")


@dataclass(frozen=True)
class RationalSet:
    """Strictly increasing tuple of distinct exact rationals."""

    elements: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if not self.elements:
            raise ValueError("a set must contain at least one element")
        for a, b in zip(self.elements, self.elements[1:]):
            if not a < b:
                raise ValueError("elements must be strictly increasing and distinct")

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.elements)

    def __contains__(self, value: object) -> bool:
        index = bisect.bisect_left(self.elements, value)
        return index < len(self.elements) and self.elements[index] == value

    def __str__(self) -> str:
        return "{" + ", ".join(format_rational(v) for v in self.elements) + "}"


def make_set(values: Iterable[Fraction | int]) -> RationalSet:
    """Sort and deduplicate exact values into a RationalSet."""
    out = set()
    for value in values:
        if isinstance(value, float):
            raise TypeError("floats are not exact; parse a decimal string instead")
        out.add(Fraction(value))
    if not out:
        raise ValueError("cannot build a set from no values")
    return RationalSet(tuple(sorted(out)))


def read_set_file(path: str | Path) -> RationalSet:
    """Read a set file: one element per line, '#' comments and blanks ignored."""
    values = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                values.append(parse_rational(line))
            except RationalParseError as exc:
                raise RationalParseError(f"{path}, line {lineno}: {exc}") from exc
    if not values:
        raise ValueError(f"{path}: no elements found")
    return make_set(values)


SUM = BivariatePoly({(1, 0): 1, (0, 1): 1})
PRODUCT = BivariatePoly({(1, 1): 1})


def _pair_rows(
    f: BivariatePoly, a: RationalSet, b: RationalSet, max_pairs: int, what: str
) -> tuple[int, Iterator[list[list[int]]]]:
    """The scale of f's int keys and, per x in a, its int term columns over b.

    With D the lcm of the denominators of a and b and L that of f's
    coefficients, F(X, Y) = L*D^deg*f(X/D, Y/D) has the integer coefficients
    C = L*c*D^(deg-i-j). Column k of x's row holds C_k*X^i_k*Y^j_k for every
    y in b, with X = D*x and Y = D*y, so the columns sum to scale*f(x, y) for
    scale = L*D^deg > 0, and v -> scale*v is injective and increasing. The
    budget is checked first; the zero polynomial has one all-zero column.
    """
    check_budget(len(a) * len(b), max_pairs, what)
    terms = f.terms or {(0, 0): Fraction(0)}
    degree = max(i + j for i, j in terms)
    d = lcm(*(v.denominator for v in a), *(v.denominator for v in b))
    coeff_lcm = lcm(*(c.denominator for c in terms.values()))
    cleared = [
        (c.numerator * (coeff_lcm // c.denominator) * d ** (degree - i - j), i, j)
        for (i, j), c in terms.items()
    ]
    ys = [v.numerator * (d // v.denominator) for v in b]
    y_pows = {j: [y**j for y in ys] for j in {j for _, _, j in cleared}}

    def rows() -> Iterator[list[list[int]]]:
        for x in a:
            big_x = x.numerator * (d // x.denominator)
            yield [[c * big_x**i * p for p in y_pows[j]] for c, i, j in cleared]

    return coeff_lcm * d**degree, rows()


def _key_counts(
    f: BivariatePoly, a: RationalSet, b: RationalSet, max_pairs: int, what: str
) -> tuple[int, Counter]:
    """The scale of f's int keys and the number of pairs behind each key."""
    scale, rows = _pair_rows(f, a, b, max_pairs, what)
    counts: Counter = Counter()
    for columns in rows:
        keys = columns[0]
        for column in columns[1:]:
            keys = list(map(add, keys, column))
        counts.update(keys)
    return scale, counts


def _values(scale: int, keys: Iterable[int]) -> RationalSet:
    """The values key/scale, ascending. Distinct keys over one positive scale
    give strictly increasing values, so the set is built without the check."""
    out = object.__new__(RationalSet)
    object.__setattr__(out, "elements", tuple(Fraction(k, scale) for k in sorted(keys)))
    return out


def sumset(
    a: RationalSet, b: RationalSet, max_pairs: int = DEFAULT_MAX_PAIRS
) -> RationalSet:
    """{x + y : x in a, y in b}, deduplicated."""
    return _values(*_key_counts(SUM, a, b, max_pairs, "sumset"))


def productset(
    a: RationalSet, b: RationalSet, max_pairs: int = DEFAULT_MAX_PAIRS
) -> RationalSet:
    """{x * y : x in a, y in b}, deduplicated."""
    return _values(*_key_counts(PRODUCT, a, b, max_pairs, "product set"))


def productset_size(a: RationalSet, max_pairs: int = DEFAULT_MAX_PAIRS) -> int:
    """|AA|, counted on int keys: builds no Fraction and sorts nothing."""
    return len(_key_counts(PRODUCT, a, a, max_pairs, "product set")[1])


def doubling_ratio(a: RationalSet, max_pairs: int = DEFAULT_MAX_PAIRS) -> Fraction:
    """|AA| / |A|, exactly; small values witness multiplicative structure."""
    return Fraction(productset_size(a, max_pairs), len(a))


def image_set(
    f: BivariatePoly,
    a: RationalSet,
    b: RationalSet | None = None,
    max_pairs: int = DEFAULT_MAX_PAIRS,
) -> RationalSet:
    """The set of distinct values f(x, y) over a x b (b defaults to a)."""
    b = a if b is None else b
    return _values(*_key_counts(f, a, b, max_pairs, "image enumeration"))


@dataclass(frozen=True)
class MultiplicityHistogram:
    """Map from each image value to its number of representing pairs.

    Keys ascend and are exactly the image set; counts sum to |A| * |A| for
    the generating set.
    """

    counts: Mapping[Fraction, int]


def multiplicity_histogram(
    f: BivariatePoly, a: RationalSet, max_pairs: int = DEFAULT_MAX_PAIRS
) -> MultiplicityHistogram:
    """Count, for every value v, the pairs (x, y) in a x a with f(x, y) = v."""
    scale, counts = _key_counts(f, a, a, max_pairs, "pair histogram")
    return MultiplicityHistogram(
        {Fraction(k, scale): m for k, m in sorted(counts.items())}
    )


def value_multiplicities(
    f: BivariatePoly, a: RationalSet, max_pairs: int = DEFAULT_MAX_PAIRS
) -> list[int]:
    """The pairs behind each value of f(A,A), unordered; its length is |f(A,A)|.

    Count-only: builds no Fraction and sorts nothing."""
    return list(_key_counts(f, a, a, max_pairs, "pair histogram")[1].values())


def energy(f: BivariatePoly, a: RationalSet, max_pairs: int = DEFAULT_MAX_PAIRS) -> int:
    """Number of quadruples (x, y, x', y') in a^4 with f(x, y) = f(x', y').

    Computed as the sum of squared multiplicities, never by walking a^4.
    """
    return sum(m * m for m in value_multiplicities(f, a, max_pairs))
