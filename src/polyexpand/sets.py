"""Finite rational sets and the exact pair-space aggregation engine.

A RationalSet is its ascending int keys k over one scale, the lcm of its
denominators: its values are k/scale, and Fractions are built only on demand
(``elements``). Sumsets, product sets, polynomial image sets, multiplicity
histograms, polynomial energies and sweep ladders all walk the pair space
through one integer kernel: ``_clear`` and ``_rows`` read keys over one scale
and turn every value f(x, y) into an int key scale*f(x, y) with a fixed scale
> 0. ``_pair_rows`` walks |A| x |B|; ``ladder_sizes`` walks a ladder of nested
sets once, in shells of new pairs. So dedup, counts, energies, sort order and
vanishing subsums are exact on plain ints, and ``image_keys`` returns sorted
keys that the CLI prints without a Fraction. Energies cost O(|A|^2) pair work
rather than O(|A|^4) quadruple work, and nothing here touches floating point.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Collection, Iterable, Iterator, Mapping
from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import gcd, isqrt, lcm
from operator import add, lt
from pathlib import Path
from typing import NamedTuple

from .polynomials import BivariatePoly
from .rational import RationalParseError, format_key, parse_rational

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


def check_elements(count: int, max_pairs: int, what: str) -> None:
    """Hold a generated set of count elements to max(1, isqrt(max_pairs)) elements.

    A set of n elements has n^2 pairs, so its cap is the square root of the pair budget.
    """
    check_budget(count, max(1, isqrt(max_pairs)), what, "elements")


class RationalSet:
    """A finite set of rationals: the values key/scale of strictly increasing keys.

    scale > 0 is the lcm of the values' denominators, so gcd(scale, *keys) == 1
    and every set has exactly one form; ``from_keys`` brings any keys to it.
    """

    def __init__(self, scale: int, keys: tuple[int, ...]) -> None:
        if not keys:
            raise ValueError("a set must contain at least one element")
        if scale < 1 or gcd(scale, *keys) != 1:
            raise ValueError("the scale must be the lcm of the denominators")
        if not all(map(lt, keys, keys[1:])):
            raise ValueError("keys must be strictly increasing and distinct")
        self.__dict__.update(scale=scale, keys=keys)

    @classmethod
    def from_keys(cls, scale: int, keys: Iterable[int]) -> RationalSet:
        """The set of the values k/scale for scale > 0: dedups, reduces by the gcd, sorts."""
        distinct = set(keys)
        g = gcd(scale, *distinct)
        return cls(scale // g, tuple(sorted([k // g for k in distinct])))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.scale, self.keys) == (other.scale, other.keys)

    def __hash__(self) -> int:
        return hash((self.scale, self.keys))

    def __repr__(self) -> str:
        return f"RationalSet(scale={self.scale!r}, keys={self.keys!r})"

    @cached_property
    def elements(self) -> tuple[Fraction, ...]:
        return tuple([Fraction(k, self.scale) for k in self.keys])

    def __len__(self) -> int:
        return len(self.keys)

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.elements)

    def __str__(self) -> str:
        return "{" + ", ".join(format_key(k, self.scale) for k in self.keys) + "}"


def make_set(values: Iterable[Fraction | int]) -> RationalSet:
    """Sort and deduplicate exact values into a RationalSet, on int keys."""
    out = []
    for value in values:
        if isinstance(value, float):
            raise TypeError("floats are not exact; parse a decimal string instead")
        out.append(value if type(value) is Fraction else Fraction(value))
    d = lcm(*[v.denominator for v in out])
    return RationalSet.from_keys(d, [v.numerator * (d // v.denominator) for v in out])


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


def _clear(f: BivariatePoly, d: int) -> tuple[int, list[tuple[int, int, int]]]:
    """The scale L*d^deg of f's int keys over d, and f's terms (C, i, j) with int C.

    With L the lcm of f's coefficient denominators, C = L*c*d^(deg-i-j), so the terms
    at X = d*x, Y = d*y sum to scale*f(x, y); the zero polynomial has one zero term."""
    terms = f.terms or {(0, 0): Fraction(0)}
    degree = max(i + j for i, j in terms)
    ratios = {ij: c.as_integer_ratio() for ij, c in terms.items()}
    coeff_lcm = lcm(*(q for _, q in ratios.values()))
    cleared = [
        (p * (coeff_lcm // q) * d ** (degree - i - j), i, j)
        for (i, j), (p, q) in ratios.items()
    ]
    return coeff_lcm * d**degree, cleared


def _rows(
    cleared: list[tuple[int, int, int]], xs: Collection[int], ys: Collection[int],
    merge: bool = False,
) -> Iterator[list[list[int]]]:
    """Per X in xs, its term columns C*X^i*Y^j over ys, which sum to the keys.

    With merge, the terms that share a power of Y share one column."""
    y_pows = {j: [y**j for y in ys] for j in {j for _, _, j in cleared}}
    if merge:  # grouped once per call, not per x
        groups = [(j, [(c, i) for c, i, jk in cleared if jk == j]) for j in y_pows]
        for big_x in xs:
            yield [list(map(sum([c * big_x**i for c, i in terms]).__mul__, y_pows[j]))
                   for j, terms in groups]
    else:
        for big_x in xs:
            yield [list(map((c * big_x**i).__mul__, y_pows[j])) for c, i, j in cleared]


def _pair_rows(
    f: BivariatePoly, a: RationalSet, b: RationalSet, max_pairs: int, what: str,
    merge: bool = False,
) -> tuple[int, Iterator[list[list[int]]]]:
    """The scale of f's int keys and, per x in a, its ``_rows`` over b.

    Both sets are read over D = lcm(a.scale, b.scale); the budget is checked first."""
    check_budget(len(a) * len(b), max_pairs, what)
    d = lcm(a.scale, b.scale)
    scale, cleared = _clear(f, d)
    xs = [x * (d // a.scale) for x in a.keys]
    ys = [y * (d // b.scale) for y in b.keys]
    return scale, _rows(cleared, xs, ys, merge)


def _keys(columns: list[list[int]]) -> list[int]:
    keys = columns[0]
    for column in columns[1:]:
        keys = list(map(add, keys, column))
    return keys


def _key_counts(
    f: BivariatePoly, a: RationalSet, b: RationalSet, max_pairs: int, what: str
) -> tuple[int, Counter]:
    """The scale of f's int keys and the number of pairs behind each key."""
    scale, rows = _pair_rows(f, a, b, max_pairs, what, merge=True)
    counts: Counter = Counter()
    for columns in rows:
        counts.update(_keys(columns))
    return scale, counts


def ladder_sizes(
    f: BivariatePoly, ladder: list[RationalSet], max_pairs: int = DEFAULT_MAX_PAIRS
) -> list[tuple[int, int]]:
    """(|f(A,A)|, |AA|) for each set A of a ladder, from one walk when the sets nest.

    The last set's pairs are then walked over its scale d in shells: shell n is
    the pairs of set n that are not pairs of set n-1, as rows of its new keys X,
    f(X, Y) over set n and f(Y, X) over set n-1. The key maps are injective, so
    a set's counts are the key set sizes after its shell. A ladder that does
    not nest is walked one set at a time.
    """
    d = ladder[-1].scale
    held = [{k * (d // a.scale) for k in a.keys} for a in ladder]
    if any(d % a.scale for a in ladder) or not all(map(set.issubset, held, held[1:])):
        return [ladder_sizes(f, [a], max_pairs)[0] for a in ladder]
    check_budget(len(held[-1]) ** 2, max_pairs, "pair histogram")
    sizes = []
    for g in (f, PRODUCT):
        cleared = _clear(g, d)[1]
        flip = [(c, j, i) for c, i, j in cleared]
        seen: set[int] = set()
        sizes.append([])
        for old, keys in zip([set()] + held, held):
            new = keys - old
            for columns in chain(_rows(cleared, new, keys, True), _rows(flip, new, old, True)):
                seen.update(_keys(columns))
            sizes[-1].append(len(seen))
    return list(zip(*sizes))


def sumset(
    a: RationalSet, b: RationalSet, max_pairs: int = DEFAULT_MAX_PAIRS
) -> RationalSet:
    """{x + y : x in a, y in b}, deduplicated."""
    return image_set(SUM, a, b, max_pairs)


def productset(
    a: RationalSet, b: RationalSet, max_pairs: int = DEFAULT_MAX_PAIRS
) -> RationalSet:
    """{x * y : x in a, y in b}, deduplicated."""
    return image_set(PRODUCT, a, b, max_pairs)


def productset_size(a: RationalSet, max_pairs: int = DEFAULT_MAX_PAIRS) -> int:
    """|AA|, counted on int keys: builds no Fraction and sorts nothing."""
    return len(_key_counts(PRODUCT, a, a, max_pairs, "product set")[1])


def doubling_ratio(a: RationalSet, max_pairs: int = DEFAULT_MAX_PAIRS) -> Fraction:
    """|AA| / |A|, exactly; small values witness multiplicative structure."""
    return Fraction(productset_size(a, max_pairs), len(a))


def image_keys(
    f: BivariatePoly, a: RationalSet, b: RationalSet, max_pairs: int
) -> tuple[int, list[int]]:
    """The scale and the ascending distinct int keys of f over a x b: f(a, b) is key/scale."""
    scale, counts = _key_counts(f, a, b, max_pairs, "image enumeration")
    return scale, sorted(counts)


def image_set(
    f: BivariatePoly,
    a: RationalSet,
    b: RationalSet | None = None,
    max_pairs: int = DEFAULT_MAX_PAIRS,
) -> RationalSet:
    """The set of distinct values f(x, y) over a x b (b defaults to a)."""
    return RationalSet.from_keys(*image_keys(f, a, a if b is None else b, max_pairs))


class MultiplicityHistogram(NamedTuple):
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
