"""Finite rational sets and the exact pair-space aggregation engine.

A RationalSet is its ascending int keys k over one scale, the lcm of its denominators:
its constructor is the one normalizer, its values are k/scale, and only iterating it
builds Fractions. Product sets, images, multiplicity histograms, energies and sweep
ladders all walk the pair space through one integer kernel. ``_columns`` is every walk's
one preparation: it checks the pair budget, reads f over one scale (``_clear``) and
prepares each term column of the int keys scale*f(x, y), scale > 0, once; ``_rows``
streams the columns over an x-range and a y-range through C-level iterators. Only a
column of both x and y multiplies per pair, and a walk that merges f's terms by powers
of y takes f or its transpose, whichever has fewer such columns. Walks over A x A take
A's own keys; ``image_keys`` reads its two sets over their lcm and sorts the keys the
CLI prints. ``ladder_sizes`` counts |AA| and |f(A,A)|, preparing nested sets once and
walking shells of new pairs as slices (an f equal to its transpose skips mirrored ones);
``_key_counts`` keeps multiplicities. Dedup, counts, energies, sort order and vanishing
subsums are exact on ints; energies cost O(|A|^2) pair work, not O(|A|^4).
"""

from collections import Counter
from collections.abc import Collection, Iterable, Iterator, Mapping, Sequence
from fractions import Fraction
from itertools import chain, pairwise, product, repeat, starmap
from math import gcd, isqrt, lcm
from operator import add, mul
from pathlib import Path
from typing import NamedTuple

from .polynomials import BivariatePoly
from .rational import RationalParseError, parse_ratio

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


def _gcd(scale: int, keys: Collection[int]) -> int:
    """gcd(scale, *keys), folded over the keys only when g = gcd(scale, sum(keys)) != 1.

    Exact: the gcd of scale and the keys divides their sum, so it divides g."""
    g = gcd(scale, sum(keys))
    return g if g == 1 else gcd(g, *keys)


class RationalSet:
    """A finite set of rationals: the values key/scale of strictly increasing keys.

    ``RationalSet(scale, keys)`` takes any scale > 0 and any nonempty iterable of int
    keys, dedups them, divides out gcd(scale, *keys) and sorts them, so scale is the lcm
    of the values' denominators and every set has exactly one form.
    """

    def __init__(self, scale: int, keys: Iterable[int]) -> None:
        if scale < 1:
            raise ValueError("the scale must be positive")
        distinct = set(keys)
        if not distinct:
            raise ValueError("a set must contain at least one element")
        g = _gcd(scale, distinct)
        self.__dict__.update(scale=scale // g, keys=tuple(sorted([k // g for k in distinct])))

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

    def __len__(self) -> int:
        return len(self.keys)

    def __iter__(self) -> Iterator[Fraction]:
        """The values as Fractions, ascending, each built as it is reached."""
        return map(Fraction, self.keys, repeat(self.scale))


def make_set(values: Iterable[Fraction | int]) -> RationalSet:
    """Sort and deduplicate exact values into a RationalSet, on int keys."""
    out = []
    for value in values:
        if isinstance(value, float):
            raise TypeError("floats are not exact; parse a decimal string instead")
        out.append(value if type(value) is Fraction else Fraction(value))
    d = lcm(*[v.denominator for v in out])
    return RationalSet(d, [v.numerator * (d // v.denominator) for v in out])


def read_set_file(path: str | Path) -> RationalSet:
    """Read a set file: one element per line, '#' comments and blanks ignored.

    Its literals p/q become keys p * (d // q) over d = lcm(q, ...): no Fraction is built."""
    ratios = []
    with open(path, "r", encoding="utf-8-sig") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                ratios.append(parse_ratio(line))
            except RationalParseError as exc:
                raise RationalParseError(f"{path}, line {lineno}: {exc}") from exc
    if not ratios:
        raise ValueError(f"{path}: no elements found")
    d = lcm(*[q for _, q in ratios])
    return RationalSet(d, [p * (d // q) for p, q in ratios])


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


def _columns(
    f: BivariatePoly, d: int, xs: Sequence[int], ys: Sequence[int], max_pairs: int,
    what: str, merge: bool = False,
) -> tuple[int, list[tuple[str, Sequence[int], list[int]]]]:
    """The kernel's one preparation of a walk of f over xs x ys, keys over one scale d.

    It checks the budget of len(xs) * len(ys) pairs under what, clears f over d, and
    returns the scale of f's int keys and, per group of f's terms, its kind and two lists.
    Kind "x" is the group of Y^0: its coefficient sum of C*X^i over xs, and Y^0 over ys.
    Kind "y" is a lone C*Y^j, j > 0: xs, and C*Y^j over ys. Kind "xy" is any other: the
    sum, and Y^j over ys. With merge, a group is a power of Y, and f's terms are transposed
    (C, i, j) -> (C, j, i), with xs and ys swapped, if that leaves fewer "xy" groups (ties:
    fewer groups): f^T(y, x) = f(x, y) keeps the values and their counts."""
    check_budget(len(xs) * len(ys), max_pairs, what)
    scale, cleared = _clear(f, d)
    cost = [(len({k[t] for k in cleared if k[1] and k[2]}), len({k[t] for k in cleared}))
            for t in (1, 2)]  # grouped by powers of X (t = 1), then of Y (t = 2)
    if merge and cost[0] < cost[1]:
        cleared, xs, ys = [(c, j, i) for c, i, j in cleared], ys, xs
    groups: dict[tuple[int, ...], list[tuple[int, int]]] = {}
    for c, i, j in cleared:
        groups.setdefault((j,) if merge else (i, j), []).append((c, i))
    y_pows = {j: [y**j for y in ys] for j in {j for _, _, j in cleared}}
    return scale, [
        ("y", xs, [ts[0][0] * p for p in y_pows[j]]) if j and not any(i for _, i in ts)
        else ("xy" if j else "x", list(map(sum, zip(*[[c * x**i for x in xs] for c, i in ts]))),
              y_pows[j])
        for (*_, j), ts in groups.items()]


def _rows(columns: list[tuple[str, Sequence[int], list[int]]], xr: slice = slice(None),
          yr: slice = slice(None)) -> list[Iterator[int]]:
    """The kernel's stream: each prepared column over the x-range xr x the y-range yr,
    x-major, a value per pair and no Python code run per pair; ``_keys`` adds them. Only
    "xy" multiplies per pair; "x" repeats each value over yr and "y" its row over xr."""
    return [starmap(mul, product(cx[xr], py[yr])) if kind == "xy" else
            chain.from_iterable(map(repeat, cx[xr], repeat(len(py[yr])))) if kind == "x" else
            chain.from_iterable(repeat(py[yr], len(cx[xr]))) for kind, cx, py in columns]


def _keys(columns: list[Iterable[int]]) -> Iterable[int]:
    keys = columns[0]
    for column in columns[1:]:
        keys = map(add, keys, column)
    return keys


def _key_counts(f: BivariatePoly, a: RationalSet, max_pairs: int) -> tuple[int, Counter]:
    """The scale of f's int keys over a x a and the number of pairs behind each key."""
    scale, columns = _columns(f, a.scale, a.keys, a.keys, max_pairs, "pair histogram", True)
    return scale, Counter(_keys(_rows(columns)))


def ladder_sizes(
    f: BivariatePoly, ladder: list[RationalSet], max_pairs: int = DEFAULT_MAX_PAIRS,
    what: str = "pair histogram",
) -> list[int]:
    """|f(A,A)| for each set A of a ladder, from one walk when the sets nest.

    The last set's keys over its scale d are then ordered by the set they join, prepared
    once, and walked in shells: if set n holds keys [0, hi) and set n-1 keys [0, lo), its
    shell is new x all, [lo, hi) x [0, hi), then old x new, [0, lo) x [lo, hi), unless f's
    terms equal their transpose and so give old x new's values already. The key
    map is injective, so a set's count is the key set's size after its shell. A ladder
    that does not nest is walked one set at a time.
    """
    d = ladder[-1].scale
    held = [{k * (d // a.scale) for k in a.keys} for a in ladder]
    if any(d % a.scale for a in ladder) or not all(map(set.issubset, held, held[1:])):
        return [ladder_sizes(f, [a], max_pairs, what)[0] for a in ladder]
    mirrored = {(j, i): c for (i, j), c in f.terms.items()} != f.terms
    order = [k for old, keys in zip([set()] + held, held) for k in keys - old]
    columns = _columns(f, d, order, order, max_pairs, what, True)[1]
    seen: set[int] = set()
    sizes = []
    for lo, hi in pairwise([0, *map(len, held)]):
        seen.update(_keys(_rows(columns, slice(lo, hi), slice(hi))))
        if mirrored:
            seen.update(_keys(_rows(columns, slice(lo), slice(lo, hi))))
        sizes.append(len(seen))
    return sizes


def productset(
    a: RationalSet, b: RationalSet, max_pairs: int = DEFAULT_MAX_PAIRS
) -> RationalSet:
    """{x * y : x in a, y in b}, deduplicated."""
    return image_set(PRODUCT, a, b, max_pairs)


def productset_size(a: RationalSet, max_pairs: int = DEFAULT_MAX_PAIRS) -> int:
    """|AA|, counted on int keys: builds no Fraction and sorts nothing."""
    return ladder_sizes(PRODUCT, [a], max_pairs, "product set")[0]


def doubling_ratio(a: RationalSet, max_pairs: int = DEFAULT_MAX_PAIRS) -> Fraction:
    """|AA| / |A|, exactly; small values witness multiplicative structure."""
    return Fraction(productset_size(a, max_pairs), len(a))


def image_keys(
    f: BivariatePoly, a: RationalSet, b: RationalSet, max_pairs: int
) -> tuple[int, list[int]]:
    """The scale and the ascending distinct int keys of f over a x b: f(a, b) is key/scale.
    A dict collects them, keeping the x-major runs of the walk, which speed the sort."""
    d = lcm(a.scale, b.scale)
    xs, ys = [x * (d // a.scale) for x in a.keys], [y * (d // b.scale) for y in b.keys]
    scale, columns = _columns(f, d, xs, ys, max_pairs, "image enumeration", True)
    return scale, sorted(dict.fromkeys(_keys(_rows(columns))))


def image_set(
    f: BivariatePoly,
    a: RationalSet,
    b: RationalSet | None = None,
    max_pairs: int = DEFAULT_MAX_PAIRS,
) -> RationalSet:
    """The set of distinct values f(x, y) over a x b (b defaults to a)."""
    return RationalSet(*image_keys(f, a, a if b is None else b, max_pairs))


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
    scale, counts = _key_counts(f, a, max_pairs)
    return MultiplicityHistogram(
        {Fraction(k, scale): m for k, m in sorted(counts.items())}
    )


def value_multiplicities(
    f: BivariatePoly, a: RationalSet, max_pairs: int = DEFAULT_MAX_PAIRS
) -> list[int]:
    """The pairs behind each value of f(A,A), unordered; its length is |f(A,A)|.

    Count-only: builds no Fraction and sorts nothing."""
    return list(_key_counts(f, a, max_pairs)[1].values())


def energy(f: BivariatePoly, a: RationalSet, max_pairs: int = DEFAULT_MAX_PAIRS) -> int:
    """Number of quadruples (x, y, x', y') in a^4 with f(x, y) = f(x', y').

    Computed as the sum of squared multiplicities, never by walking a^4.
    """
    counts = value_multiplicities(f, a, max_pairs)
    return sum(map(mul, counts, counts))
