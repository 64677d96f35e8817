"""Sparse bivariate polynomials over the rationals.

A polynomial is a map from exponent pairs (i, j) to nonzero rational
coefficients, kept in graded-lexicographic order on (i + j, i) so printing
and iteration are deterministic. The text grammar (whitespace-insensitive):

    poly   := term (("+"|"-") term)*
    term   := coef ("*" factor)* | factor ("*" factor)*
    factor := ("x"|"y") ("^" uint)?
    coef   := uint ("/" uint)? | decimal

A uint is a run of decimal digits (str.isdecimal). Three regular
expressions match whitespace, coefs and factors; each error carries its
position, and rational.parse_ratio reads each literal. A leading "-"
negates the first term; a missing exponent means 1. Printing emits text
this grammar accepts, so parse(str(f)) == f.

Beyond parsing and printing, this module decides whether a polynomial is
a univariate polynomial composed with a single monomial, f = g(x^a y^b),
which holds exactly when no two support exponents are non-parallel, and
provides the vanishing-subsum machinery: a proper subsum of f at a
point (x, y) is the sum of the term values over a nonempty proper subset
of the support.
"""

from __future__ import annotations

import itertools
import re
from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction
from itertools import accumulate, compress
from math import gcd
from operator import gt, neg
from types import MappingProxyType
from typing import NamedTuple

from .rational import RationalParseError, format_rational, parse_ratio

ExponentPair = tuple[int, int]


class PolyParseError(ValueError):
    """Polynomial text that does not match the expression grammar."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position


def _grlex_key(pair: ExponentPair) -> tuple[int, int]:
    i, j = pair
    return (i + j, i)


def format_monomial(pair: ExponentPair) -> str:
    """Render x^a y^b, e.g. (1, 1) -> "x*y", (0, 0) -> "1"."""
    i, j = pair
    factors = []
    if i:
        factors.append("x" if i == 1 else f"x^{i}")
    if j:
        factors.append("y" if j == 1 else f"y^{j}")
    return "*".join(factors) if factors else "1"


def _join_terms(terms: Iterable[tuple[str, Fraction]]) -> str:
    """Render (monomial text, coefficient) pairs as "x^2 - 3/2*y + 1", or "0"."""
    parts = []
    for body, coefficient in terms:
        magnitude = abs(coefficient)
        if body == "1":
            term = format_rational(magnitude)
        else:
            term = body if magnitude == 1 else f"{format_rational(magnitude)}*{body}"
        if parts:
            parts.append(f"- {term}" if coefficient < 0 else f"+ {term}")
        else:
            parts.append(f"-{term}" if coefficient < 0 else term)
    return " ".join(parts) or "0"


class BivariatePoly:
    """Sparse polynomial in x and y with exact rational coefficients."""

    __slots__ = ("_terms",)

    def __init__(
        self,
        terms: Mapping[ExponentPair, Fraction | int]
        | Iterable[tuple[ExponentPair, Fraction | int]],
    ):
        items = terms.items() if isinstance(terms, Mapping) else terms
        merged: dict[ExponentPair, Fraction] = {}
        for (i, j), coefficient in items:
            if i < 0 or j < 0:
                raise ValueError(f"negative exponent in ({i}, {j})")
            key = (int(i), int(j))
            value = coefficient if type(coefficient) is Fraction else Fraction(coefficient)
            merged[key] = merged[key] + value if key in merged else value
        self._terms = {
            key: value
            for key, value in sorted(merged.items(), key=lambda kv: _grlex_key(kv[0]))
            if value != 0
        }

    @property
    def terms(self) -> Mapping[ExponentPair, Fraction]:
        return MappingProxyType(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def support(self) -> tuple[ExponentPair, ...]:
        """Exponent pairs with nonzero coefficient, in graded-lex order."""
        if not self._terms:
            raise ValueError("the zero polynomial has empty support")
        return tuple(self._terms)

    @property
    def degree(self) -> int:
        if not self._terms:
            raise ValueError("the zero polynomial has no degree")
        return max(i + j for i, j in self._terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BivariatePoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __str__(self) -> str:
        return _join_terms((format_monomial(p), c) for p, c in self._terms.items())

    def __repr__(self) -> str:
        return f"BivariatePoly({str(self)!r})"


class UnivariatePoly:
    """Dense univariate polynomial; coefficients[k] multiplies t^k."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: Iterable[Fraction | int]):
        coeffs = [Fraction(c) for c in coefficients]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.coefficients: tuple[Fraction, ...] = tuple(coeffs)

    @property
    def is_zero(self) -> bool:
        return not self.coefficients

    @property
    def degree(self) -> int:
        if not self.coefficients:
            raise ValueError("the zero polynomial has no degree")
        return len(self.coefficients) - 1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UnivariatePoly):
            return NotImplemented
        return self.coefficients == other.coefficients

    def __hash__(self) -> int:
        return hash(self.coefficients)

    def __str__(self) -> str:
        powers = ("1" if k == 0 else "t" if k == 1 else f"t^{k}" for k in itertools.count())
        return _join_terms((t, c) for t, c in zip(powers, self.coefficients) if c)

    def __repr__(self) -> str:
        return f"UnivariatePoly({str(self)!r})"


class MonomialDecomposition(NamedTuple):
    """Witness that f = g(x^a y^b); trivial marks constants and single monomials."""

    g: UnivariatePoly
    monomial: ExponentPair
    trivial: bool


# Not re.ASCII: \s is str.isspace and \d is str.isdecimal.
_SPACE = re.compile(r"\s*")
_COEF = re.compile(r"(\d*)(?:\.(\d*)|/(\d*))?")
_FACTOR = re.compile(r"([xy])(?:\^(\d*))?")


def _literal(text: str, start: int, end: int) -> tuple[int, int]:
    try:
        return parse_ratio(text[start:end])
    except RationalParseError as exc:
        raise PolyParseError(str(exc), start) from None


def parse_poly(text: str) -> BivariatePoly:
    """Parse expression text into canonical sparse form (like terms merged)."""
    negate = text.lstrip().startswith("-")
    pos = text.find("-") + 1 if negate else 0
    terms: list[tuple[ExponentPair, Fraction]] = []
    while True:
        pos = _SPACE.match(text, pos).end()
        coef = _COEF.match(text, pos)
        digits, decimals, denominator = coef.groups()
        # missing: the error if the next factor is absent; None after a coef.
        if digits or decimals is not None:
            if decimals == digits == "":
                raise PolyParseError("expected digits in decimal", coef.end())
            if denominator is not None and not denominator.strip("0"):
                message = "zero denominator" if denominator else "expected a denominator"
                raise PolyParseError(message, coef.end())
            (p, q), missing = _literal(text, pos, coef.end()), None
            pos = coef.end()
        else:
            (p, q), missing = (1, 1), "expected a term"
        exponents = [0, 0]
        while True:
            if missing:
                factor = _FACTOR.match(text, pos)
                if not factor:
                    if text[pos : pos + 1].isalpha():
                        missing = f"unknown variable {text[pos]!r} (only x and y are allowed)"
                    raise PolyParseError(missing, pos)
                variable, power = factor.groups()
                pos = factor.end()
                if power == "":
                    raise PolyParseError("exponent must be an unsigned integer", pos)
                exponent = 1 if power is None else _literal(text, factor.start(2), pos)[0]
                exponents["xy".index(variable)] += exponent
            pos = _SPACE.match(text, pos).end()
            if not text.startswith("*", pos):
                break
            pos = _SPACE.match(text, pos + 1).end()
            missing = "expected a variable factor after '*'"
        terms.append(((exponents[0], exponents[1]), Fraction(-p if negate else p, q)))
        if pos == len(text):
            return BivariatePoly(terms)
        if text[pos] not in "+-":
            raise PolyParseError("expected '+' or '-'", pos)
        negate = text[pos] == "-"
        pos += 1


def classify_monomial_composition(f: BivariatePoly) -> MonomialDecomposition | None:
    """Decide whether f = g(x^a y^b) for a univariate g and single monomial.

    Returns None exactly when non_parallel_witnesses(f) finds a pair.
    Otherwise every support vector is a multiple of one direction, and the
    monomial (a, b) = (gcd of the x exponents, gcd of the y exponents) is
    maximal: the term (i, j) = k*(a, b) is g's t^k term, the degrees of
    g's nonconstant terms have gcd 1, and g(x^a y^b) reproduces f term for
    term. Constants and single monomials decompose trivially and carry the
    trivial flag.
    """
    if f.is_zero:
        raise ValueError("the zero polynomial cannot be classified")
    if non_parallel_witnesses(f) is not None:
        return None
    a = b = 0
    for i, j in f.terms:
        a, b = gcd(a, i), gcd(b, j)
    step = a + b or 1
    powers = {(i + j) // step: c for (i, j), c in f.terms.items()}
    g = UnivariatePoly(powers.get(k, 0) for k in range(max(powers) + 1))
    return MonomialDecomposition(g, (a, b), trivial=len(f.terms) == 1)


def non_parallel_witnesses(f: BivariatePoly) -> tuple[ExponentPair, ExponentPair] | None:
    """First support pair (graded-lex order) with i*j' - j*i' != 0, if any.

    (0, 0) is parallel to everything and is never a witness. Once the first
    nonzero support vector has no witness partner, every later vector is
    parallel to it, so the search stops after that row.
    """
    support = f.support
    for a, (i, j) in enumerate(support):
        for other in support[a + 1 :]:
            if i * other[1] - j * other[0] != 0:
                return support[a], other
        if i or j:
            break
    return None


def _mask_sums(values: Sequence[Fraction | int]) -> list[Fraction | int]:
    """Subset sums indexed by bit mask: bit b of the mask takes values[b]."""
    sums = [0]
    for value in values:
        sums += [s + value for s in sums]
    return sums


def zero_proper_subset_exists(values: Sequence[Fraction | int]) -> bool:
    """Does any nonempty proper subset of values sum to zero?

    A zero value is one by itself when there are others, and so is a pair
    v, -v when there are more than two values. Otherwise, while the largest
    |v| left exceeds the sum of the other |w| left, it is dropped: no
    vanishing subset can hold it, and the whole sum is not 0.
    Meet in the middle on the kept values joins both halves' subset sums
    by hash to count their zero-sum subsets in O(2^(n/2)), not O(2^n).
    The empty subset is one, and the full set is one if its sum is 0; any
    other misses a value, dropped or kept, so it is proper and nonempty.
    """
    if 0 in values:
        return len(values) > 1
    if len(values) > 2 and not set(values).isdisjoint(map(neg, values)):
        return True
    kept = sorted(values, key=abs)
    total = sum(map(abs, kept))
    while kept and 2 * abs(kept[-1]) > total:
        total -= abs(kept.pop())
    if len(kept) < 2:
        return False
    half = len(kept) // 2
    # A plain dict: on 5-8 term values, Counter's setup costs more than the count.
    right_counts: dict[Fraction | int, int] = {}
    for s in _mask_sums(kept[half:]):
        right_counts[s] = right_counts.get(s, 0) + 1
    count = 0
    for s in _mask_sums(kept[:half]):
        count += right_counts.get(-s, 0)
    return count > 1 + (sum(values) == 0)


def zero_proper_subset_flags(columns: Sequence[Sequence[Fraction | int]]) -> list[bool]:
    """zero_proper_subset_exists on each pair of a block, given as one column per term.

    A pair whose sorted magnitudes are nonzero and each above the sum of the
    smaller ones is clean, as the prune above keeps one value at most. That
    test runs on builtins over the block; only the other pairs reach the check.
    """
    pairs = list(zip(*columns))
    magnitudes = map(sorted, zip(*[map(abs, column) for column in columns]))
    flags = [not (s[0] and all(map(gt, s[1:], accumulate(s)))) for s in magnitudes]
    for i in compress(range(len(pairs)), flags):
        flags[i] = zero_proper_subset_exists(pairs[i])
    return flags
