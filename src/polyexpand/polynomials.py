"""Sparse bivariate polynomials over the rationals.

A polynomial is a map from exponent pairs (i, j) to nonzero rational
coefficients, kept in graded-lexicographic order on (i + j, i) so printing
and iteration are deterministic. The text grammar (whitespace-insensitive):

    poly   := term (("+"|"-") term)*
    term   := coef ("*" factor)* | factor ("*" factor)*
    factor := ("x"|"y") ("^" uint)?
    coef   := uint ("/" uint)? | decimal

A uint is a run of decimal digits (str.isdecimal). The parser finds each
coef's extent and reports its errors with a position; the literal itself
is read by rational.parse_rational. A leading "-" negates the first term;
a missing exponent means 1. Printing emits text this grammar accepts, so
parse(str(f)) == f.

Beyond parsing and evaluation, this module decides whether a polynomial is
a univariate polynomial composed with a single monomial, f = g(x^a y^b),
which holds exactly when no two support exponents are non-parallel, and
provides the vanishing-subsum machinery: a proper subsum of f at a
point (x, y) is the sum of the term values over a nonempty proper subset
of the support.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction
from math import gcd
from types import MappingProxyType
from typing import NamedTuple, NoReturn

from .rational import RationalParseError, format_rational, parse_rational

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
            merged[key] = merged.get(key, Fraction(0)) + Fraction(coefficient)
        self._terms = {
            key: value
            for key, value in sorted(merged.items(), key=lambda kv: _grlex_key(kv[0]))
            if value != 0
        }

    @classmethod
    def constant(cls, value: Fraction | int) -> "BivariatePoly":
        return cls({(0, 0): Fraction(value)})

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

    def evaluate(self, x: Fraction, y: Fraction) -> Fraction:
        total = Fraction(0)
        for (i, j), coefficient in self._terms.items():
            total += coefficient * x**i * y**j
        return total

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

    def evaluate(self, t: Fraction) -> Fraction:
        total = Fraction(0)
        for coefficient in reversed(self.coefficients):
            total = total * t + coefficient
        return total

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


class _PolyParser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def fail(self, message: str) -> NoReturn:
        raise PolyParseError(message, self.pos)

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def parse(self) -> BivariatePoly:
        self.skip_ws()
        negate = False
        if self.peek() == "-":
            self.pos += 1
            negate = True
        terms: list[tuple[ExponentPair, Fraction]] = []
        while True:
            pair, coefficient = self.term()
            terms.append((pair, -coefficient if negate else coefficient))
            self.skip_ws()
            if self.pos >= len(self.text):
                break
            op = self.peek()
            if op not in "+-":
                self.fail("expected '+' or '-'")
            self.pos += 1
            negate = op == "-"
        return BivariatePoly(terms)

    def term(self) -> tuple[ExponentPair, Fraction]:
        self.skip_ws()
        exponents = [0, 0]
        # missing: the error if the next factor is absent; None once it is optional.
        if self.peek().isdecimal() or self.peek() == ".":
            coefficient, missing = self.coefficient(), None
        else:
            coefficient, missing = Fraction(1), "expected a term"
        while True:
            if missing is None:
                self.skip_ws()
                if self.peek() != "*":
                    return (exponents[0], exponents[1]), coefficient
                self.pos += 1
                self.skip_ws()
                missing = "expected a variable factor after '*'"
            variable = self.peek()
            if not variable or variable not in "xy":
                if variable.isalpha():
                    self.fail(f"unknown variable {variable!r} (only x and y are allowed)")
                self.fail(missing)
            self.pos += 1
            exponent = 1
            if self.peek() == "^":
                self.pos += 1
                start = self.pos
                if not self.digits():
                    self.fail("exponent must be an unsigned integer")
                exponent = int(self.literal(start))
            exponents["xy".index(variable)] += exponent
            missing = None

    def digits(self) -> str:
        start = self.pos
        while self.peek().isdecimal():
            self.pos += 1
        return self.text[start : self.pos]

    def coefficient(self) -> Fraction:
        """Find the literal's extent, with positioned errors; parse_rational reads it."""
        start = self.pos
        integer_digits = self.digits()
        if self.peek() == ".":
            self.pos += 1
            if not self.digits() and not integer_digits:
                self.fail("expected digits in decimal")
        elif self.peek() == "/":
            self.pos += 1
            denominator = self.digits()
            if not denominator:
                self.fail("expected a denominator")
            if not denominator.strip("0"):
                self.fail("zero denominator")
        return self.literal(start)

    def literal(self, start: int) -> Fraction:
        try:
            return parse_rational(self.text[start : self.pos])
        except RationalParseError as exc:
            raise PolyParseError(str(exc), start) from None


def parse_poly(text: str) -> BivariatePoly:
    """Parse expression text into canonical sparse form (like terms merged)."""
    return _PolyParser(text).parse()


def compose(g: UnivariatePoly, monomial: ExponentPair) -> BivariatePoly:
    """Build g(x^a y^b) as a bivariate polynomial."""
    a, b = monomial
    if a < 0 or b < 0:
        raise ValueError("monomial exponents must be non-negative")
    terms: list[tuple[ExponentPair, Fraction]] = []
    for power, coefficient in enumerate(g.coefficients):
        if coefficient != 0:
            terms.append(((power * a, power * b), coefficient))
    return BivariatePoly(terms)


def classify_monomial_composition(f: BivariatePoly) -> MonomialDecomposition | None:
    """Decide whether f = g(x^a y^b) for a univariate g and single monomial.

    Returns None exactly when non_parallel_witnesses(f) finds a pair.
    Otherwise every support vector is a multiple of one direction, and the
    monomial (a, b) = (gcd of the x exponents, gcd of the y exponents) is
    maximal: the term (i, j) = k*(a, b) is g's t^k term, the degrees of
    g's nonconstant terms have gcd 1, and compose(g, monomial) reproduces f
    term for term. Constants and single monomials decompose trivially and
    carry the trivial flag.
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

    A zero value is one by itself when there are others. Otherwise, while
    the largest |v| left exceeds the sum of the other |w| left, it is
    dropped: no vanishing subset can hold it, and the whole sum is not 0.
    Meet in the middle on the kept values joins both halves' subset sums
    by hash to count their zero-sum subsets in O(2^(n/2)), not O(2^n).
    The empty subset is one, and the full set is one if its sum is 0; any
    other misses a value, dropped or kept, so it is proper and nonempty.
    """
    if 0 in values:
        return len(values) > 1
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
