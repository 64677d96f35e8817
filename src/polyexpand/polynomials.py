"""Sparse bivariate polynomials over the rationals.

A polynomial is a map from exponent pairs (i, j) to nonzero rational
coefficients, kept in graded-lexicographic order on (i + j, i) so printing
and iteration are deterministic. The text grammar (whitespace-insensitive):

    poly   := term (("+"|"-") term)*
    term   := coef ("*" factor)* | factor ("*" factor)*
    factor := ("x"|"y") ("^" uint)?
    coef   := uint ("/" uint)? | decimal

A leading "-" negates the first term; a missing exponent means 1. Printing
emits text this grammar accepts, so parse(str(f)) == f.

Beyond parsing and evaluation, this module decides whether a polynomial is
a univariate polynomial composed with a single monomial, f = g(x^a y^b),
and provides the vanishing-subsum machinery: a proper subsum of f at a
point (x, y) is the sum of the term values over a nonempty proper subset
of the support.
"""

from __future__ import annotations

import itertools
from collections import Counter
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from types import MappingProxyType
from typing import NoReturn

from .rational import format_rational

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


@dataclass(frozen=True)
class MonomialDecomposition:
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
        head = self.peek()
        i = j = 0
        if head.isdigit() or head == ".":
            coefficient = self.coefficient()
        elif head in ("x", "y"):
            coefficient = Fraction(1)
            di, dj = self.factor()
            i, j = i + di, j + dj
        elif head.isalpha():
            self.fail(f"unknown variable {head!r} (only x and y are allowed)")
        else:
            self.fail("expected a term")
        while True:
            self.skip_ws()
            if self.peek() != "*":
                break
            self.pos += 1
            self.skip_ws()
            nxt = self.peek()
            if nxt in ("x", "y") and nxt:
                di, dj = self.factor()
                i, j = i + di, j + dj
            elif nxt.isalpha():
                self.fail(f"unknown variable {nxt!r} (only x and y are allowed)")
            else:
                self.fail("expected a variable factor after '*'")
        return (i, j), coefficient

    def factor(self) -> ExponentPair:
        variable = self.peek()
        self.pos += 1
        exponent = 1
        if self.peek() == "^":
            self.pos += 1
            if not self.peek().isdigit():
                self.fail("exponent must be an unsigned integer")
            exponent = self.uint()
        return (exponent, 0) if variable == "x" else (0, exponent)

    def uint(self) -> int:
        start = self.pos
        while self.peek().isdigit():
            self.pos += 1
        if start == self.pos:
            self.fail("expected digits")
        return int(self.text[start : self.pos])

    def coefficient(self) -> Fraction:
        integer_digits = ""
        while self.peek().isdigit():
            integer_digits += self.peek()
            self.pos += 1
        if self.peek() == ".":
            self.pos += 1
            fraction_digits = ""
            while self.peek().isdigit():
                fraction_digits += self.peek()
                self.pos += 1
            if not integer_digits and not fraction_digits:
                self.fail("expected digits in decimal")
            scale = 10 ** len(fraction_digits)
            return Fraction(int((integer_digits or "0") + fraction_digits), scale)
        if self.peek() == "/":
            self.pos += 1
            if not self.peek().isdigit():
                self.fail("expected a denominator")
            denominator = self.uint()
            if denominator == 0:
                self.fail("zero denominator")
            return Fraction(int(integer_digits), denominator)
        return Fraction(int(integer_digits))


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

    Returns a decomposition exactly when every nonconstant support vector is
    an integer multiple of one primitive direction p. The monomial is D*p
    where D is the gcd of the multipliers, which makes it maximal: the
    degrees of g's nonconstant terms have gcd 1, and compose(g, monomial)
    reproduces f term for term. Constants and single monomials decompose
    trivially and carry the trivial flag.
    """
    if f.is_zero:
        raise ValueError("the zero polynomial cannot be classified")
    constant = f.terms.get((0, 0), Fraction(0))
    powers = [(pair, c) for pair, c in f.terms.items() if pair != (0, 0)]
    if not powers:
        return MonomialDecomposition(UnivariatePoly([constant]), (0, 0), trivial=True)
    direction: ExponentPair | None = None
    multipliers: list[int] = []
    for (i, j), _ in powers:
        k = gcd(i, j)
        primitive = (i // k, j // k)
        if direction is None:
            direction = primitive
        elif primitive != direction:
            return None
        multipliers.append(k)
    shared = 0
    for k in multipliers:
        shared = gcd(shared, k)
    monomial = (direction[0] * shared, direction[1] * shared)
    coefficients = [Fraction(0)] * (max(multipliers) // shared + 1)
    coefficients[0] = constant
    for (pair, c), k in zip(powers, multipliers):
        coefficients[k // shared] = c
    return MonomialDecomposition(
        UnivariatePoly(coefficients), monomial, trivial=len(f.terms) == 1
    )


def non_parallel_witnesses(f: BivariatePoly) -> tuple[ExponentPair, ExponentPair] | None:
    """First support pair (graded-lex order) with i*j' - j*i' != 0, if any.

    Such a pair exists exactly when classify_monomial_composition returns
    None; (0, 0) is parallel to everything and is never a witness.
    """
    support = f.support
    for a in range(len(support)):
        i, j = support[a]
        for b in range(a + 1, len(support)):
            i2, j2 = support[b]
            if i * j2 - j * i2 != 0:
                return (support[a], support[b])
    return None


def _mask_sums(values: Sequence[Fraction | int]) -> list[Fraction | int]:
    """Subset sums indexed by bit mask: bit b of the mask takes values[b]."""
    sums = [0]
    for value in values:
        sums += [s + value for s in sums]
    return sums


def zero_proper_subset_exists(values: Sequence[Fraction | int]) -> bool:
    """Does any nonempty proper subset of values sum to zero?

    Meet in the middle: both halves' subset sums are enumerated and joined
    by hash, excluding the empty/empty and full/full combinations, so the
    cost is O(2^(n/2)) instead of O(2^n).
    """
    half = len(values) // 2
    left_sums = _mask_sums(values[:half])
    right_sums = _mask_sums(values[half:])
    right_counts = Counter(right_sums)
    left_full = len(left_sums) - 1
    right_full_sum = right_sums[-1]
    for mask, s in enumerate(left_sums):
        matches = right_counts.get(-s, 0)
        if not matches:
            continue
        if mask == 0 and s == 0:
            matches -= 1
        if mask == left_full and -s == right_full_sum:
            matches -= 1
        if matches > 0:
            return True
    return False
