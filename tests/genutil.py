"""Seeded random generators and fixed inputs shared by the test modules."""

from __future__ import annotations

import random
from fractions import Fraction

from polyexpand import (
    GGP,
    BivariatePoly,
    RationalSet,
    UnivariatePoly,
    classify_monomial_composition,
    make_set,
)


def random_fraction(
    rng: random.Random,
    max_numerator: int = 9,
    max_denominator: int = 4,
    nonzero: bool = False,
) -> Fraction:
    while True:
        value = Fraction(
            rng.randint(-max_numerator, max_numerator), rng.randint(1, max_denominator)
        )
        if value != 0 or not nonzero:
            return value


def random_set(
    rng: random.Random,
    max_size: int = 10,
    nonzero: bool = False,
    positive: bool = False,
    max_numerator: int = 12,
) -> RationalSet:
    size = rng.randint(1, max_size)
    values: set[Fraction] = set()
    while len(values) < size:
        value = random_fraction(rng, max_numerator=max_numerator, nonzero=nonzero)
        if positive:
            if value == 0:
                continue
            value = abs(value)
        values.add(value)
    return make_set(values)


def random_poly(
    rng: random.Random, max_degree: int = 4, max_terms: int = 6
) -> BivariatePoly:
    degree = rng.randint(1, max_degree)
    triangle = [(i, j) for i in range(degree + 1) for j in range(degree + 1 - i)]
    count = rng.randint(1, min(max_terms, len(triangle)))
    support = rng.sample(triangle, count)
    return BivariatePoly({pair: random_fraction(rng, nonzero=True) for pair in support})


def random_nonexceptional_poly(
    rng: random.Random, max_degree: int = 3, max_terms: int = 6
) -> BivariatePoly:
    while True:
        f = random_poly(rng, max_degree=max_degree, max_terms=max_terms)
        if classify_monomial_composition(f) is None:
            return f


def random_univariate(rng: random.Random, max_degree: int = 5) -> UnivariatePoly:
    """Nonconstant univariate with nonzero leading coefficient."""
    degree = rng.randint(1, max_degree)
    coefficients = [random_fraction(rng) for _ in range(degree)]
    coefficients.append(random_fraction(rng, nonzero=True))
    return UnivariatePoly(coefficients)


def random_monomial(rng: random.Random, max_exponent: int = 4) -> tuple[int, int]:
    while True:
        pair = (rng.randint(0, max_exponent), rng.randint(0, max_exponent))
        if pair != (0, 0):
            return pair


GENERATOR_POOL = (
    Fraction(2),
    Fraction(3),
    Fraction(5),
    Fraction(7),
    Fraction(3, 2),
    Fraction(5, 2),
    Fraction(5, 3),
    Fraction(1, 2),
)


def random_ggp(rng: random.Random, max_rank: int = 3, max_dim: int = 3) -> GGP:
    rank = rng.randint(1, max_rank)
    generators = tuple(rng.sample(GENERATOR_POOL, rank))
    dims = tuple(rng.randint(1, max_dim) for _ in range(rank))
    return GGP(generators, dims)


def all_monomials(degree: int) -> str:
    """The sum of every monomial x^i*y^j with i + j <= degree, as text."""
    return " + ".join(f"x^{i}*y^{j}" for i in range(degree + 1) for j in range(degree + 1 - i))
