"""Hypothesis properties: the integer pair-space kernel against Fraction loops.

Every public path that walks the pair space (image, histogram, energy,
product and sum sets, the subsum audit and the injectivity audit) must give
exactly what the plain Fraction reference in ``reference.py`` gives. Sets mix
negative elements, 0 and many pairwise coprime denominators; polynomials
include the zero polynomial and constants.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reference
from polyexpand import (
    GGP,
    BivariatePoly,
    DistinctnessError,
    audit_injectivity,
    audit_vanishing_subsums,
    cauchy_schwarz_check,
    classify_monomial_composition,
    doubling_ratio,
    energy,
    ggp_enumerate,
    image_set,
    make_set,
    multiplicity_histogram,
    parse_poly,
    productset,
    productset_size,
    sumset,
    value_multiplicities,
)
from polyexpand.sets import image_keys

PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)

small_fractions = st.fractions(min_value=-12, max_value=12, max_denominator=8)
coprime_fractions = st.builds(Fraction, st.integers(-9, 9), st.sampled_from(PRIMES))
elements = st.one_of(small_fractions, coprime_fractions, st.just(Fraction(0)))
sets = st.lists(elements, min_size=1, max_size=7).map(make_set)
coefficients = st.fractions(min_value=-9, max_value=9, max_denominator=6).filter(bool)


@st.composite
def polys(draw, max_degree=4, max_terms=5):
    degree = draw(st.integers(min_value=0, max_value=max_degree))
    triangle = [(i, j) for i in range(degree + 1) for j in range(degree + 1 - i)]
    support = draw(st.lists(st.sampled_from(triangle), max_size=max_terms, unique=True))
    return BivariatePoly({pair: draw(coefficients) for pair in support})


def non_exceptional(f):
    return not f.is_zero and classify_monomial_composition(f) is None


SETTINGS = settings(max_examples=80, deadline=None)


@SETTINGS
@given(polys(), sets, sets)
def test_image_matches_reference(f, a, b):
    expected = reference.image_values(f, a)
    assert image_set(f, a).elements == expected
    assert len(value_multiplicities(f, a)) == len(expected)
    assert image_set(f, a, b).elements == reference.image_values(f, a, b)


@SETTINGS
@given(polys(), sets)
def test_histogram_and_energy_match_reference(f, a):
    expected = reference.histogram(f, a)
    assert list(multiplicity_histogram(f, a).counts.items()) == list(expected.items())
    assert sorted(value_multiplicities(f, a)) == sorted(expected.values())
    assert energy(f, a) == reference.energy(f, a)
    if not f.is_zero:
        check = cauchy_schwarz_check(f, a)
        assert (check.energy, check.image_size) == (reference.energy(f, a), len(expected))


@SETTINGS
@given(sets, sets)
def test_product_and_sum_sets_match_reference(a, b):
    assert productset(a, b) == reference.productset(a, b)
    assert sumset(a, b) == reference.sumset(a, b)
    products = reference.productset(a, a)
    assert productset_size(a) == len(products)
    assert doubling_ratio(a) == Fraction(len(products), len(a))


@SETTINGS
@given(polys(max_terms=6), sets)
def test_audit_table_matches_reference(f, a):
    assume(non_exceptional(f))
    report = audit_vanishing_subsums(f, a)
    table, zero_full_sum = reference.audit_table(f, a)
    assert [(Fraction(k, report.scale), c, d) for k, c, d in report.table] == table
    assert report.zero_value_full_sum_solutions == zero_full_sum
    assert report.pairs == len(a) ** 2
    assert sum(c + d for _, c, d in report.table) == len(a) ** 2


boxes = st.builds(
    lambda gens, dims: GGP(tuple(gens), tuple(dims[: len(gens)])),
    st.lists(st.sampled_from((2, 3, 5, Fraction(3, 2), Fraction(5, 3), Fraction(1, 2))),
             min_size=1, max_size=3, unique=True),
    st.lists(st.integers(1, 3), min_size=3, max_size=3),
)


@SETTINGS
@given(polys(max_degree=3), boxes, st.integers(1, 2))
def test_injectivity_audit_matches_reference(f, box, t):
    assume(non_exceptional(f))
    try:
        injective = audit_injectivity(f, box, t)
    except DistinctnessError:
        assert len({v for _, v in ggp_enumerate(box, t)}) < box.box_size(t)
        return
    assert injective == reference.injective(f, box)


def test_zero_polynomial_and_constants():
    a = make_set([Fraction(-1, 3), 0, Fraction(2, 5)])
    assert image_set(BivariatePoly({}), a).elements == (Fraction(0),)
    assert energy(BivariatePoly({}), a) == 81
    constant = BivariatePoly.constant(Fraction(-7, 4))
    assert image_set(constant, a).elements == (Fraction(-7, 4),)
    assert multiplicity_histogram(constant, a).counts == {Fraction(-7, 4): 9}


@pytest.mark.parametrize("count", [12, 14])
def test_many_coprime_denominators(count):
    # D = lcm of all denominators is the product of the first `count` primes.
    a = make_set(Fraction(1, p) for p in PRIMES[:count])
    f = BivariatePoly({(2, 1): Fraction(3, 2), (0, 3): -1, (1, 0): Fraction(1, 7)})
    assert image_set(f, a).elements == reference.image_values(f, a)
    assert energy(f, a) == reference.energy(f, a)


# Supports in which most terms share a power of y with another, j = 0 and a
# constant term included: the count path sums such terms into one column.
shared_y_supports = st.lists(
    st.sampled_from([(0, 0), (1, 0), (2, 0), (3, 0), (1, 1), (2, 1), (0, 1), (1, 2)]),
    min_size=2, max_size=6, unique=True,
)


@SETTINGS
@given(shared_y_supports, st.data(), sets, sets)
def test_terms_sharing_a_power_of_y_match_reference(support, data, a, b):
    f = BivariatePoly({pair: data.draw(coefficients) for pair in support})
    expected = reference.image_values(f, a)
    scale, keys = image_keys(f, a, a, 10**6)
    assert tuple(Fraction(k, scale) for k in keys) == expected
    assert image_set(f, a).elements == expected
    assert image_set(f, a, b).elements == reference.image_values(f, a, b)
    assert energy(f, a) == reference.energy(f, a)
    assert sorted(value_multiplicities(f, a)) == sorted(reference.histogram(f, a).values())


def test_shared_powers_of_y_with_a_constant_term():
    a = make_set([Fraction(-2, 3), 0, Fraction(1, 2), 1, Fraction(5, 4)])
    f = parse_poly("x^3*y - 2/3*x*y + y + x^2 - 5/2*x + 7/4")
    assert image_set(f, a).elements == reference.image_values(f, a)
    assert energy(f, a) == reference.energy(f, a)
    assert list(multiplicity_histogram(f, a).counts.items()) == list(
        reference.histogram(f, a).items()
    )
