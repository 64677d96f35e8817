"""Hypothesis properties: the integer pair-space kernel against Fraction loops.

Every public path that walks the pair space (image, histogram, energy,
product and sum sets, the subsum audit and the injectivity audit) must give
exactly what the plain Fraction reference in ``reference.py`` gives. Sets mix
negative elements, 0 and many pairwise coprime denominators; polynomials
include the zero polynomial and constants.
"""

from fractions import Fraction
from math import gcd
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
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
    image_set,
    make_set,
    multiplicity_histogram,
    parse_poly,
    productset,
    productset_size,
    value_multiplicities,
)
from polyexpand import lab
from polyexpand.sets import image_keys, ladder_sizes

SUM = parse_poly("x + y")  # the sumset A + B is the image of x + y
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


@st.composite
def non_exceptional_polys(draw, max_degree=4, max_terms=5):
    """Like polys(), with two non-parallel support exponents forced in: f is never
    g(x^a y^b), so no draw is filtered out."""
    degree = draw(st.integers(min_value=1, max_value=max_degree))
    triangle = [(i, j) for i in range(degree + 1) for j in range(degree + 1 - i)]
    u = draw(st.sampled_from(triangle[1:]))
    v = draw(st.sampled_from([w for w in triangle if u[0] * w[1] != u[1] * w[0]]))
    rest = draw(st.lists(st.sampled_from(triangle), max_size=max_terms - 2, unique=True))
    return BivariatePoly({pair: draw(coefficients) for pair in dict.fromkeys([u, v, *rest])})


def non_exceptional(f):
    return not f.is_zero and classify_monomial_composition(f) is None


SETTINGS = settings(max_examples=80, deadline=None)


@SETTINGS
@given(polys(), sets, sets)
def test_image_matches_reference(f, a, b):
    expected = reference.image_values(f, a)
    assert tuple(image_set(f, a)) == expected
    assert len(value_multiplicities(f, a)) == len(expected)
    assert tuple(image_set(f, a, b)) == reference.image_values(f, a, b)


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
    assert image_set(SUM, a, b) == reference.sumset(a, b)
    products = reference.productset(a, a)
    assert productset_size(a) == len(products)
    assert doubling_ratio(a) == Fraction(len(products), len(a))


# Pairs per audit block: the default holds every set drawn here in one block;
# 1 cuts one row per block, and 10 cuts five elements' rows as 2, 2 and 1.
audit_blocks = st.one_of(st.just(lab.AUDIT_BLOCK_PAIRS), st.integers(1, 20))
PAIRED_TERMS = parse_poly("x^2*y - x*y^2 + 3*x - 3*y")  # its terms cancel in pairs where x = y


@SETTINGS
@given(non_exceptional_polys(max_terms=6), sets, audit_blocks)
@example(PAIRED_TERMS, make_set([1, -1, 3, -3, 2]), 1)
@example(PAIRED_TERMS, make_set([1, -1, 3, -3, 2]), 10)
@example(SUM, make_set(range(1, 8)), 10)  # sums 6..10 have more than 4 pairs
@example(parse_poly("x - y"), make_set(range(1, 8)), lab.AUDIT_BLOCK_PAIRS)  # so has 0
def test_audit_table_matches_reference(f, a, block_pairs):
    assert non_exceptional(f)
    # patch.object, not monkeypatch: a function-scoped fixture is refused under @given.
    with mock.patch.object(lab, "AUDIT_BLOCK_PAIRS", block_pairs):
        report = audit_vanishing_subsums(f, a)
        short = audit_vanishing_subsums(f, a, full_table=False)
    table, zero_full_sum = reference.audit_table(f, a)
    assert [(Fraction(k, report.scale), c, d) for k, c, d in report.table] == table
    assert report.zero_value_full_sum_solutions == zero_full_sum
    assert report.pairs == len(a) ** 2
    assert sum(c + d for _, c, d in report.table) == len(a) ** 2
    # Without the full table only the rows that could be bad, and the row of 0, are kept.
    assert short._replace(table=report.table) == report
    assert short.table == tuple(
        row for row in report.table if row[0] == 0 or row[1] + row[2] > report.dirty_bound
    )


boxes = st.builds(
    lambda gens, dims: GGP(tuple(gens), tuple(dims[: len(gens)])),
    st.lists(st.sampled_from((2, 3, 5, Fraction(3, 2), Fraction(5, 3), Fraction(1, 2))),
             min_size=1, max_size=3, unique=True),
    st.lists(st.integers(1, 3), min_size=3, max_size=3),
)


@SETTINGS
@given(non_exceptional_polys(max_degree=3), boxes, st.integers(1, 2))
def test_injectivity_audit_matches_reference(f, box, t):
    assert non_exceptional(f)
    try:
        injective = audit_injectivity(f, box, t)
    except DistinctnessError:
        assert len({v for _, v in reference.box_members(box, t)}) < box.box_size(t)
        return
    assert injective == reference.injective(f, box)


@SETTINGS
@given(polys(), sets, sets)
def test_every_set_has_one_canonical_form(f, a, b):
    for s in (a, image_set(f, a, b), image_set(SUM, a, b), productset(a, b)):
        assert s.scale > 0 and gcd(s.scale, *s.keys) == 1
        assert make_set(s) == s
    again = make_set(reference.image_values(f, a, b))
    assert again == image_set(f, a, b) and hash(again) == hash(image_set(f, a, b))
    assert hash(image_set(SUM, b, a)) == hash(image_set(SUM, a, b))


def test_zero_polynomial_and_constants():
    a = make_set([Fraction(-1, 3), 0, Fraction(2, 5)])
    assert tuple(image_set(BivariatePoly({}), a)) == (Fraction(0),)
    assert energy(BivariatePoly({}), a) == 81
    constant = BivariatePoly({(0, 0): Fraction(-7, 4)})
    assert tuple(image_set(constant, a)) == (Fraction(-7, 4),)
    assert multiplicity_histogram(constant, a).counts == {Fraction(-7, 4): 9}


@pytest.mark.parametrize("count", [12, 14])
def test_many_coprime_denominators(count):
    # D = lcm of all denominators is the product of the first `count` primes.
    a = make_set(Fraction(1, p) for p in PRIMES[:count])
    f = BivariatePoly({(2, 1): Fraction(3, 2), (0, 3): -1, (1, 0): Fraction(1, 7)})
    assert tuple(image_set(f, a)) == reference.image_values(f, a)
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
    assert tuple(image_set(f, a)) == expected
    assert tuple(image_set(f, a, b)) == reference.image_values(f, a, b)
    assert energy(f, a) == reference.energy(f, a)
    assert sorted(value_multiplicities(f, a)) == sorted(reference.histogram(f, a).values())


def test_shared_powers_of_y_with_a_constant_term():
    a = make_set([Fraction(-2, 3), 0, Fraction(1, 2), 1, Fraction(5, 4)])
    f = parse_poly("x^3*y - 2/3*x*y + y + x^2 - 5/2*x + 7/4")
    assert tuple(image_set(f, a)) == reference.image_values(f, a)
    assert energy(f, a) == reference.energy(f, a)
    assert list(multiplicity_histogram(f, a).counts.items()) == list(
        reference.histogram(f, a).items()
    )


# A nudge off the diagonal turns the symmetric g + g(y, x) near-symmetric: its
# support stays symmetric when g holds the mirrored term, its coefficients do not.
nudges = st.one_of(
    st.none(), st.tuples(st.sampled_from([(1, 0), (2, 1), (3, 0), (0, 2), (1, 3)]), coefficients)
)


@SETTINGS
@given(polys(max_degree=3, max_terms=3), nudges,
       st.lists(elements, min_size=1, max_size=7, unique=True),
       st.lists(st.integers(1, 7), min_size=1, max_size=4))
@example(BivariatePoly({(2, 1): 1}), ((1, 2), 1), [Fraction(1), Fraction(2)], [1, 2])
def test_nested_ladder_under_a_symmetric_f_matches_each_image(g, nudge, values, cuts):
    # The shells of a symmetric f skip their mirrored walk; a near-symmetric one must not.
    f = BivariatePoly(
        [*g.terms.items(), *[((j, i), c) for (i, j), c in g.terms.items()], *[nudge] * bool(nudge)]
    )
    ladder = [make_set(values[:n]) for n in sorted({min(n, len(values)) for n in cuts})]
    assert ladder_sizes(f, ladder) == [len(image_keys(f, a, a, 10**6)[1]) for a in ladder]


# Supports that mix pure-x, pure-y, constant and mixed terms; half are transposed, so
# either grouping, by powers of y or of x, can be the one with fewer products per pair.
one_variable_supports = st.tuples(
    st.lists(
        st.sampled_from([(0, 0), (1, 0), (3, 0), (0, 1), (0, 2), (0, 3), (1, 1), (2, 1), (1, 3)]),
        max_size=6, unique=True,
    ),
    st.booleans(),
).map(lambda drawn: [(j, i) for i, j in drawn[0]] if drawn[1] else drawn[0])


@st.composite
def one_variable_polys(draw):
    return BivariatePoly({pair: draw(coefficients) for pair in draw(one_variable_supports)})


@SETTINGS
@given(one_variable_polys(), sets, sets,
       st.lists(elements, min_size=1, max_size=7, unique=True),
       st.lists(st.integers(1, 7), min_size=1, max_size=4))
# No product column at all: one pure-x group, one pure-y group, a constant, nothing.
@example(parse_poly("x^3 + 2"), make_set([-1, 2]), make_set([0, Fraction(1, 2), 3]),
         [Fraction(1), Fraction(-2), Fraction(1, 3)], [1, 3])
@example(parse_poly("y^2 - y"), make_set([-1, 2]), make_set([0, Fraction(1, 2), 3]),
         [Fraction(1), Fraction(-2), Fraction(1, 3)], [2, 3])
@example(BivariatePoly({(0, 0): 7}), make_set([1]), make_set([2, 3]), [Fraction(5)], [1])
@example(BivariatePoly({}), make_set([1, 2]), make_set([Fraction(-1, 2)]),
         [Fraction(0), Fraction(4)], [1, 2])
def test_one_variable_columns_match_reference(f, a, b, values, cuts):
    assume(a != b)
    assert tuple(image_set(f, a, b)) == reference.image_values(f, a, b)
    assert sorted(value_multiplicities(f, a)) == sorted(reference.histogram(f, a).values())
    assert energy(f, b) == reference.energy(f, b)
    nested = [make_set(values[:n]) for n in sorted({min(n, len(values)) for n in cuts})]
    for ladder in (nested, [b, a]):  # the second nests only if a holds b
        assert ladder_sizes(f, ladder) == [len(reference.image_values(f, s)) for s in ladder]
    if non_exceptional(f):
        report = audit_vanishing_subsums(f, a)
        table, zero_full_sum = reference.audit_table(f, a)
        assert [(Fraction(k, report.scale), c, d) for k, c, d in report.table] == table
        assert report.zero_value_full_sum_solutions == zero_full_sum
