import itertools
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from genutil import (
    random_fraction,
    random_monomial,
    random_nonexceptional_poly,
    random_poly,
    random_univariate,
)
from polyexpand import (
    BivariatePoly,
    PolyParseError,
    UnivariatePoly,
    classify_monomial_composition,
    format_monomial,
    non_parallel_witnesses,
    parse_poly,
)
from polyexpand import polynomials
from polyexpand.polynomials import zero_proper_subset_exists, zero_proper_subset_flags
from reference import (
    compose,
    evaluate,
    evaluate_univariate,
    has_zero_proper_subsum,
    proper_support_subsets,
    vanishing_subsets,
)


@st.composite
def poly_strategy(draw, max_degree=5, max_terms=6):
    degree = draw(st.integers(min_value=0, max_value=max_degree))
    triangle = [(i, j) for i in range(degree + 1) for j in range(degree + 1 - i)]
    support = draw(
        st.lists(st.sampled_from(triangle), min_size=1, max_size=max_terms, unique=True)
    )
    coefficients = draw(
        st.lists(
            st.fractions(min_value=-9, max_value=9).filter(lambda q: q != 0),
            min_size=len(support),
            max_size=len(support),
        )
    )
    return BivariatePoly(dict(zip(support, coefficients)))


def test_parse_single_monomial():
    assert dict(parse_poly("x^2*y^3").terms) == {(2, 3): Fraction(1)}


def test_parse_two_terms():
    assert dict(parse_poly("x*y + x^2*y^2").terms) == {
        (1, 1): Fraction(1),
        (2, 2): Fraction(1),
    }


def test_parse_cancellation():
    assert dict(parse_poly("2*x - 2*x + y").terms) == {(0, 1): Fraction(1)}


def test_parse_coefficients():
    assert dict(parse_poly("3/4*x - 0.5*y + 7").terms) == {
        (1, 0): Fraction(3, 4),
        (0, 1): Fraction(-1, 2),
        (0, 0): Fraction(7),
    }


def test_parse_leading_minus():
    assert parse_poly("-x + 3") == parse_poly("3 - x")


def test_parse_repeated_factors_multiply():
    assert dict(parse_poly("x*x*y^2*y").terms) == {(2, 3): Fraction(1)}


def test_parse_zero():
    assert parse_poly("0").is_zero
    assert parse_poly("x - x").is_zero


INT_DIGITS_LIMIT = (
    "Exceeds the limit (4300 digits) for integer string conversion: value has 5000 digits"
)


PARSE_ERRORS = [
    ("x^^2", 2, "exponent must be an unsigned integer"),
    ("z", 0, "unknown variable 'z' (only x and y are allowed)"),
    ("w*x", 0, "unknown variable 'w' (only x and y are allowed)"),
    ("2x", 1, "expected '+' or '-'"),
    ("x^2 y", 4, "expected '+' or '-'"),
    ("x*2", 2, "expected a variable factor after '*'"),
    ("1/0*x", 3, "zero denominator"),
    ("1/00*x", 4, "zero denominator"),
    ("1/", 2, "expected a denominator"),
    (".", 1, "expected digits in decimal"),
    ("", 0, "expected a term"),
    ("x + ", 4, "expected a term"),
    ("x^-2", 2, "exponent must be an unsigned integer"),
    ("x*", 2, "expected a variable factor after '*'"),
    # superscripts pass str.isdigit but not int(): only decimal digits count
    ("x^\u00b2", 2, "exponent must be an unsigned integer"),
    ("\u00b2*x", 0, "expected a term"),
    ("2*x^\u00b3", 4, "exponent must be an unsigned integer"),
]
# literals past the interpreter's 4300-digit int-string limit
LONG_PARSE_ERRORS = [
    pytest.param("x^" + "9" * 5000, 2, INT_DIGITS_LIMIT, id="long-exponent"),
    pytest.param("x - " + "7" * 5000 + "*y", 4, INT_DIGITS_LIMIT, id="long-coefficient"),
    pytest.param("x + 1/" + "7" * 5000 + "*y", 4, INT_DIGITS_LIMIT, id="long-denominator"),
]


@pytest.mark.parametrize(
    "text,position,message",
    PARSE_ERRORS + LONG_PARSE_ERRORS,
    # ids name the text and position only, as they did before messages were pinned
    ids=[f"{text}-{position}" for text, position, _ in PARSE_ERRORS] + [None] * 3,
)
def test_parse_errors_carry_positions(text, position, message):
    with pytest.raises(PolyParseError) as excinfo:
        parse_poly(text)
    assert excinfo.value.position == position
    assert str(excinfo.value) == f"{message} at position {position}"


PARSE_CHUNKS = [
    *"xyzaX_(0123456789./*^+- \t",
    # a superscript that is not decimal, an Arabic-Indic digit that is, and two
    # characters that str.isspace takes for whitespace
    "\u00b2", "\u0663", "\x1c", "\u00a0",
    "00", "x^", "1/", "*y",
]


@given(st.lists(st.sampled_from(PARSE_CHUNKS), max_size=12))
def test_any_text_parses_to_a_round_trip_or_fails_with_a_position(chunks):
    text = "".join(chunks)
    try:
        f = parse_poly(text)
    except PolyParseError as exc:
        assert 0 <= exc.position <= len(text)
    else:
        assert parse_poly(str(f)) == f


def test_str_is_canonical():
    assert str(parse_poly("y + x*y + 2")) == "2 + y + x*y"
    assert str(parse_poly("-3/4")) == "-3/4"
    assert str(parse_poly("-x*y + x^2")) == "-x*y + x^2"


@given(poly_strategy())
def test_print_parse_round_trip(f):
    assert parse_poly(str(f)) == f


def test_evaluate():
    assert evaluate(parse_poly("x^2*y^3"), Fraction(2), Fraction(2)) == 32
    assert evaluate(parse_poly("x*y + x^2*y^2"), Fraction(1), Fraction(-1)) == 0
    assert evaluate(parse_poly("7"), Fraction(3, 5), Fraction(-8)) == 7


def test_support_and_degree():
    f = parse_poly("x*y + x^2*y^2")
    assert set(f.support) == {(1, 1), (2, 2)}
    assert f.degree == 4
    g = parse_poly("x + y")
    assert set(g.support) == {(1, 0), (0, 1)}
    assert g.degree == 1
    assert parse_poly("x^2*y^3").degree == 5


def test_zero_polynomial_has_no_support_or_degree():
    zero = BivariatePoly({})
    assert zero.is_zero
    with pytest.raises(ValueError):
        zero.support
    with pytest.raises(ValueError):
        zero.degree
    with pytest.raises(ValueError):
        classify_monomial_composition(zero)


def test_repeated_exponent_pairs_merge_to_one_exact_fraction():
    f = BivariatePoly([
        ((1, 0), 0.5), ((1, 0), 0.25),  # floats merge exactly, not as a float
        ((0, 1), 2), ((0, 1), Fraction(-1, 3)), ((0, 1), 0.5),
        ((2, 2), Fraction(3, 7)), ((2, 2), Fraction(-3, 7)),  # a pair that cancels
        ((3, 0), 1), ((3, 0), -1.0),
        ((0, 0), 7),
    ])
    assert dict(f.terms) == {(1, 0): Fraction(3, 4), (0, 1): Fraction(13, 6), (0, 0): Fraction(7)}
    assert all(type(c) is Fraction for c in f.terms.values())
    assert f == BivariatePoly({(1, 0): Fraction(3, 4), (0, 1): Fraction(13, 6), (0, 0): 7})


def test_negative_exponents_rejected():
    with pytest.raises(ValueError):
        BivariatePoly({(-1, 0): Fraction(1)})


def test_proper_subsets_counts():
    assert len(list(proper_support_subsets(parse_poly("x + y")))) == 2
    assert len(list(proper_support_subsets(parse_poly("x + y + 1")))) == 6
    subsets = set(proper_support_subsets(parse_poly("x*y + x^2*y^2")))
    assert subsets == {((1, 1),), ((2, 2),)}


def test_proper_subsets_need_two_terms():
    with pytest.raises(ValueError):
        list(proper_support_subsets(parse_poly("x^2")))


def test_vanishing_subsets_examples():
    f = parse_poly("x^2 - y^2")
    assert vanishing_subsets(f, Fraction(2), Fraction(2)) == ()

    g = parse_poly("x^2 + x*y - y^2")
    # term values at (1, -1) are x^2 = 1, x*y = -1, -y^2 = -1: two proper
    # subsets vanish
    assert vanishing_subsets(g, Fraction(1), Fraction(-1)) == (
        ((0, 2), (2, 0)),
        ((1, 1), (2, 0)),
    )

    assert vanishing_subsets(parse_poly("x + y"), Fraction(3), Fraction(5)) == ()


def term_values(f, x, y):
    return [f.terms[p] * x ** p[0] * y ** p[1] for p in f.support]


def oracle_vanishing(f, x, y):
    support = f.support
    values = term_values(f, x, y)
    found = []
    for size in range(1, len(support)):
        for combo in itertools.combinations(range(len(support)), size):
            if sum(values[i] for i in combo) == 0:
                found.append(tuple(support[i] for i in combo))
    return found


def test_vanishing_machinery_matches_enumeration_oracle():
    rng = random.Random(1729)
    for _ in range(60):
        f = random_poly(rng, max_degree=3, max_terms=5)
        if len(f.terms) < 2:
            continue
        x = random_fraction(rng)
        y = random_fraction(rng)
        expected = oracle_vanishing(f, x, y)
        assert sorted(vanishing_subsets(f, x, y)) == sorted(expected)
        assert zero_proper_subset_exists(term_values(f, x, y)) == bool(expected)


def test_zero_subset_detector_against_adversarial_values():
    # zeros and heavy cancellation are the hard cases for the
    # meet-in-the-middle join; compare with full enumeration
    rng = random.Random(60609)
    pool = [Fraction(v) for v in (-2, -1, 0, 0, 1, 1, 2, 3)]
    for _ in range(400):
        size = rng.randint(2, 8)
        values = [rng.choice(pool) for _ in range(size)]
        expected = any(
            sum(values[i] for i in combo) == 0
            for r in range(1, size)
            for combo in itertools.combinations(range(size), r)
        )
        assert zero_proper_subset_exists(values) == expected, values


_SUBSUM_INTS = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=2**64, max_value=2**64 + 3),
    st.integers(min_value=-(2**64) - 3, max_value=-(2**64)),
)


@st.composite
def subsum_lists(draw):
    values = draw(st.lists(_SUBSUM_INTS, max_size=12))
    if len(values) <= 10 and draw(st.booleans()):
        c = draw(_SUBSUM_INTS)
        values += [c, -c]
    return draw(st.permutations(values))


@given(subsum_lists())
def test_zero_subset_detector_matches_combinations(values):
    expected = any(
        sum(combo) == 0
        for size in range(1, len(values))
        for combo in itertools.combinations(values, size)
    )
    assert zero_proper_subset_exists(values) == expected


@pytest.mark.parametrize(
    "values, expected",
    [
        ([0], False),
        ([0, 5], True),
        ([3, -1, -2], False),  # only the full set vanishes
        ([4, 1, -1], True),  # 4 is dropped and 1 - 1 cancels
        ([1, 2, 4, 8], False),  # every term is dropped
        ([1, 2, 3], False),  # 3 ties 1 + 2, so nothing is dropped; no subset vanishes
        ([1, 2, -3], False),  # the same tie; only the full set vanishes
        ([5, -5], False),  # only the full set vanishes
        ([5, -5, 1], True),  # 5 - 5 is a proper subset
        ([Fraction(1, 3), 7, Fraction(-1, 3)], True),
    ],
)
def test_zero_subset_detector_pruned_cases(values, expected):
    assert zero_proper_subset_exists(values) == expected


def test_zero_subset_detector_settles_a_cancelling_pair_without_subset_sums(monkeypatch):
    calls = []
    mask_sums = polynomials._mask_sums

    def counted(values):
        calls.append(values)
        return mask_sums(values)

    monkeypatch.setattr(polynomials, "_mask_sums", counted)
    # 12 is not above 9 + 10 + 9, so the prune drops nothing; 9 - 9 settles it.
    assert zero_proper_subset_exists((9, 10, -9, 12))
    assert calls == []


@st.composite
def pruning_lists(draw):
    """Small ints with zeros and repeats, maybe a planted c, -c and dominating terms."""
    values = draw(st.lists(st.integers(min_value=-4, max_value=4), min_size=1, max_size=6))
    if draw(st.booleans()):
        c = draw(st.integers(min_value=-9, max_value=9))
        values += [c, -c]
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        # Above, at or just below the sum of the others' sizes.
        size = sum(map(abs, values)) + draw(st.integers(min_value=-1, max_value=3))
        values.append(draw(st.sampled_from([size, -size])))
    return draw(st.permutations(values))


_SHORT_FRACTIONS = st.lists(
    st.fractions(min_value=-3, max_value=3, max_denominator=4), min_size=1, max_size=6
)


@given(st.one_of(pruning_lists(), _SHORT_FRACTIONS))
def test_zero_subset_detector_matches_reference(values):
    assert zero_proper_subset_exists(values) == has_zero_proper_subsum(values)


@st.composite
def subsum_rows(draw):
    """Pairs of one term count, as blocks of the audit hold them.

    Values are small or 2^64-sized ints of both signs, with zeros and repeats;
    a pair may hold a planted c, -c and a tail of magnitudes each at, above or
    just below the sum of the ones before it.
    """
    terms = draw(st.integers(min_value=0, max_value=8))
    pairs = []
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        values = draw(st.lists(_SUBSUM_INTS, min_size=terms, max_size=terms))
        if terms >= 2 and draw(st.booleans()):
            c = draw(_SUBSUM_INTS)
            values[:2] = [c, -c]
        for k in range(draw(st.integers(min_value=0, max_value=terms)), terms):
            size = sum(map(abs, values[:k])) + draw(st.integers(min_value=-1, max_value=3))
            values[k] = draw(st.sampled_from([size, -size]))
        pairs.append(draw(st.permutations(values)))
    return terms, pairs


@given(subsum_rows())
def test_zero_subset_flags_match_reference(row):
    terms, pairs = row
    columns = [[values[t] for values in pairs] for t in range(terms)]
    before = [column[:] for column in columns]
    flags = zero_proper_subset_flags(columns)
    # With no terms a row has no columns, so it holds no pairs.
    assert len(flags) == (len(pairs) if terms else 0)
    assert flags == [has_zero_proper_subsum(values) for values in zip(*columns)]
    assert columns == before


def test_zero_subset_flags_settle_superincreasing_pairs_without_a_call(monkeypatch):
    calls = []
    exact = polynomials.zero_proper_subset_exists

    def counted(values):
        calls.append(values)
        return exact(values)

    monkeypatch.setattr(polynomials, "zero_proper_subset_exists", counted)
    pairs = [(1, -2, 4), (3, 7, -20), (-17, 11, 5)]
    columns = [list(column) for column in zip(*pairs)]
    assert zero_proper_subset_flags(columns) == [False] * 3
    assert calls == []
    tied = [(1, -2, 4), (1, 2, -3), (-17, 11, 5)]
    columns = [list(column) for column in zip(*tied)]
    assert zero_proper_subset_flags(columns) == [False] * 3
    assert calls == [(1, 2, -3)]


@st.composite
def composed_or_perturbed(draw):
    coefficients = draw(st.lists(st.integers(min_value=-3, max_value=3), max_size=5))
    monomial = (draw(st.integers(0, 3)), draw(st.integers(0, 3)))
    f = compose(UnivariatePoly(coefficients), monomial)
    extra = draw(st.one_of(st.just(BivariatePoly({})), poly_strategy(max_degree=4, max_terms=2)))
    return BivariatePoly([*f.terms.items(), *extra.terms.items()])


@given(st.one_of(poly_strategy(), composed_or_perturbed()))
def test_classify_agrees_with_witnesses(f):
    assume(not f.is_zero)
    decomposition = classify_monomial_composition(f)
    assert (decomposition is None) == (non_parallel_witnesses(f) is not None)
    if decomposition is not None:
        assert compose(decomposition.g, decomposition.monomial) == f
        assert decomposition.trivial == (len(f.terms) == 1)


def test_classify_single_monomial_is_trivial():
    decomposition = classify_monomial_composition(parse_poly("x^2*y^3"))
    assert decomposition is not None
    assert decomposition.g == UnivariatePoly([0, 1])
    assert decomposition.monomial == (2, 3)
    assert decomposition.trivial


def test_classify_constant_is_trivial():
    decomposition = classify_monomial_composition(parse_poly("5"))
    assert decomposition is not None
    assert decomposition.trivial
    assert compose(decomposition.g, decomposition.monomial) == parse_poly("5")


def test_classify_geometric_shape():
    decomposition = classify_monomial_composition(parse_poly("x*y + x^2*y^2"))
    assert decomposition is not None
    assert decomposition.g == UnivariatePoly([0, 1, 1])
    assert decomposition.monomial == (1, 1)
    assert not decomposition.trivial


def test_classify_sum_is_not_composed():
    assert classify_monomial_composition(parse_poly("x + y")) is None
    assert non_parallel_witnesses(parse_poly("x + y")) == ((0, 1), (1, 0))


def test_classify_gcd_of_multipliers():
    f = parse_poly("1 + x^2*y^2 + x^4*y^4")
    decomposition = classify_monomial_composition(f)
    assert decomposition is not None
    assert decomposition.g == UnivariatePoly([1, 1, 1])
    assert decomposition.monomial == (2, 2)
    assert compose(decomposition.g, decomposition.monomial) == f


def test_classify_univariate_only():
    decomposition = classify_monomial_composition(parse_poly("x + x^3"))
    assert decomposition is not None
    assert decomposition.monomial == (1, 0)
    assert decomposition.g == UnivariatePoly([0, 1, 0, 1])

    decomposition = classify_monomial_composition(parse_poly("x^2 + x^4"))
    assert decomposition is not None
    assert decomposition.monomial == (2, 0)
    assert decomposition.g == UnivariatePoly([0, 1, 1])


def test_classify_constant_plus_monomial_not_trivial():
    decomposition = classify_monomial_composition(parse_poly("1 + x"))
    assert decomposition is not None
    assert not decomposition.trivial
    assert decomposition.monomial == (1, 0)


def test_compose_examples():
    assert compose(UnivariatePoly([0, 1, 1]), (1, 1)) == parse_poly("x*y + x^2*y^2")
    assert compose(UnivariatePoly([0, 1]), (2, 3)) == parse_poly("x^2*y^3")
    assert compose(UnivariatePoly([5]), (3, 1)) == parse_poly("5")


def test_compose_classify_round_trip():
    rng = random.Random(8128)
    for _ in range(200):
        g = random_univariate(rng)
        monomial = random_monomial(rng)
        f = compose(g, monomial)
        decomposition = classify_monomial_composition(f)
        assert decomposition is not None
        assert compose(decomposition.g, decomposition.monomial) == f
        # the found monomial dominates the generating one, and the degrees
        # of the returned g's nonconstant terms are coprime (maximality)
        assert decomposition.monomial[0] >= monomial[0]
        assert decomposition.monomial[1] >= monomial[1]
        degrees = [
            k for k, c in enumerate(decomposition.g.coefficients) if k > 0 and c != 0
        ]
        shared = 0
        for k in degrees:
            shared = gcd(shared, k)
        assert shared == 1
        generating_degrees = [
            k for k, c in enumerate(g.coefficients) if k > 0 and c != 0
        ]
        d0 = 0
        for k in generating_degrees:
            d0 = gcd(d0, k)
        if d0 == 1:
            assert decomposition.monomial == monomial


def test_classify_soundness_witnesses():
    rng = random.Random(65537)
    for _ in range(200):
        f = random_nonexceptional_poly(rng, max_degree=4)
        witnesses = non_parallel_witnesses(f)
        assert witnesses is not None
        (i, j), (i2, j2) = witnesses
        assert i * j2 - j * i2 != 0
        assert (i, j) in f.support and (i2, j2) in f.support


def test_evaluate_compatible_with_composition():
    rng = random.Random(2771)
    for _ in range(100):
        g = random_univariate(rng)
        a, b = random_monomial(rng)
        f = compose(g, (a, b))
        x = random_fraction(rng, nonzero=True)
        y = random_fraction(rng, nonzero=True)
        assert evaluate(f, x, y) == evaluate_univariate(g, x**a * y**b)


def test_format_monomial():
    assert format_monomial((1, 1)) == "x*y"
    assert format_monomial((2, 0)) == "x^2"
    assert format_monomial((0, 3)) == "y^3"
    assert format_monomial((0, 0)) == "1"


def test_univariate_str_and_evaluate():
    g = UnivariatePoly([Fraction(1), Fraction(-1, 2), Fraction(3)])
    assert str(g) == "1 - 1/2*t + 3*t^2"
    assert evaluate_univariate(g, Fraction(2)) == 1 - 1 + 12
    assert UnivariatePoly([]).is_zero
    assert UnivariatePoly([0, 0]).is_zero


def test_poly_equality_and_hash():
    f = parse_poly("x*y + 1")
    g = parse_poly("1 + x*y")
    assert f == g
    assert hash(f) == hash(g)
    assert f != parse_poly("x*y")
