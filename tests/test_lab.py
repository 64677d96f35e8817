import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genutil import (
    all_monomials,
    random_fraction,
    random_ggp,
    random_nonexceptional_poly,
    random_poly,
    random_set,
)
from polyexpand import (
    GGP,
    CapExceeded,
    DistinctnessError,
    ExceptionalPolynomialError,
    FileFamily,
    GeometricFamily,
    GGPFamily,
    audit_injectivity,
    audit_vanishing_subsums,
    cauchy_schwarz_check,
    expansion_sweep,
    make_set,
    multiplicity_histogram,
    parse_family,
    parse_poly,
    productset_size,
    value_multiplicities,
)
from polyexpand import sets as sets_module
from reference import evaluate


def dyadic(n):
    return make_set([Fraction(2) ** k for k in range(1, n + 1)])


def split_row(f, a, value):
    """The (clean, dirty) row of the subsum audit table at value."""
    report = audit_vanishing_subsums(f, a)
    rows = {Fraction(k, report.scale): (c, d) for k, c, d in report.table}
    return rows[value]


def test_split_solutions_clean_only():
    assert split_row(parse_poly("x^2 - y^2"), make_set([1, 2, 3]), Fraction(3)) == (1, 0)


def test_split_solutions_diagonal_value_zero():
    # x^2 - y^2 = 0 on the diagonal: the proper subsums x^2 and -y^2 are
    # nonzero there, so all three solutions are clean
    assert split_row(parse_poly("x^2 - y^2"), make_set([1, 2, 3]), Fraction(0)) == (3, 0)


def test_split_solutions_positive_terms():
    assert split_row(parse_poly("x + y"), make_set([1, 2]), Fraction(3)) == (2, 0)


def test_split_solutions_detects_dirty_pairs():
    # at (1, -1) the subsum x^2 + x*y vanishes, so that solution is dirty
    f = parse_poly("x^2 + x*y - y^2")
    value = evaluate(f, Fraction(1), Fraction(-1))
    assert split_row(f, make_set([-1, 1]), value)[1] >= 1


def test_split_solutions_refuses_single_monomial():
    with pytest.raises(ExceptionalPolynomialError):
        audit_vanishing_subsums(parse_poly("x^2*y^3"), make_set([1, 2]))


def test_audit_consistent_on_random_set():
    rng = random.Random(909)
    a = random_set(rng, max_size=20, nonzero=True)
    report = audit_vanishing_subsums(parse_poly("x^2 - y^2"), a)
    assert report.consistent
    assert report.pairs == len(a) ** 2
    assert sum(c + d for _, c, d in report.table) == len(a) ** 2
    assert report.dirty_bound == 4 * 2**2
    assert report.max_bad_values == 3


def test_audit_dyadic_has_no_dirty_solutions():
    report = audit_vanishing_subsums(parse_poly("x*y + x^2*y^3"), dyadic(8))
    assert report.consistent
    assert all(d == 0 for _, _, d in report.table)


def test_audit_positive_linear():
    report = audit_vanishing_subsums(parse_poly("x + y"), make_set([1, 2]))
    assert report.consistent
    assert all(d == 0 for _, _, d in report.table)
    assert report.pairs == 4
    assert sum(c + d for _, c, d in report.table) == 4


def test_audit_refuses_composed_shapes():
    with pytest.raises(ExceptionalPolynomialError):
        audit_vanishing_subsums(parse_poly("x*y + x^2*y^2"), make_set([1, 2]))


def test_audit_counts_split_by_value():
    rng = random.Random(4242)
    f = random_nonexceptional_poly(rng, max_degree=3, max_terms=4)
    a = random_set(rng, max_size=8, nonzero=True)
    report = audit_vanishing_subsums(f, a)
    hist = multiplicity_histogram(f, a)
    assert {Fraction(k, report.scale): c + d for k, c, d in report.table} == dict(hist.counts)
    assert [Fraction(k, report.scale) for k, _, _ in report.table] == sorted(hist.counts)


def test_audit_threshold_override():
    report = audit_vanishing_subsums(parse_poly("x*y + x^2"), make_set([2, 4, 8]), threshold=1)
    hist = multiplicity_histogram(parse_poly("x*y + x^2"), make_set([2, 4, 8]))
    expected = tuple(v for v, m in hist.counts.items() if m > 1)
    assert report.threshold == 1
    assert tuple(Fraction(k, report.scale) for k in report.high_multiplicity) == expected


def test_audit_reports_full_sum_convention_gap():
    # f = 0 has eight clean solutions on {-2,-1,1,2}; under an
    # any-nonempty-subsum convention they would all count dirty
    a = make_set([-2, -1, 1, 2])
    report = audit_vanishing_subsums(parse_poly("x^2 - y^2"), a)
    zero_split = [(c, d) for k, c, d in report.table if Fraction(k, report.scale) == 0]
    assert zero_split and zero_split[0][0] == 8
    assert report.zero_value_full_sum_solutions == 8


def test_audit_theoretical_threshold_scale():
    report = audit_vanishing_subsums(parse_poly("x + y"), make_set([1, 2]))
    # degree 1, doubling 3/2 -> floor K = 1, so the context bound is the
    # unit-equation constant at (3, 1)
    assert report.theoretical_threshold_log10 == pytest.approx(
        4 * 3**4 * (3 + 3 + 1) * math.log10(24)
    )


def test_audit_is_deterministic():
    f = parse_poly("x^2 - y^2 + x*y")
    a = make_set([-3, -1, 2, 5, 7])
    assert audit_vanishing_subsums(f, a) == audit_vanishing_subsums(f, a)


def test_audit_pair_cap():
    with pytest.raises(CapExceeded):
        audit_vanishing_subsums(parse_poly("x + y"), make_set([1, 2, 3]), max_pairs=4)


def test_audit_charges_subset_sums_to_the_pair_budget():
    # 16 pairs fit under 20, but 3 terms cost 2^2 subset sums per pair.
    f = parse_poly("x^2 - y^2 + 4*x^3*y")
    a = make_set([-1, 0, Fraction(1, 2), 2])
    assert audit_vanishing_subsums(f, a, max_pairs=64).pairs == 16
    with pytest.raises(CapExceeded, match="needs 64 subset sums, above the cap of 20"):
        audit_vanishing_subsums(f, a, max_pairs=20)


def test_subsum_paths_cap_the_support():
    # Degree <= 5 has 21 monomials; without x^5 it has 20, the largest support allowed.
    a = make_set([2, 3])
    at_cap = parse_poly(all_monomials(5) + " - x^5")
    assert len(at_cap.support) == 20
    report = audit_vanishing_subsums(at_cap, a)
    assert report.pairs == 4
    assert sum(c + d for _, c, d in report.table) == 4
    for degree, terms in ((5, 21), (8, 45)):
        f = parse_poly(all_monomials(degree))
        # The term cap is checked before the pair budget, so max_pairs=1 is never reached.
        with pytest.raises(CapExceeded, match=f"needs {terms} terms, above the cap of 20"):
            audit_vanishing_subsums(f, a, max_pairs=1)


def test_reports_are_named_tuples():
    a = make_set([1, 2, 4])
    report = audit_vanishing_subsums(parse_poly("x^2 - y^2"), a)
    falsified = report._replace(consistent=False)
    assert (report.consistent, falsified.consistent) == (True, False)
    assert falsified._replace(consistent=True) == report
    check = cauchy_schwarz_check(parse_poly("x + y"), a)
    energy, image_size, lower_bound, holds = check
    assert (energy, image_size, lower_bound, holds) == (15, 6, Fraction(27, 2), True)
    assert check._replace(holds=False) == (15, 6, Fraction(27, 2), False)


def test_injectivity_single_generator():
    assert audit_injectivity(parse_poly("x*y + x^2*y^3"), GGP((Fraction(2),), (3,)), 5)


def test_injectivity_two_generators():
    g = GGP((Fraction(2), Fraction(3)), (2, 2))
    assert audit_injectivity(parse_poly("x*y + x^2*y^3"), g, 5)


def test_injectivity_refuses_composed_shapes():
    with pytest.raises(ExceptionalPolynomialError):
        audit_injectivity(parse_poly("x*y + x^2*y^2"), GGP((Fraction(2),), (3,)), 5)


def test_injectivity_requires_distinct_products():
    with pytest.raises(DistinctnessError):
        audit_injectivity(
            parse_poly("x + y"), GGP((Fraction(2), Fraction(4)), (3, 3)), 1
        )


def test_cauchy_schwarz_examples():
    check = cauchy_schwarz_check(parse_poly("x*y"), make_set([2, 4, 8]))
    assert (check.energy, check.image_size) == (19, 5)
    assert check.lower_bound == Fraction(81, 5)
    assert check.holds

    check = cauchy_schwarz_check(parse_poly("x*y"), make_set([1, 2]))
    assert check.energy == 6
    assert check.lower_bound == Fraction(16, 3)
    assert check.holds

    check = cauchy_schwarz_check(parse_poly("x^3 - y"), make_set([9]))
    assert check.energy == 1
    assert check.lower_bound == 1
    assert check.holds


def test_sweep_additive_row():
    report = expansion_sweep(parse_poly("x + y"), GeometricFamily(Fraction(2)), [10])
    row = report.rows[0]
    assert (row.set_size, row.productset_size, row.image_size) == (10, 19, 55)
    assert row.doubling == Fraction(19, 10)
    assert row.ratio == Fraction(55, 100)
    assert report.growth_exponent is None


def test_sweep_additive_growth_exponent():
    report = expansion_sweep(
        parse_poly("x + y"), GeometricFamily(Fraction(2)), [8, 16, 32, 64]
    )
    assert report.growth_exponent == pytest.approx(2.0, abs=0.1)
    for row in report.rows:
        assert row.ratio == Fraction(row.N * (row.N + 1), 2 * row.N**2)
        assert 0 < row.ratio <= 1


def test_sweep_refuses_composed_shapes_by_default():
    with pytest.raises(ExceptionalPolynomialError, match="allow_exceptional"):
        expansion_sweep(parse_poly("x*y + x^2*y^2"), GeometricFamily(Fraction(2)), [8])


def test_sweep_override_composed_shape():
    report = expansion_sweep(
        parse_poly("x*y + x^2*y^2"),
        GeometricFamily(Fraction(2)),
        [8, 16, 32, 64],
        allow_exceptional=True,
    )
    assert [row.image_size for row in report.rows] == [15, 31, 63, 127]
    assert report.growth_exponent == pytest.approx(1.0, abs=0.1)


def test_sweep_override_single_monomial():
    # image exponents 2i + 3j on 1..10 miss 6 and 49 out of [5, 50]
    report = expansion_sweep(
        parse_poly("x^2*y^3"), GeometricFamily(Fraction(2)), [10], allow_exceptional=True
    )
    assert report.rows[0].image_size == 44


def test_geometric_family_rejects_degenerate_ratio():
    for ratio in (Fraction(1), Fraction(0), Fraction(-1), 1, 0, -1):
        with pytest.raises(ValueError, match="must not be 0, 1, or -1"):
            GeometricFamily(ratio)


def test_geometric_family_coerces_its_ratio():
    family = GeometricFamily(-3)
    assert type(family.ratio) is Fraction and family == GeometricFamily(ratio=Fraction(-3))
    assert family.describe() == "geometric(-3)"


@pytest.mark.parametrize(
    "ratio", [Fraction(2), Fraction(-3), Fraction(2, 7), Fraction(-3, 2), Fraction(-1, 5)]
)
def test_geometric_family_sample_matches_fraction_powers(ratio):
    for n in (1, 2, 7):
        expected = make_set([ratio**k for k in range(1, n + 1)])
        assert GeometricFamily(ratio).sample(n, max_pairs=10_000) == expected


def test_ggp_family_scales_dims():
    family = GGPFamily(GGP((Fraction(2), Fraction(3)), (1, 1)))
    assert family.sample(2, max_pairs=10**8) == make_set([1, 2, 3, 6])
    report = expansion_sweep(parse_poly("x + y"), family, [1, 2, 3])
    assert [row.set_size for row in report.rows] == [1, 4, 9]


def test_file_family(tmp_path):
    paths = []
    for index, size in enumerate((2, 3)):
        path = tmp_path / f"set{index}.txt"
        path.write_text("\n".join(str(2**k) for k in range(1, size + 1)), encoding="utf-8")
        paths.append(str(path))
    family = FileFamily(tuple(paths))
    report = expansion_sweep(parse_poly("x + y"), family, [1, 2])
    assert [row.set_size for row in report.rows] == [2, 3]
    with pytest.raises(ValueError):
        family.sample(3, max_pairs=10_000)
    with pytest.raises(ValueError, match="at least one path"):
        FileFamily(())
    with pytest.raises(ValueError, match="at least one path"):
        parse_family("files: , ")


def test_parse_family():
    assert parse_family("geometric:2") == GeometricFamily(Fraction(2))
    assert parse_family("ggp:2^[2] * 3^[2]") == GGPFamily(
        GGP((Fraction(2), Fraction(3)), (2, 2))
    )
    assert parse_family("files:a.txt, b.txt") == FileFamily(("a.txt", "b.txt"))
    with pytest.raises(ValueError):
        parse_family("geometric")
    with pytest.raises(ValueError):
        parse_family("arithmetic:2")


def test_sweep_rejects_zero_polynomial():
    with pytest.raises(ValueError):
        expansion_sweep(parse_poly("0"), GeometricFamily(Fraction(2)), [4])


def test_sweep_determinism():
    family = GeometricFamily(Fraction(3, 2))
    first = expansion_sweep(parse_poly("x + y^2"), family, [4, 8])
    second = expansion_sweep(parse_poly("x + y^2"), family, [4, 8])
    assert first == second


def sweep_counts(report):
    return [(row.N, row.set_size, row.productset_size, row.image_size) for row in report.rows]


def per_size_counts(f, family, sizes):
    """Each row counted on its own sample by the per-set kernel."""
    counts = []
    for n in sizes:
        a = family.sample(n)
        counts.append((n, len(a), productset_size(a), len(value_multiplicities(f, a))))
    return counts


ratios = st.fractions(min_value=-9, max_value=9, max_denominator=5).filter(
    lambda q: q not in (0, 1, -1)
)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 2**32),
    st.one_of(ratios.map(GeometricFamily), st.just("ggp")),
    st.lists(st.integers(1, 7), min_size=1, max_size=5),
    st.sampled_from(["random", "nonexceptional", "constant", "monomial"]),
)
def test_sweep_ladder_matches_per_size_kernel(seed, family, sizes, shape):
    rng = random.Random(seed)
    if family == "ggp":
        # at most 36 elements; the pool holds both 2 and 1/2, so boxes may collide
        family = GGPFamily(random_ggp(rng, max_rank=2, max_dim=2))
        sizes = [1 + n % 3 for n in sizes]
    c = random_fraction(rng, nonzero=True)
    f = {
        "random": lambda: random_poly(rng),
        "nonexceptional": lambda: random_nonexceptional_poly(rng),
        "constant": lambda: parse_poly(str(c)),
        "monomial": lambda: parse_poly(f"{c}*x^{rng.randint(0, 3)}*y^{rng.randint(0, 3)}"),
    }[shape]()
    report = expansion_sweep(f, family, sizes, allow_exceptional=shape != "nonexceptional")
    assert sweep_counts(report) == per_size_counts(f, family, sizes)


def write_family(tmp_path, *sets_text):
    paths = []
    for index, text in enumerate(sets_text):
        path = tmp_path / f"set{index}.txt"
        path.write_text(text, encoding="utf-8")
        paths.append(str(path))
    return FileFamily(tuple(paths))


@pytest.mark.parametrize(
    "first, second",
    [
        ("1/2\n3\n", "1/2\n3\n-5/6\n7\n"),  # nests, on a finer scale
        ("1/2\n3\n", "1/3\n3\n-5/6\n7\n"),  # 1/2 is gone
        ("1\n2\n", "1/3\n2/3\n"),  # keys 1, 2 over the scale 3 are other values
        ("1/3\n2/3\n", "0\n1/2\n"),  # the scale 3 does not divide 2
    ],
)
def test_file_ladder_matches_per_size_kernel(tmp_path, first, second):
    family = write_family(tmp_path, first, second)
    f = parse_poly("x^2 + 3*y")
    for sizes in ([1, 2], [2, 1, 2]):
        report = expansion_sweep(f, family, sizes)
        assert sweep_counts(report) == per_size_counts(f, family, sizes)


def test_nested_ladder_walks_only_the_largest_pairs(tmp_path, monkeypatch):
    walked = []
    rows = sets_module._rows

    def counting_rows(columns, xr=slice(None), yr=slice(None)):
        _, coefficients, powers = columns[0]
        walked.append(len(coefficients[xr]) * len(powers[yr]))
        return rows(columns, xr, yr)

    monkeypatch.setattr(sets_module, "_rows", counting_rows)
    f = parse_poly("x^2 + y")
    expansion_sweep(f, GeometricFamily(Fraction(-3, 2)), [6, 2, 4, 4])
    # f over A_6 x A_6 once (36); the product set is symmetric, so its shells skip
    # the mirrored old x new walk: 2*2 + 2*4 + 2*6 = 24, against 36.
    assert sum(walked) == 36 + 24
    walked.clear()
    expansion_sweep(f, write_family(tmp_path, "1\n2\n", "2\n3\n4\n"), [1, 2])
    assert sum(walked) == 2 * (2**2 + 3**2)


def test_sweep_checks_sizes_in_the_given_order():
    f = parse_poly("x + y")
    with pytest.raises(CapExceeded, match="needs 20000 elements"):
        expansion_sweep(f, GeometricFamily(Fraction(2)), [20000, 0])
    with pytest.raises(ValueError, match="positive, got 0"):
        expansion_sweep(f, GeometricFamily(Fraction(2)), [0, 20000])
