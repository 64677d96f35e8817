"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see every line. Each
test enforces its stated runtime budget alongside the exact checks.
"""

import random
import time
from fractions import Fraction

import reference
from genutil import (
    dyadic,
    random_ggp,
    random_monomial,
    random_nonexceptional_poly,
    random_poly,
    random_set,
    random_univariate,
)
from polyexpand import (
    GGP,
    UnivariatePoly,
    amoroso_viada_bound,
    audit_injectivity,
    audit_vanishing_subsums,
    classify_monomial_composition,
    distinctness_check,
    energy,
    expansion_sweep,
    GeometricFamily,
    image_set,
    make_set,
    multiplicative_rank,
    multiplicity_histogram,
    non_parallel_witnesses,
    parse_poly,
    productset,
)


def _report(number, ok, detail):
    print(f"acceptance {number:2d}: {'PASS' if ok else 'FAIL'}  {detail}")


def test_criterion_1_dyadic_product_sets():
    start = time.perf_counter()
    sizes = {n: len(productset(dyadic(n), dyadic(n))) for n in (3, 10, 50)}
    elapsed = time.perf_counter() - start
    ok = all(sizes[n] == 2 * n - 1 for n in sizes) and elapsed < 1.0
    _report(1, ok, f"|AA| = {sizes}, expected 2N-1, {elapsed:.3f}s (< 1s)")
    assert sizes == {3: 5, 10: 19, 50: 99}
    assert elapsed < 1.0


def test_criterion_2_single_monomial_image_identity():
    # f(2^i, 2^j) = 2^(2i + 3j), so f(A,A) is 2 raised to the exponents
    # {2i + 3j : 1 <= i,j <= N}, enumerated here without the package. With
    # 2i + 3j = 5 + 2a + 3b (0 <= a,b <= N-1) these cover [5, 5N] except 6
    # (it needs 2a + 3b = 1) and, symmetrically, 5N-1: 5N-6 values for N >= 2.
    f = parse_poly("x^2*y^3")
    start = time.perf_counter()
    images = {n: image_set(f, dyadic(n)) for n in (3, 10, 50)}
    elapsed = time.perf_counter() - start
    exponents = {
        n: {2 * i + 3 * j for i in range(1, n + 1) for j in range(1, n + 1)}
        for n in images
    }
    expected = {n: {Fraction(2) ** e for e in exponents[n]} for n in images}
    targets = {n: 5 * n - 6 for n in images}
    values = {n: set(images[n]) for n in images}
    sizes = {n: len(images[n]) for n in images}
    ok = values == expected and sizes == targets and elapsed < 5.0
    _report(2, ok, f"|f(A,A)| = {sizes}, expected 5N-6 (exponents 2i+3j miss 6 and 5N-1), "
                   f"{elapsed:.3f}s (< 5s)")
    assert elapsed < 5.0
    assert {n: len(exponents[n]) for n in exponents} == targets
    assert values == expected


def test_criterion_3_composed_shape_image_identity():
    f = parse_poly("x*y + x^2*y^2")
    start = time.perf_counter()
    sizes = {n: len(image_set(f, dyadic(n))) for n in (3, 10, 50)}
    elapsed = time.perf_counter() - start
    ok = all(sizes[n] == 2 * n - 1 for n in sizes) and elapsed < 5.0
    _report(3, ok, f"|f(A,A)| = {sizes}, expected 2N-1, {elapsed:.3f}s (< 5s)")
    assert sizes == {3: 5, 10: 19, 50: 99}
    assert elapsed < 5.0


def test_criterion_4_classifier():
    start = time.perf_counter()
    geometric = classify_monomial_composition(parse_poly("x*y + x^2*y^2"))
    monomial = classify_monomial_composition(parse_poly("x^2*y^3"))
    named_ok = (
        geometric is not None
        and geometric.g == UnivariatePoly([0, 1, 1])
        and geometric.monomial == (1, 1)
        and monomial is not None
        and monomial.g == UnivariatePoly([0, 1])
        and monomial.monomial == (2, 3)
        and all(
            classify_monomial_composition(parse_poly(text)) is None
            for text in ("x + y", "x + x*y", "x*y + x^2*y^3")
        )
    )

    rng = random.Random(1001)
    round_trips = 0
    for _ in range(500):
        g = random_univariate(rng)
        m = random_monomial(rng)
        f = reference.compose(g, m)
        decomposition = classify_monomial_composition(f)
        if (
            decomposition is not None
            and reference.compose(decomposition.g, decomposition.monomial) == f
            and decomposition.monomial[0] >= m[0]
            and decomposition.monomial[1] >= m[1]
        ):
            round_trips += 1

    rejections = 0
    for _ in range(500):
        f = random_nonexceptional_poly(rng, max_degree=4)
        witnesses = non_parallel_witnesses(f)
        if witnesses is not None:
            (i, j), (i2, j2) = witnesses
            if (
                i * j2 - j * i2 != 0
                and (i, j) in f.support
                and (i2, j2) in f.support
                and classify_monomial_composition(f) is None
            ):
                rejections += 1
    elapsed = time.perf_counter() - start
    ok = named_ok and round_trips == 500 and rejections == 500
    _report(
        4,
        ok,
        f"named shapes ok = {named_ok}, round trips {round_trips}/500, "
        f"witnessed rejections {rejections}/500, {elapsed:.2f}s",
    )
    assert named_ok
    assert round_trips == 500
    assert rejections == 500


def test_criterion_5_energy_oracle_equivalence():
    rng = random.Random(5005)
    start = time.perf_counter()
    checked = 0
    for _ in range(100):
        a = random_set(rng, max_size=10)
        f = random_poly(rng, max_degree=4)
        pair_values = [reference.evaluate(f, x, y) for x in a for y in a]
        naive = sum(1 for v in pair_values for w in pair_values if v == w)
        hist = multiplicity_histogram(f, a)
        e = energy(f, a)
        assert e == naive
        assert sum(hist.counts.values()) == len(a) ** 2
        assert e >= Fraction(len(a) ** 4, len(hist.counts))
        checked += 1
    elapsed = time.perf_counter() - start
    ok = checked == 100 and elapsed < 30.0
    _report(5, ok, f"{checked}/100 sets match the quadruple oracle, {elapsed:.2f}s (< 30s)")
    assert ok


def test_criterion_6_growth_exponents():
    start = time.perf_counter()
    additive = expansion_sweep(
        parse_poly("x + y"), GeometricFamily(Fraction(2)), [8, 16, 32, 64]
    )
    ratios_ok = all(
        row.ratio == Fraction(row.N * (row.N + 1), 2 * row.N**2) for row in additive.rows
    )
    composed = expansion_sweep(
        parse_poly("x*y + x^2*y^2"),
        GeometricFamily(Fraction(2)),
        [8, 16, 32, 64],
        allow_exceptional=True,
    )
    elapsed = time.perf_counter() - start
    ok = (
        ratios_ok
        and abs(additive.growth_exponent - 2.0) <= 0.1
        and abs(composed.growth_exponent - 1.0) <= 0.1
        and elapsed < 60.0
    )
    _report(
        6,
        ok,
        f"x+y exponent {additive.growth_exponent:.3f} (2.0 +/- 0.1), ratios exact = "
        f"{ratios_ok}, x*y+x^2*y^2 exponent {composed.growth_exponent:.3f} "
        f"(1.0 +/- 0.1), {elapsed:.2f}s (< 60s)",
    )
    assert ratios_ok
    assert abs(additive.growth_exponent - 2.0) <= 0.1
    assert abs(composed.growth_exponent - 1.0) <= 0.1
    assert elapsed < 60.0


def test_criterion_7_vanishing_subsum_audit():
    rng = random.Random(7007)
    start = time.perf_counter()
    consistent = 0
    for _ in range(50):
        f = random_nonexceptional_poly(rng, max_degree=3, max_terms=10)
        a = random_set(rng, max_size=30, nonzero=True)
        report = audit_vanishing_subsums(f, a)
        assert report.consistent, (
            f"{len(report.bad_values)} values exceed the dirty bound for f = {f}"
        )
        consistent += 1
    elapsed = time.perf_counter() - start
    ok = consistent == 50 and elapsed < 60.0
    _report(7, ok, f"{consistent}/50 audits consistent, {elapsed:.2f}s (< 60s)")
    assert ok


def test_criterion_8_injectivity_audit():
    rng = random.Random(8008)
    start = time.perf_counter()
    passed = 0
    for _ in range(20):
        f = random_nonexceptional_poly(rng, max_degree=3)
        t = f.degree
        while True:
            g = random_ggp(rng, max_rank=3, max_dim=3)
            if g.box_size(t) <= 10_000 and distinctness_check(g, t):
                break
        # audit_injectivity compares int value pairs; reference.injective Fraction ones
        assert audit_injectivity(f, g, t)
        assert reference.injective(f, g)
        passed += 1
    elapsed = time.perf_counter() - start
    ok = passed == 20 and elapsed < 60.0
    _report(8, ok, f"{passed}/20 boxes injective, the reference agrees, "
               f"{elapsed:.2f}s (< 60s)")
    assert ok


def test_criterion_9_unit_equation_bound():
    start = time.perf_counter()
    exact_ok = (
        amoroso_viada_bound(1, 0).value == 16777216
        and amoroso_viada_bound(1, 1).value == 68719476736
    )
    grid = {
        (n, r): amoroso_viada_bound(n, r).log10
        for n in range(1, 6)
        for r in range(0, 5)
    }
    monotone = all(
        grid[(n, r)] < grid[(n, r + 1)] for n in range(1, 6) for r in range(0, 4)
    ) and all(grid[(n, r)] < grid[(n + 1, r)] for n in range(1, 5) for r in range(0, 5))
    elapsed = time.perf_counter() - start
    ok = exact_ok and monotone and elapsed < 1.0
    _report(
        9,
        ok,
        f"exact values ok = {exact_ok}, log10 grid monotone = {monotone}, "
        f"{elapsed:.3f}s (< 1s)",
    )
    assert ok


def test_criterion_10_structure_detection():
    start = time.perf_counter()
    ranks_ok = (
        multiplicative_rank(make_set([2, 4, 8])) == 1
        and multiplicative_rank(make_set([2, 3, 6])) == 2
        and multiplicative_rank(make_set([1])) == 0
    )

    box_a = GGP((Fraction(2), Fraction(3)), (3, 3))
    box_b = GGP((Fraction(2), Fraction(4)), (3, 3))

    def pairwise_distinct(box, t):
        values = [value for _, value in reference.box_members(box, t)]
        return all(
            values[i] != values[k]
            for i in range(len(values))
            for k in range(i + 1, len(values))
        )

    distinct_ok = (
        distinctness_check(box_a, 2)
        and pairwise_distinct(box_a, 2)
        and not distinctness_check(box_b, 1)
        and not pairwise_distinct(box_b, 1)
    )
    elapsed = time.perf_counter() - start
    ok = ranks_ok and distinct_ok and elapsed < 1.0
    _report(
        10,
        ok,
        f"ranks ok = {ranks_ok}, distinctness vs pairwise oracle ok = {distinct_ok}, "
        f"{elapsed:.3f}s (< 1s)",
    )
    assert ok
