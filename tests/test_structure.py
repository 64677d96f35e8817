import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from genutil import random_fraction, random_ggp, random_set, run_python_with_two_cpu_seconds
from polyexpand import (
    DEFAULT_MAX_PAIRS,
    GGP,
    CapExceeded,
    ParallelVectorsError,
    amoroso_viada_bound,
    distinctness_check,
    ggp_enumerate,
    ggp_power,
    make_set,
    multiplicative_rank,
    parse_ggp_spec,
    productset,
    solve_exponent_system,
)


def gauss_rank(matrix):
    """Rank over the rationals by plain Gaussian elimination."""
    rows = [[Fraction(v) for v in row] for row in matrix]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][col]
        for i in range(rank + 1, len(rows)):
            if rows[i][col] != 0:
                scale = rows[i][col] / lead
                rows[i] = [a - scale * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


# Small primes, plus primes above 10^6 that only gcds (not trial division to
# 10^6) can separate once they sit inside composites.
PRIME_POOL = (
    2, 3, 5, 7, 11, 13, 1000003, 1000033, 1000037, 1000039, 10**9 + 7, 10**9 + 9
)


def test_rank_examples():
    assert multiplicative_rank(make_set([2, 4, 8])) == 1
    assert multiplicative_rank(make_set([2, 3, 6])) == 2
    assert multiplicative_rank(make_set([1])) == 0


def test_rank_ignores_signs():
    assert multiplicative_rank(make_set([-1, 1])) == 0
    assert multiplicative_rank(make_set([-2, 2])) == 1


def test_rank_rejects_zero():
    with pytest.raises(ValueError):
        multiplicative_rank(make_set([0, 2]))


def test_rank_of_powers_is_one():
    rng = random.Random(24)
    for _ in range(10):
        while True:
            q = random_fraction(rng, max_numerator=7, nonzero=True)
            if q not in (1, -1):
                break
        n = rng.randint(1, 6)
        assert multiplicative_rank(make_set([q**k for k in range(1, n + 1)])) == 1


def test_rank_invariant_under_self_product():
    rng = random.Random(25)
    for _ in range(10):
        a = random_set(rng, max_size=6, positive=True)
        assert multiplicative_rank(productset(a, a)) == multiplicative_rank(a)


def test_rank_with_shared_composite_cofactor():
    c = (10**9 + 7) * (10**9 + 9)
    a = make_set([Fraction(c), Fraction(c) ** 2])
    assert multiplicative_rank(a) == 1


def test_rank_sees_primes_hidden_in_composites():
    p, q, r = 1000003, 1000033, 1000037
    # pq / pr = q / r, so the three elements span a rank-2 lattice
    assert multiplicative_rank(make_set([p * q, p * r, Fraction(q, r)])) == 2


def test_rank_of_many_coprime_denominators():
    primes = [n for n in range(2, 1224) if all(n % d for d in range(2, math.isqrt(n) + 1))]
    assert len(primes) == 200
    assert multiplicative_rank(make_set([Fraction(1, p) for p in primes])) == 200


def test_rank_matches_exponent_matrix_over_prime_pool():
    rng = random.Random(1000003)
    for composite in [False] * 200 + [True] * 200:
        nrows = rng.randint(1, 6)
        count = rng.randint(1, 5)
        primes = rng.sample(PRIME_POOL, 2 * count if composite else count)
        if composite:
            # Products of disjoint prime pairs: pairwise coprime, so just as independent.
            primes = [p * q for p, q in zip(primes[::2], primes[1::2])]
        matrix = [[rng.randint(-3, 3) for _ in primes] for _ in range(nrows)]
        elements = []
        for row in matrix:
            value = Fraction(rng.choice((-1, 1)))
            for prime, exp in zip(primes, row):
                value *= Fraction(prime) ** exp
            elements.append(value)
        # duplicate rows collapse in the set; the rank of the distinct ones is the same
        assert multiplicative_rank(make_set(elements)) == gauss_rank(matrix), matrix


def test_rank_eliminates_over_the_shorter_side():
    # Tall: a 6x6 box over two primes has 36 rows over a base of 2.
    tall = [[i, j] for i in range(6) for j in range(6)]
    # Wide: 3 rows over 6 primes, the third the sum of the others.
    wide = [[1, 2, 0, 1, 0, 3], [0, 1, -1, 0, 2, 0], [1, 3, -1, 1, 2, 3]]
    for matrix, primes, rank in ((tall, (2, 3), 2), (wide, (2, 3, 5, 7, 11, 13), 2)):
        elements = [math.prod(Fraction(p) ** e for p, e in zip(primes, row)) for row in matrix]
        assert multiplicative_rank(make_set(elements)) == gauss_rank(matrix) == rank


@pytest.mark.parametrize(
    "values, rank",
    [
        # 6 divides the numerators of 6 and 36/35 and the denominators of 1/6 and 35/6.
        ([6, Fraction(1, 6), Fraction(35, 6), Fraction(36, 35)], 2),
        # Each exponent row of (6, 35) is a multiple of (1, -1).
        ([Fraction(6, 35), Fraction(35, 6), Fraction(36, 1225)], 1),
    ],
)
def test_rank_over_a_composite_base(values, rank):
    from polyexpand.structure import _coprime_base

    integers = {m for v in map(Fraction, values) for m in v.as_integer_ratio()}
    assert sorted(_coprime_base(integers, len(values), DEFAULT_MAX_PAIRS)) == [6, 35]
    assert multiplicative_rank(make_set(values)) == rank


def test_coprime_base_is_pairwise_coprime_and_rebuilds_inputs():
    from polyexpand.structure import _coprime_base, _strip

    rng = random.Random(1000033)
    for _ in range(200):
        integers = []
        for _ in range(rng.randint(0, 6)):
            n = 1
            for prime in rng.sample(PRIME_POOL, rng.randint(0, 4)):
                n *= prime ** rng.randint(1, 5)
            integers.append(n)
        base = _coprime_base(integers, len(integers), DEFAULT_MAX_PAIRS)
        assert all(b > 1 for b in base)
        for i, b in enumerate(base):
            for c in base[i + 1:]:
                assert math.gcd(b, c) == 1, (b, c)
        for n in integers:
            rebuilt = 1
            for b in base:
                rebuilt *= b ** _strip(n, b)[0]
            assert rebuilt == n, (n, base)


def test_strip_counts_exponents():
    from polyexpand.structure import _strip

    for b in (2, 3, 6, 10**9 + 7):
        for e in (0, 1, 2, 3, 7, 8, 100, 1000):
            for cofactor in (1, 5 * 7):
                if cofactor > 1 and math.gcd(cofactor, b) > 1:
                    continue
                assert _strip(cofactor * b**e, b) == (e, cofactor)


def test_integer_rank_matches_gauss_oracle():
    from polyexpand.structure import _integer_rank

    rng = random.Random(40320)
    for _ in range(300):
        nrows = rng.randint(0, 5)
        ncols = rng.randint(1, 5)
        matrix = [
            [rng.randint(-6, 6) for _ in range(ncols)] for _ in range(nrows)
        ]
        assert _integer_rank(matrix) == gauss_rank(matrix), matrix
    # rank-deficient products of a thin matrix are a classic trap
    base = [[1, 2, 3], [2, 4, 6], [1, 0, 1], [3, 2, 5]]
    assert _integer_rank(base) == gauss_rank(base) == 2


@st.composite
def integer_matrices(draw):
    """Square, tall and wide matrices up to 12 x 12 with entries of both signs,
    dense or mostly zero, zeroed rows and columns, and rows planted as integer
    combinations of others. In a mostly-zero matrix, rows skip pivots before
    the elimination updates them."""
    nrows, ncols = draw(st.integers(0, 12)), draw(st.integers(1, 12))
    dense = st.one_of(st.integers(-3, 3), st.integers(-10**6, 10**6))
    sparse = st.integers(0, 3).flatmap(lambda k: st.just(0) if k else dense)
    entry = draw(st.sampled_from([dense, sparse]))
    rows = [draw(st.lists(entry, min_size=ncols, max_size=ncols)) for _ in range(nrows)]
    if nrows:
        index = st.integers(0, nrows - 1)
        for i in draw(st.lists(index, max_size=2)):
            rows[i] = [0] * ncols
        for j in draw(st.lists(st.integers(0, ncols - 1), max_size=2)):
            for row in rows:
                row[j] = 0
        for i in draw(st.lists(index, max_size=3)):
            coefficients = draw(st.lists(st.integers(-4, 4), min_size=nrows, max_size=nrows))
            coefficients[i] = 0
            rows[i] = [sum(c * row[j] for c, row in zip(coefficients, rows)) for j in range(ncols)]
    return draw(st.permutations(rows))


@settings(max_examples=300, deadline=None)
@given(integer_matrices())
def test_integer_rank_matches_gauss_on_dense_and_deficient_matrices(matrix):
    from polyexpand.structure import _integer_rank

    assert _integer_rank(matrix) == gauss_rank(matrix)


def test_integer_rank_of_a_dense_60_by_60_matrix_plus_a_dependent_row():
    from polyexpand.structure import _integer_rank

    rng = random.Random(60)
    n = 60
    lower = [[rng.randint(-1, 1) if j < i else int(i == j) for j in range(n)] for i in range(n)]
    upper = [[rng.randint(-1, 1) if j > i else int(i == j) for j in range(n)] for i in range(n)]
    # Both factors are unitriangular, so the dense product has determinant 1.
    matrix = [[sum(map(math.prod, zip(row, col))) for col in zip(*upper)] for row in lower]
    matrix.append([3 * x - 2 * y for x, y in zip(matrix[7], matrix[41])])
    assert _integer_rank(matrix) == 60
    assert _integer_rank(matrix[::-1]) == 60
    # Without row 0, the planted row adds nothing to rows 1..59.
    assert _integer_rank(matrix[1:]) == 59


def test_integer_rank_of_a_600_by_600_diagonal_in_two_cpu_seconds():
    # A row with a zero in the pivot column is not touched, so a diagonal costs
    # n^2 entry steps, not n^3. The child gets 2 s of CPU; scaling every lower
    # row at every pivot takes several times that, and the child is killed.
    code = (
        "from polyexpand.structure import _integer_rank\n"
        "print(_integer_rank([[-(i == j) for j in range(600)] for i in range(600)]))\n"
    )
    result = run_python_with_two_cpu_seconds(["-c", code])
    assert result.stdout == "600\n", result.stderr


def test_rank_budget_is_charged_before_elimination(monkeypatch):
    from polyexpand import structure

    # Four elements over the base {2, 3, 5, 7}: 4 * 4 * min(4, 4) entry updates.
    a = make_set([2, 3, 6, Fraction(5, 7)])
    assert multiplicative_rank(a, max_pairs=64) == 3
    monkeypatch.setattr(structure, "_integer_rank", lambda matrix: pytest.fail("eliminated"))
    with pytest.raises(CapExceeded) as info:
        multiplicative_rank(a, max_pairs=63)
    assert str(info.value) == (
        "entry update budget exceeded: multiplicative rank needs 64 entry updates, "
        "above the cap of 63; raise it with --max-pairs"
    )


def test_rank_budget_is_charged_as_the_base_grows():
    # The first 4,000 primes refine to a base of 4,000 integers, each stripped
    # against all before it; their reciprocals give the same base, and building
    # that set fits in the child's 2 s of CPU too (test_sets). Refining the whole
    # base before charging takes several times 2 s, while the charge 4000 * n * n
    # for a base of n integers passes 10^8 at n = 159.
    primes = [p for p in range(2, 37814) if all(p % d for d in range(2, math.isqrt(p) + 1))]
    assert len(primes) == 4000
    code = (
        "import sys\n"
        "from polyexpand import CapExceeded, make_set, multiplicative_rank\n"
        "try:\n"
        "    multiplicative_rank(make_set(map(int, sys.argv[1:])))\n"
        "except CapExceeded as exc:\n"
        "    print(exc)\n"
    )
    result = run_python_with_two_cpu_seconds(["-c", code, *map(str, primes)])
    assert result.stdout == (
        "entry update budget exceeded: multiplicative rank needs 101124000 entry updates, "
        "above the cap of 100000000; raise it with --max-pairs\n"
    ), result.stderr


def test_ggp_validation():
    with pytest.raises(ValueError, match="positive and not 1, got 1"):
        GGP((Fraction(1),), (2,))
    with pytest.raises(ValueError, match="positive and not 1, got -2"):
        GGP((Fraction(-2),), (2,))
    with pytest.raises(ValueError, match="box dimensions must be positive, got 0"):
        GGP((Fraction(2),), (0,))
    with pytest.raises(ValueError, match="one box dimension is needed per generator"):
        GGP((Fraction(2), Fraction(3)), (2,))
    with pytest.raises(ValueError, match="positive and not 1, got 1"):
        GGP(dims=[2], generators=[1])


def test_ggp_coerces_its_fields_and_is_a_named_tuple():
    g = GGP([2, Fraction(3, 2)], iter([2, 1]))
    assert g.generators == (2, Fraction(3, 2)) and g.dims == (2, 1)
    assert [type(v) for v in g.generators + g.dims] == [Fraction, Fraction, int, int]
    assert g == GGP(generators=(Fraction(2), Fraction(3, 2)), dims=(2, 1))
    generators, dims = g
    assert (generators, dims) == g == ((2, Fraction(3, 2)), (2, 1))
    assert hash(g) == hash(GGP((2, Fraction(3, 2)), (2, 1)))
    assert repr(g) == "GGP(generators=(Fraction(2, 1), Fraction(3, 2)), dims=(2, 1))"
    with pytest.raises(AttributeError):
        g.dims = (3, 3)


def test_empty_ggp_is_singleton():
    g = GGP((), ())
    assert ggp_power(g, 1) == make_set([1])
    assert distinctness_check(g, 3)


def test_ggp_power_examples():
    assert ggp_power(GGP((Fraction(2),), (3,)), 1) == make_set([1, 2, 4])
    assert ggp_power(GGP((Fraction(2), Fraction(3)), (2, 2)), 1) == make_set([1, 2, 3, 6])
    assert ggp_power(GGP((Fraction(2),), (2,)), 2) == make_set([1, 2, 4, 8])


def test_ggp_power_cap():
    with pytest.raises(CapExceeded):
        ggp_power(GGP((Fraction(2),), (100,)), 1, max_pairs=100)


def test_box_builders_default_to_the_default_pair_budget():
    # DEFAULT_MAX_PAIRS = 10^8 holds a generated set to 10^4 elements.
    fits = GGP((Fraction(2), Fraction(3)), (100, 100))
    assert len(ggp_power(fits, 1)) == 10_000
    assert distinctness_check(fits, 1)
    assert len(ggp_enumerate(fits)[1]) == 10_000
    over = GGP((Fraction(2), Fraction(3)), (101, 100))
    for build in (ggp_power, distinctness_check, ggp_enumerate):
        with pytest.raises(CapExceeded, match="needs 10100 elements, above the cap of 10000"):
            build(over, 1)


def test_distinctness_examples():
    assert distinctness_check(GGP((Fraction(2), Fraction(3)), (3, 3)), 2)
    # 2^2 * 4^0 = 2^0 * 4^1, so the box on {2, 4} collides already at t = 1
    assert not distinctness_check(GGP((Fraction(2), Fraction(4)), (3, 3)), 1)
    assert distinctness_check(GGP((Fraction(2),), (1,)), 1)


def test_distinctness_matches_pairwise_oracle():
    rng = random.Random(31415)
    for _ in range(25):
        g = random_ggp(rng, max_rank=3, max_dim=3)
        t = rng.randint(1, 3)
        if g.box_size(t) > 10_000:
            continue
        values = [value for _, value in reference.box_members(g, t)]
        if len(values) <= 400:
            all_distinct = all(
                values[i] != values[k]
                for i in range(len(values))
                for k in range(i + 1, len(values))
            )
        else:
            ordered = sorted(values)
            all_distinct = all(a != b for a, b in zip(ordered, ordered[1:]))
        assert distinctness_check(g, t) == all_distinct


def test_box_builders_match_fraction_oracle():
    # 2, 4, 6, 9/4 and 10/9 share primes; 1/2 and 3/5 are reciprocals of 2 and 5/3.
    pool = [Fraction(v) for v in ("2", "4", "6", "9/4", "10/9", "1/2", "5/3", "3/5")]
    rng = random.Random(2718)
    outcomes = set()
    for _ in range(40):
        rank = rng.randint(0, 3)
        g = GGP(tuple(rng.sample(pool, rank)), tuple(rng.randint(1, 3) for _ in range(rank)))
        for t in (1, 2, 3):
            members = reference.box_members(g, t)
            scale, keys = ggp_enumerate(g, t)
            values = [value for _, value in members]
            assert [Fraction(k, scale) for k in keys] == values
            assert ggp_power(g, t) == make_set(values)
            distinct = len(set(values)) == len(values)
            assert distinctness_check(g, t) == distinct
            outcomes.add((rank, distinct))
    assert {(0, True), (3, True), (3, False)} <= outcomes


def test_parse_ggp_spec():
    g = parse_ggp_spec("2^[4] * 3^[4]")
    assert g.generators == (Fraction(2), Fraction(3))
    assert g.dims == (4, 4)
    assert g.describe() == "2^[4] * 3^[4]"
    assert parse_ggp_spec(g.describe()) == g


def test_parse_ggp_spec_fraction_generator():
    g = parse_ggp_spec("3/2^[5]")
    assert g.generators == (Fraction(3, 2),)
    assert g.dims == (5,)


@pytest.mark.parametrize("bad", ["", "2^[", "2^[-1]", "2[3]", "2^3", "^[2]", "2^[a]"])
def test_parse_ggp_spec_rejects(bad):
    with pytest.raises(ValueError):
        parse_ggp_spec(bad)


def test_solver_examples():
    assert solve_exponent_system((1, 1), (2, 3), [5], [13]) == ((2,), (3,))
    assert solve_exponent_system((1, 0), (0, 1), [4, -7], [2, 9]) == ((4, -7), (2, 9))
    assert solve_exponent_system((1, 1), (2, 3), [0], [1]) == ((-1,), (1,))
    assert solve_exponent_system((1, 1), (2, 3), [1], [1]) == ((2,), (-1,))


def test_solver_returns_none_without_integer_solution():
    assert solve_exponent_system((2, 0), (0, 2), [1], [0]) is None


def test_solver_rejects_parallel_vectors():
    with pytest.raises(ParallelVectorsError):
        solve_exponent_system((1, 1), (2, 2), [1], [2])
    with pytest.raises(ParallelVectorsError):
        solve_exponent_system((0, 0), (1, 2), [1], [2])


def test_solver_length_mismatch():
    with pytest.raises(ValueError):
        solve_exponent_system((1, 0), (0, 1), [1, 2], [3])


def test_solver_round_trips_known_solutions():
    rng = random.Random(112358)
    for _ in range(200):
        while True:
            v1 = (rng.randint(0, 4), rng.randint(0, 4))
            v2 = (rng.randint(0, 4), rng.randint(0, 4))
            if v1[0] * v2[1] - v1[1] * v2[0] != 0:
                break
        xs = [rng.randint(-9, 9) for _ in range(rng.randint(0, 4))]
        ys = [rng.randint(-9, 9) for _ in range(len(xs))]
        t1 = [v1[0] * x + v1[1] * y for x, y in zip(xs, ys)]
        t2 = [v2[0] * x + v2[1] * y for x, y in zip(xs, ys)]
        assert solve_exponent_system(v1, v2, t1, t2) == (tuple(xs), tuple(ys))


def test_solver_solutions_satisfy_equations():
    rng = random.Random(95)
    for _ in range(200):
        v1 = (rng.randint(0, 5), rng.randint(0, 5))
        v2 = (rng.randint(0, 5), rng.randint(0, 5))
        if v1[0] * v2[1] - v1[1] * v2[0] == 0:
            continue
        t1 = [rng.randint(-20, 20) for _ in range(3)]
        t2 = [rng.randint(-20, 20) for _ in range(3)]
        solution = solve_exponent_system(v1, v2, t1, t2)
        if solution is None:
            continue
        xs, ys = solution
        for k in range(3):
            assert v1[0] * xs[k] + v1[1] * ys[k] == t1[k]
            assert v2[0] * xs[k] + v2[1] * ys[k] == t2[k]


def test_bound_values():
    assert amoroso_viada_bound(1, 0).value == 8**8 == 16777216
    assert amoroso_viada_bound(1, 1).value == 8**12 == 68719476736
    b = amoroso_viada_bound(3, 2)
    assert b.value == 24**3240
    assert math.isclose(b.log10, 3240 * math.log10(24))


def test_bound_monotone_grid():
    grid = {
        (n, r): amoroso_viada_bound(n, r).log10 for n in range(1, 6) for r in range(0, 5)
    }
    for n in range(1, 6):
        for r in range(0, 4):
            assert grid[(n, r)] < grid[(n, r + 1)]
    for n in range(1, 5):
        for r in range(0, 5):
            assert grid[(n, r)] < grid[(n + 1, r)]


def test_bound_digit_cap():
    # n = 6, r = 4 has about 270k digits, just above the cap of 200k
    with pytest.raises(CapExceeded, match="needs 270183 digits, above the cap of 200000"):
        amoroso_viada_bound(6, 4)
    assert amoroso_viada_bound(5, 4).value == 40**65000


def test_bound_rejects_bad_arguments():
    with pytest.raises(ValueError):
        amoroso_viada_bound(0, 0)
    with pytest.raises(ValueError):
        amoroso_viada_bound(2, -1)


def test_bound_repr_stays_small():
    # the exact value has thousands of digits; repr must not stringify it
    text = repr(amoroso_viada_bound(3, 2))
    assert len(text) < 200
