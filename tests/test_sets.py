import math
import operator
import random
import tempfile
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from genutil import dyadic, random_poly, random_set, run_python_with_two_cpu_seconds
from polyexpand import (
    CapExceeded,
    RationalParseError,
    RationalSet,
    audit_vanishing_subsums,
    doubling_ratio,
    energy,
    image_set,
    make_set,
    multiplicity_histogram,
    parse_poly,
    parse_rational,
    productset,
    read_set_file,
    sets,
)
from polyexpand.rational import format_keys
from polyexpand.sets import _gcd, image_keys, ladder_sizes, productset_size, value_multiplicities
from reference import evaluate


SUM = parse_poly("x + y")  # the sumset A + B is the image of x + y


# Independent oracles: plain double/quadruple loops over evaluated pairs.


def naive_pair_values(f, a):
    return [evaluate(f, x, y) for x in a for y in a]


def naive_energy(f, a):
    values = naive_pair_values(f, a)
    return sum(1 for v in values for w in values if v == w)


def test_make_set_dedups():
    assert tuple(make_set([2, 2, 4])) == (Fraction(2), Fraction(4))


def test_make_set_sorts():
    assert tuple(make_set([8, 2, 4])) == (Fraction(2), Fraction(4), Fraction(8))


def test_make_set_singleton():
    assert tuple(make_set([Fraction(1, 2)])) == (Fraction(1, 2),)


def test_make_set_rejects_empty():
    with pytest.raises(ValueError):
        make_set([])


def test_make_set_rejects_floats():
    with pytest.raises(TypeError):
        make_set([0.5])


def spellings(q):
    """Texts parse_rational reads as q: p/q, a scaled p/q and, when q is
    a finite decimal, the decimal."""
    texts = [f"{q.numerator}/{q.denominator}", f"{3 * q.numerator}/{3 * q.denominator}"]
    digits = 0
    while (q * 10**digits).denominator != 1 and digits < 6:
        digits += 1
    if (q * 10**digits).denominator == 1:
        scaled = abs(q.numerator) * 10**digits // q.denominator
        sign = "-" if q < 0 else ""
        whole, frac = divmod(scaled, 10**digits)
        texts.append(f"{sign}{whole}.{frac:0{digits}d}" if digits else f"{sign}{whole}")
    return texts


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.fractions(min_value=-50, max_value=50, max_denominator=40), min_size=1),
    st.randoms(use_true_random=False),
)
def test_make_set_matches_fraction_sort(fractions, rng):
    values = [parse_rational(text) for q in fractions for text in spellings(q)]
    values += [int(q) for q in fractions if q.denominator == 1]
    rng.shuffle(values)
    assert tuple(make_set(values)) == tuple(sorted(set(map(Fraction, values))))


def test_make_set_merges_spellings():
    values = [parse_rational(t) for t in ("0.5", "2/4", "-3", "1/2", "0", "-6/2")]
    assert tuple(make_set(values)) == (Fraction(-3), Fraction(0), Fraction(1, 2))


def test_rational_set_enforces_order():
    a = RationalSet(2, (-1, 2, 3))
    assert tuple(a) == (Fraction(-1, 2), Fraction(1), Fraction(3, 2))
    assert ", ".join(format_keys(a.keys, a.scale)) == "-1/2, 1, 3/2" and len(a) == 3
    # Unsorted, repeated or reducible keys are brought to the one form.
    for scale, keys, canonical in ((1, (2, 1), (1, 2)), (2, (2, 4), (1, 2)), (1, (1, 1), (1,))):
        b = RationalSet(scale, keys)
        assert b == RationalSet(1, canonical) and (b.scale, b.keys) == (1, canonical)
    for scale, keys in ((0, (1,)), (-1, (1,)), (0, (0,))):
        with pytest.raises(ValueError, match="^the scale must be positive$"):
            RationalSet(scale, keys)
    with pytest.raises(ValueError, match="at least one element"):
        RationalSet(1, ())


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 60), st.lists(st.integers(-60, 60), min_size=1, max_size=6))
def test_rational_set_normalizes_any_keys(scale, keys):
    a = RationalSet(scale, keys)
    assert a == make_set(Fraction(k, scale) for k in keys)
    assert type(a.keys) is tuple and all(map(operator.lt, a.keys, a.keys[1:]))
    assert hash(a) == hash(RationalSet(a.scale, a.keys)) and math.gcd(a.scale, *a.keys) == 1
    assert tuple(a) == tuple(sorted({Fraction(k, scale) for k in keys}))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 60), st.lists(st.integers(-60, 60), min_size=1, max_size=6))
@example(2, [-1, 1])  # the keys sum to 0, so gcd(2, 0) = 2 and the fold must run
@example(6, [3, 9])  # the sum 12 shares 6 with the scale, the keys share only 3
@example(4, [1, 3])  # the sum 4 shares 4 with the scale, the keys share nothing
def test_gcd_certificate_matches_the_plain_fold(scale, keys):
    assert _gcd(scale, keys) == math.gcd(scale, *keys)


def test_make_set_of_4000_prime_reciprocals_in_two_cpu_seconds():
    # Their keys over the product of the primes run to 54k bits each. The keys'
    # sum is coprime to the scale, so no gcd is folded over the keys themselves.
    primes = [p for p in range(2, 37814) if all(p % d for d in range(2, math.isqrt(p) + 1))]
    assert len(primes) == 4000
    code = (
        "import sys\n"
        "from fractions import Fraction\n"
        "from polyexpand import make_set\n"
        "a = make_set(Fraction(1, int(p)) for p in sys.argv[1:])\n"
        "print(len(a), a.keys[-1] == a.scale // 2)\n"
    )
    result = run_python_with_two_cpu_seconds(["-c", code, *map(str, primes)])
    assert result.stdout == "4000 True\n", result.stderr


def test_rational_set_is_an_immutable_value():
    a = make_set([Fraction(1, 2), 2, Fraction(-3, 4)])
    b = RationalSet(8, [4, -6, 16, 4])
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != make_set([2]) and a != (4, (-3, 2, 8))
    assert repr(a) == "RationalSet(scale=4, keys=(-3, 2, 8))"
    for name in ("scale", "keys", "elements", "other"):
        with pytest.raises(AttributeError):
            setattr(a, name, 1)
    assert (a.scale, a.keys, tuple(a)) == (4, (-3, 2, 8), tuple(b))


def test_membership():
    a = make_set([1, 3, 5])
    assert Fraction(3) in a
    assert Fraction(2) not in a
    assert 5 in a


def test_sumset_small():
    a = make_set([1, 2])
    assert image_set(SUM, a, a) == make_set([2, 3, 4])


def test_sumset_dyadic():
    # 2^i + 2^j for i <= j have distinct bit patterns, so all N(N+1)/2
    # sums differ.
    a = dyadic(10)
    assert len(image_set(SUM, a, a)) == 55


def test_sumset_identity():
    assert image_set(SUM, make_set([0]), make_set([5])) == make_set([5])


def test_productset_small():
    a = make_set([2, 4, 8])
    assert productset(a, a) == make_set([4, 8, 16, 32, 64])


def test_productset_dyadic():
    assert len(productset(dyadic(10), dyadic(10))) == 19


def test_productset_singleton():
    one = make_set([1])
    assert productset(one, one) == one


def test_doubling_ratio():
    assert doubling_ratio(make_set([2, 4, 8])) == Fraction(5, 3)
    assert doubling_ratio(dyadic(10)) == Fraction(19, 10)
    assert doubling_ratio(make_set([1])) == 1


def test_set_ops_match_naive_loops():
    rng = random.Random(20240)
    for _ in range(20):
        a = random_set(rng, max_size=12)
        b = random_set(rng, max_size=12)
        assert tuple(image_set(SUM, a, b)) == tuple(sorted({x + y for x in a for y in b}))
        assert tuple(productset(a, b)) == tuple(sorted({x * y for x in a for y in b}))


def test_set_ops_match_naive_loops_at_50():
    rng = random.Random(20241)
    a = make_set([Fraction(rng.randint(-500, 500), rng.randint(1, 9)) for _ in range(80)][:50])
    b = make_set([Fraction(rng.randint(-500, 500), rng.randint(1, 9)) for _ in range(80)][:50])
    assert tuple(image_set(SUM, a, b)) == tuple(sorted({x + y for x in a for y in b}))
    assert tuple(productset(a, b)) == tuple(sorted({x * y for x in a for y in b}))


def test_image_single_monomial_dyadic():
    # The image exponents {2i + 3j : 1 <= i,j <= 10} cover [5, 50] except
    # 6 and 49, so 44 of the 46 integers in the range occur.
    f = parse_poly("x^2*y^3")
    assert len(image_set(f, dyadic(10))) == 44
    assert len(image_set(f, dyadic(3))) == 9


def test_image_composed_shape_dyadic():
    f = parse_poly("x*y + x^2*y^2")
    assert len(image_set(f, dyadic(10))) == 19


def test_image_asymmetric():
    f = parse_poly("x*y")
    assert image_set(f, make_set([1, 2]), make_set([3])) == make_set([3, 6])


def test_image_matches_histogram_keys():
    rng = random.Random(4097)
    for _ in range(10):
        a = random_set(rng, max_size=8)
        f = random_poly(rng, max_degree=3)
        assert tuple(image_set(f, a)) == tuple(multiplicity_histogram(f, a).counts)


def test_histogram_product_example():
    hist = multiplicity_histogram(parse_poly("x*y"), make_set([2, 4, 8]))
    assert dict(hist.counts) == {
        Fraction(4): 1,
        Fraction(8): 2,
        Fraction(16): 3,
        Fraction(32): 2,
        Fraction(64): 1,
    }


def test_histogram_two_elements():
    hist = multiplicity_histogram(parse_poly("x*y"), make_set([1, 2]))
    assert dict(hist.counts) == {Fraction(1): 1, Fraction(2): 2, Fraction(4): 1}


def test_histogram_projection():
    hist = multiplicity_histogram(parse_poly("x"), make_set([5]))
    assert dict(hist.counts) == {Fraction(5): 1}


def test_histogram_counts_sum_to_square():
    rng = random.Random(777)
    for _ in range(15):
        a = random_set(rng, max_size=10)
        f = random_poly(rng, max_degree=4)
        assert sum(multiplicity_histogram(f, a).counts.values()) == len(a) ** 2


def test_energy_examples():
    assert energy(parse_poly("x*y"), make_set([2, 4, 8])) == 19
    assert energy(parse_poly("x*y"), make_set([1, 2])) == 6


def test_energy_singleton_is_one():
    rng = random.Random(5)
    for _ in range(5):
        f = random_poly(rng, max_degree=4)
        assert energy(f, make_set([Fraction(3, 7)])) == 1


def test_energy_matches_quadruple_oracle():
    rng = random.Random(90125)
    for _ in range(15):
        a = random_set(rng, max_size=12)
        f = random_poly(rng, max_degree=3)
        assert energy(f, a) == naive_energy(f, a)


def test_energy_lower_bounds():
    rng = random.Random(31337)
    for _ in range(15):
        a = random_set(rng, max_size=10)
        f = random_poly(rng, max_degree=4)
        e = energy(f, a)
        image = image_set(f, a)
        assert e >= Fraction(len(a) ** 4, len(image))
        assert e >= len(a) ** 2


def test_pair_cap_is_enforced():
    a = make_set([1, 2, 3])
    f = parse_poly("x*y")
    with pytest.raises(CapExceeded):
        image_set(f, a, max_pairs=8)
    with pytest.raises(CapExceeded):
        multiplicity_histogram(f, a, max_pairs=8)
    with pytest.raises(CapExceeded):
        energy(f, a, max_pairs=8)


def test_product_and_sum_sets_respect_the_pair_cap():
    a = make_set([1, 2, 3])
    with pytest.raises(CapExceeded):
        productset(a, a, max_pairs=8)
    with pytest.raises(CapExceeded):
        doubling_ratio(a, max_pairs=8)
    with pytest.raises(CapExceeded):
        image_set(SUM, a, a, max_pairs=8)
    assert doubling_ratio(a, max_pairs=9) == 2


def test_cap_message_names_budget_request_cap_and_flag():
    with pytest.raises(CapExceeded) as info:
        image_set(parse_poly("x*y"), make_set([1, 2, 3]), max_pairs=8)
    message = str(info.value)
    assert message.startswith("pair budget exceeded: image enumeration needs 9 pairs")
    assert "above the cap of 8" in message
    assert "--max-pairs" in message


def test_every_pair_walk_checks_its_pair_budget_before_it_reads_f(monkeypatch):
    """A walk refused for its pairs clears no f: the budget check comes first.

    The injectivity audit is left out: check_elements holds its box to isqrt(max_pairs)
    elements first, so the box's pairs never exceed max_pairs and its pair check cannot trip.
    """
    def clear(*args):
        raise AssertionError("f was cleared before the pair budget was checked")

    monkeypatch.setattr(sets, "_clear", clear)
    a, f = make_set([1, 2, 3, 4]), parse_poly("x^2*y + y")
    walks = [
        ("image enumeration", partial(image_keys, f, a, a, 15)),
        ("pair histogram", partial(value_multiplicities, f, a, 15)),
        ("pair histogram", partial(energy, f, a, 15)),
        ("product set", partial(productset_size, a, 15)),
        ("pair histogram", partial(ladder_sizes, f, [make_set([1, 2]), a], 15)),
        ("subsum audit", partial(audit_vanishing_subsums, f, a, max_pairs=15)),
        ("subsum audit", partial(audit_vanishing_subsums, f, a, max_pairs=15, full_table=False)),
    ]
    for what, walk in walks:
        with pytest.raises(CapExceeded, match=f"^pair budget exceeded: {what} needs 16 pairs,"):
            walk()


def test_results_are_reproducible():
    a = dyadic(8)
    f = parse_poly("x*y + x^2*y^3")
    first = multiplicity_histogram(f, a)
    second = multiplicity_histogram(f, a)
    assert first == second
    assert list(first.counts) == list(second.counts)


def test_read_set_file(tmp_path):
    path = tmp_path / "a.txt"
    path.write_text("# a sample set\n2\n\n4/2\n-0.5\n8\n", encoding="utf-8")
    assert read_set_file(path) == make_set([2, Fraction(-1, 2), 8])


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.fractions(min_value=-50, max_value=50, max_denominator=40), min_size=1),
    st.randoms(use_true_random=False),
)
def test_read_set_file_matches_make_set(fractions, rng):
    lines = [text for q in fractions for text in spellings(q)]
    lines += [f"{k * q.numerator}/{k * q.denominator}" for q in fractions
              for k in [rng.randint(2, 30)]]
    lines += [str(int(q)) for q in fractions if q.denominator == 1]
    rng.shuffle(lines)
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "set.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert read_set_file(path) == make_set(fractions)


def test_read_set_file_reports_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1\n2\nnot-a-number\n", encoding="utf-8")
    with pytest.raises(RationalParseError, match="line 3"):
        read_set_file(path)


def test_read_set_file_skips_a_byte_order_mark(tmp_path):
    plain, marked, bad = tmp_path / "plain.txt", tmp_path / "bom.txt", tmp_path / "bad.txt"
    plain.write_text("1\n# two\n-3/2\n", encoding="utf-8")
    marked.write_text("1\n# two\n-3/2\n", encoding="utf-8-sig")
    assert marked.read_bytes() == b"\xef\xbb\xbf" + plain.read_bytes()
    assert read_set_file(marked) == read_set_file(plain) == make_set([1, Fraction(-3, 2)])
    bad.write_text("1\n2\nnot-a-number\n", encoding="utf-8-sig")
    with pytest.raises(RationalParseError, match=r"bad\.txt, line 3: "):
        read_set_file(bad)


def test_read_set_file_reports_line_of_a_literal_past_the_digit_limit(tmp_path):
    path = tmp_path / "long.txt"
    path.write_text("1\n" + "7" * 5000 + "\n", encoding="utf-8")
    with pytest.raises(RationalParseError, match=r"long\.txt, line 2: Exceeds the limit"):
        read_set_file(path)


def test_read_set_file_rejects_empty(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("# nothing here\n\n", encoding="utf-8")
    with pytest.raises(ValueError):
        read_set_file(path)


def test_read_set_file_missing():
    with pytest.raises(FileNotFoundError):
        read_set_file("/nonexistent/set.txt")
