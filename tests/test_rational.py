import math
import re
import sys
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from polyexpand import RationalParseError, format_rational, parse_rational, rational
from polyexpand.rational import format_int, format_key, format_keys, parse_ratio


def test_fractions_reduce():
    assert parse_rational("3/6") == Fraction(1, 2)
    assert parse_rational("10/4") == Fraction(5, 2)


def test_decimals_convert_exactly():
    assert parse_rational("-0.75") == Fraction(-3, 4)
    assert parse_rational("0.25") == Fraction(1, 4)
    assert parse_rational(".5") == Fraction(1, 2)
    assert parse_rational("2.") == Fraction(2)
    assert parse_rational("0.1") == Fraction(1, 10)


def test_integers_embed():
    assert parse_rational("7") == Fraction(7)
    assert parse_rational("-12") == Fraction(-12)
    assert parse_rational("+4") == Fraction(4)


def test_surrounding_whitespace_is_fine():
    assert parse_rational("  5/10 ") == Fraction(1, 2)


@pytest.mark.parametrize(
    "bad",
    ["", "1/0", "1e3", "abc", "1 / 2", "--3", "1/-2", "0x10", "1.2.3", "3/4/5", "."],
)
def test_malformed_text_is_rejected(bad):
    with pytest.raises(RationalParseError):
        parse_rational(bad)


LITERALS = ["3/6", "10/4", "-0.75", "0.25", ".5", "2.", "0.1", "7", "-12", "+4", "  5/10 ",
            "+7", "0/3", "5.", "-.5", "-0/7", "007/0010"]


@pytest.mark.parametrize("text", LITERALS)
def test_parse_ratio_reads_what_parse_rational_reads(text):
    p, q = parse_ratio(text)
    assert q > 0
    assert Fraction(p, q) == parse_rational(text) == Fraction(text.strip())


def test_parse_ratio_keeps_the_written_denominator():
    assert parse_ratio("3/6") == (3, 6)
    assert parse_ratio("-0.75") == (-75, 100)
    assert parse_ratio("+7") == (7, 1)


def test_decimal_reads_each_digit_run_against_the_limit():
    # Fraction reads the whole and the fractional digits apart, each within the limit.
    limit = sys.get_int_max_str_digits()
    text = "-" + "9" * limit + "." + "9" * limit
    assert Fraction(*parse_ratio(text)) == parse_rational(text) == Fraction(text)


TOO_LONG = "1" * (sys.get_int_max_str_digits() + 1)


@pytest.mark.parametrize(
    "bad",
    ["", "1/0", "1e3", "abc", "1 / 2", "--3", "1/-2", "0x10", "1.2.3", "3/4/5", ".", "5/0",
     TOO_LONG, f"1/{TOO_LONG}", f"-{TOO_LONG}.5", f"0.{TOO_LONG}"],
    ids=lambda text: text if len(text) < 20 else f"{text[:8]}...({len(text)} chars)",
)
def test_parse_ratio_and_parse_rational_raise_the_same_message(bad):
    with pytest.raises(RationalParseError) as ratio:
        parse_ratio(bad)
    with pytest.raises(RationalParseError) as rational:
        parse_rational(bad)
    assert str(ratio.value) == str(rational.value)
    if bad.startswith(("1/0", "5/0")):
        assert str(ratio.value) == f"zero denominator in {bad!r}"
    elif TOO_LONG in bad:
        assert str(ratio.value).startswith("Exceeds the limit")
    else:
        assert str(ratio.value) == f"not a rational literal: {bad!r}"


def test_zero_denominator_message():
    with pytest.raises(RationalParseError, match="zero denominator"):
        parse_rational("5/0")


def test_format():
    assert format_rational(Fraction(1, 2)) == "1/2"
    assert format_rational(Fraction(-3, 4)) == "-3/4"
    assert format_rational(Fraction(7)) == "7"
    assert format_rational(Fraction(0)) == "0"


@given(st.fractions())
def test_format_parse_round_trip(q):
    assert parse_rational(format_rational(q)) == q


@given(st.integers())
def test_integer_round_trip(n):
    assert parse_rational(str(n)) == Fraction(n)


# A key and a scale sharing the factor `common`: zero, negative keys, scale 1
# and scales of several hundred bits, as the image kernel produces them.
keys = st.one_of(st.just(0), st.integers(-(2**64), 2**64), st.integers(-(2**700), 2**700))
scales = st.one_of(st.just(1), st.integers(1, 2**64), st.integers(2**300, 2**700))
commons = st.one_of(st.just(1), st.sampled_from([2**200, 3**150 * 5**40]), st.integers(1, 10**6))


@given(keys, scales, commons)
def test_format_key_matches_format_rational(key, scale, common):
    for k, s in ((key, scale), (key * common, scale * common)):
        assert format_key(k, s) == format_rational(Fraction(k, s))


def test_format_key_examples():
    assert format_key(0, 12) == "0"
    assert format_key(-6, 4) == "-3/2"
    assert format_key(-8, 4) == "-2"
    assert format_key(7, 1) == "7"


# A run of keys over one scale, as image and audit print them: zero, negatives, repeats
# and multiples of the scale, and keys k * f over a scale holding every f, so that the
# values reduce to a few shared denominators.
runs = st.tuples(
    st.lists(st.one_of(keys, st.integers(-40, 40)), max_size=12),
    scales,
    st.lists(st.one_of(commons, st.integers(1, 12)), min_size=1, max_size=4),
)


@given(runs)
def test_format_keys_matches_format_rational(run):
    values, scale, factors = run
    scale *= math.prod(factors)
    ks = values + [k * f for k in values for f in factors] + [k * scale for k in values] + values
    texts = format_keys(ks, scale)
    assert texts == [format_rational(Fraction(k, scale)) for k in ks]
    assert texts == [str(Fraction(k, scale)) for k in ks]
    # The CLI writes these texts into JSON unescaped, as their own string bodies.
    assert all(re.match(r"-?\d+(/\d+)?\Z", text) for text in texts)


def test_format_keys_examples():
    assert format_keys([], 6) == []
    texts = ["0", "1/2", "-1", "2", "5/6", "1/2", "-2/3"]
    assert format_keys([0, 3, -6, 12, 5, 3, -4], 6) == texts
    assert format_keys((7, -7), 1) == ["7", "-7"]


def test_format_keys_prints_past_the_digit_limit():
    # 7^6000 has 5,071 digits; str stops at the interpreter's limit, which stays in force.
    limit = sys.get_int_max_str_digits()
    big = 7**6000
    assert format_keys([big, -big, 3], 1) == [str(Decimal(big)), str(Decimal(-big)), "3"]
    assert format_keys([big, 2], 4) == [str(Decimal(big)) + "/4", "1/2"]
    assert format_keys([3, 1], 2 * big) == [f"3/{Decimal(2 * big)}", f"1/{Decimal(2 * big)}"]
    assert format_key(-big * 14, 14) == format_int(-big) == str(Decimal(-big))
    texts = format_keys([big, -big, 3, 2 * big + 1], 2 * big)
    assert all(re.match(r"-?\d+(/\d+)?\Z", text) for text in texts)
    assert sys.get_int_max_str_digits() == limit


def fraction_text(key, scale):
    """str(Fraction(key, scale)), or past the int-to-str digit limit the format_int texts
    of its numerator and denominator."""
    q = Fraction(key, scale)
    try:
        return str(q)
    except ValueError:
        n, d = format_int(q.numerator), format_int(q.denominator)
        return n if q.denominator == 1 else f"{n}/{d}"


# Scales 2**a * o on both sides of the split in format_keys (a power of two past one 30-bit
# int digit, an odd part within one): keys 0, negatives, multiples of 2**b for b below, at
# and above a, multiples of o, and keys past the int-to-str digit limit.
odds = st.one_of(st.sampled_from([1, 3, 2**30 - 1, 2**30 + 1]),
                 st.integers(0, 2**69 - 1).map(lambda n: 2 * n + 1))


@st.composite
def two_adic_runs(draw):
    a, o = draw(st.integers(0, 400)), draw(odds)
    shifts = st.one_of(st.integers(0, 450), st.integers(-3, 3).map(lambda d: max(0, a + d)))
    key = st.builds(lambda m, f, b: m * f << b, st.integers(-(2**80), 2**80),
                    st.sampled_from([1, o, 7**6000]), shifts)
    return draw(st.lists(st.one_of(st.just(0), key), max_size=10)), o << a


EDGE_KEYS = [0, 3, -7, 2**29, -(2**31), 5 << 45, (2**30 - 1) << 31, -3 * (2**30 + 1) << 20,
             (2**30 + 1) << 40, 7**6000 << 31, -(7**6000)]


@given(two_adic_runs())
@example((EDGE_KEYS, 2**30))
@example((EDGE_KEYS, 2**31))
@example((EDGE_KEYS, 2**31 * (2**30 - 1)))
@example((EDGE_KEYS, 2**31 * (2**30 + 1)))
def test_format_keys_matches_fraction_over_two_adic_scales(run):
    keys, scale = run
    assert format_keys(keys, scale) == [fraction_text(k, scale) for k in keys]


@pytest.mark.parametrize("scale, full", [(3 * 2**200, 0), (3**200, 2000)],
                         ids=["3*2**200", "3**200"])
def test_format_keys_takes_the_full_gcd_only_where_the_odd_part_is_wide(monkeypatch, scale, full):
    # A scale whose odd part fits in one int digit never meets a gcd with the full scale.
    calls = []

    def counted(a, b):
        calls.append(scale in (a, b))
        return math.gcd(a, b)

    monkeypatch.setattr(rational, "gcd", counted)
    keys = [(-1) ** i * (i + 1) << i % 300 for i in range(2000)]
    assert format_keys(keys, scale) == [str(Fraction(k, scale)) for k in keys]
    assert sum(calls) == full
