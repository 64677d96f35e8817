"""Exact rational scalars: strict text parsing and canonical formatting.

``parse_ratio`` is the one reader of literals, and ``parse_rational`` gives
its value as a ``fractions.Fraction``, in lowest terms. Only the text forms
below are accepted; anything else (scientific notation, infinities, repeated
fractions) is a parse error.
"""

import re
from fractions import Fraction
from math import gcd

# An integer, p/q, or a decimal with digits on at least one side of its point.
_LITERAL_RE = re.compile(r"([+-]?)(\d*)(?:/(\d+)|\.(\d*))?\Z")


class RationalParseError(ValueError):
    """Text that is not an integer, a fraction ``p/q``, or a finite decimal."""


def parse_ratio(text: str) -> tuple[int, int]:
    """Parse ``"7"``, ``"3/6"``, or ``"-0.75"`` into ints (p, q) with q > 0 and value p/q,
    not reduced: "3/6" is (3, 6) and "-0.75" is (-75, 100). A zero denominator is an error.
    """
    m = _LITERAL_RE.match(text.strip())
    if not m or not (m[2] or m[4]):
        raise RationalParseError(f"not a rational literal: {text!r}")
    sign, whole, denominator, decimals = m.groups()
    try:  # each run of digits on its own, as Fraction reads a decimal
        p = int(whole or "0")
        q = int(denominator) if denominator else 10 ** len(decimals or "")
        if decimals:
            p = p * q + int(decimals)
    except ValueError as exc:  # more digits than the interpreter's int-string limit
        raise RationalParseError(str(exc).partition(";")[0]) from None
    if not q:
        raise RationalParseError(f"zero denominator in {text!r}")
    return (-p if sign == "-" else p), q


def parse_rational(text: str) -> Fraction:
    """``parse_ratio`` as an exact Fraction: ``"0.25"`` is 1/4, never a float."""
    return Fraction(*parse_ratio(text))


def format_rational(value: Fraction) -> str:
    """Canonical text form: ``"p/q"``, or just ``"p"`` for integers."""
    return format_key(value.numerator, value.denominator)


def format_key(key: int, scale: int) -> str:
    """The text of ``Fraction(key, scale)`` for ``scale > 0``, built with no Fraction."""
    g = gcd(key, scale)
    return str(key // g) if g == scale else f"{key // g}/{scale // g}"
