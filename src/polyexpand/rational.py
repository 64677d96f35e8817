"""Exact rational scalars: strict text parsing and canonical formatting.

Values are plain ``fractions.Fraction`` instances, which already guarantee
lowest terms, a positive denominator, and hash-safe equality. Only the text
forms below are accepted; anything else (scientific notation, infinities,
repeated fractions) is a parse error.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd

_INT_RE = re.compile(r"[+-]?\d+\Z")
_FRACTION_RE = re.compile(r"([+-]?\d+)/(\d+)\Z")
_DECIMAL_RE = re.compile(r"[+-]?(\d+\.\d*|\.\d+)\Z")


class RationalParseError(ValueError):
    """Text that is not an integer, a fraction ``p/q``, or a finite decimal."""


def parse_rational(text: str) -> Fraction:
    """Parse ``"7"``, ``"3/6"``, or ``"-0.75"`` into an exact Fraction.

    Decimals are converted exactly (``"0.25"`` is 1/4, never a float), and
    results are always in lowest terms. A zero denominator is an error.
    """
    s = text.strip()
    try:
        if _INT_RE.match(s):
            return Fraction(int(s))
        m = _FRACTION_RE.match(s)
        if m:
            return Fraction(int(m.group(1)), int(m.group(2)))
        if _DECIMAL_RE.match(s):
            return Fraction(s)
    except ZeroDivisionError:
        raise RationalParseError(f"zero denominator in {text!r}") from None
    except ValueError as exc:  # more digits than the interpreter's int-string limit
        raise RationalParseError(str(exc).partition(";")[0]) from None
    raise RationalParseError(f"not a rational literal: {text!r}")


def format_rational(value: Fraction) -> str:
    """Canonical text form: ``"p/q"``, or just ``"p"`` for integers."""
    return format_key(value.numerator, value.denominator)


def format_key(key: int, scale: int) -> str:
    """The text of ``Fraction(key, scale)`` for ``scale > 0``, built with no Fraction."""
    g = gcd(key, scale)
    return str(key // g) if g == scale else f"{key // g}/{scale // g}"
