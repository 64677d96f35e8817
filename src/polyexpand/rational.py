"""Exact rational scalars: strict text parsing and canonical formatting.

``parse_ratio`` is the one reader of literals, and ``parse_rational`` gives
its value as a ``fractions.Fraction``, in lowest terms. Only the text forms
below are accepted; anything else (scientific notation, infinities, repeated
fractions) is a parse error.
"""

import re
from collections.abc import Sequence
from decimal import Decimal
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
    return format_keys((value.numerator,), value.denominator)[0]


def format_keys(keys: Sequence[int], scale: int) -> list[str]:
    """The texts of ``Fraction(k, scale)`` for keys over one ``scale > 0``, built with no
    Fraction: each key has its own gcd, and each reduced denominator's text is built once.
    Where ``scale = odd * low``, ``low`` a power of two past one 30-bit int digit and ``odd``
    within one, a nonzero key's gcd is ``gcd(k, odd) * min(k & -k, low)``: exact, as ``low``
    and ``odd`` are coprime, and cheap, as a gcd with one digit takes CPython's short path."""
    low = scale & -scale
    odd = scale // low
    split = low > 2**30 and odd < 2**30
    for text in str, format_int:  # format_int only for a run with a text past the digit limit
        tails, texts = {scale: ""}, []  # the text "/q" by g = gcd(k, scale), q = scale // g
        try:
            for k in keys:
                g = gcd(k, odd) * min(k & -k, low) if split and k else gcd(k, scale)
                tail = tails.get(g)
                if tail is None:
                    tail = tails[g] = "/" + text(scale // g)
                texts.append(text(k // g) + tail)
            break
        except ValueError:  # str meets the int-to-str digit limit, which parsing relies on
            pass
    return texts


def format_int(n: int) -> str:
    """``str(n)``, also past the int-to-str digit limit, which stays in force for parsing."""
    return str(Decimal(n))
