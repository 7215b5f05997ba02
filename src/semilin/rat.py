"""Exact scalars: arbitrary-precision rationals plus the two infinities.

Finite values are :class:`fractions.Fraction`; infinite endpoints are the
float infinities, which order correctly against Fraction and never mix
into finite arithmetic.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Union

from .errors import RationalTooLarge

Rat = Fraction
Ext = Union[Fraction, float]

NEG_INF: float = float("-inf")
POS_INF: float = float("inf")

_RAT_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


def as_rat(value) -> Rat:
    """Coerce an int, string or Fraction to an exact rational."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rat(value)
    raise TypeError(f"not an exact rational: {value!r}")


def as_ext(value) -> Ext:
    """Coerce to an extended scalar; finite floats are rejected."""
    if isinstance(value, float):
        if value == POS_INF or value == NEG_INF:
            return value
        raise TypeError(f"finite floats are not exact: {value!r}")
    if isinstance(value, str) and value.lstrip("+-") == "inf":
        return parse_ext(value)
    return as_rat(value)


def is_finite(value: Ext) -> bool:
    return isinstance(value, Fraction)


def parse_rat(text: str) -> Rat:
    if not isinstance(text, str) or not _RAT_RE.match(text):
        raise ValueError(f"malformed rational {text!r} (want 'p' or 'p/q')")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def parse_ext(text: str) -> Ext:
    if text == "-inf":
        return NEG_INF
    if text in ("inf", "+inf"):
        return POS_INF
    return parse_rat(text)


def fmt_rat(value: Rat) -> str:
    try:
        return str(value)
    except ValueError:  # the interpreter's limit on integer-to-text digits
        bits = max(abs(value.numerator), value.denominator).bit_length()
        digits = int(bits * math.log10(2)) + 1
        raise RationalTooLarge(
            f"a result rational has about {digits} decimal digits, more "
            "than can be written as text") from None


def fmt_ext(value: Ext) -> str:
    if not is_finite(value):
        return "inf" if value > 0 else "-inf"
    return fmt_rat(value)
