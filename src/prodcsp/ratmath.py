"""Small helpers for exact-rational bookkeeping and display."""

from __future__ import annotations

import math
import re
from decimal import Decimal, localcontext
from fractions import Fraction


def frac_log2(value: Fraction) -> float:
    """log2 of a positive rational, safe for numerators/denominators beyond float range."""
    if value <= 0:
        raise ValueError("log2 requires a positive value")
    num, den = value.numerator, value.denominator
    # Shift both into float range, then correct by the shift counts.
    nb, db = num.bit_length(), den.bit_length()
    return (nb - db) + math.log2(num / (1 << nb)) - math.log2(den / (1 << db))


def frac_to_decimal_str(value: Fraction, digits: int = 12) -> str:
    """Render a rational as a decimal string with `digits` significant digits."""
    with localcontext() as ctx:
        ctx.prec = digits
        d = Decimal(value.numerator) / Decimal(value.denominator)
    return str(d)


def _int_to_str(n: int) -> str:
    """Decimal text of an integer of any length.

    str() is the fast path; past the interpreter's int-to-str digit limit the
    integer is split at a power of ten into halves that are converted in turn,
    so no process-wide setting changes.
    """
    try:
        return str(n)
    except ValueError:
        pass
    if n < 0:
        return "-" + _int_to_str(-n)
    half = n.bit_length() * 3 // 20  # about half the decimal digits
    hi, lo = divmod(n, 10**half)
    return _int_to_str(hi) + _int_to_str(lo).zfill(half)


def format_fraction(value: Fraction) -> str:
    """Canonical p/q text (plain integer when the denominator is 1)."""
    if value.denominator == 1:
        return _int_to_str(value.numerator)
    return f"{_int_to_str(value.numerator)}/{_int_to_str(value.denominator)}"


def _str_to_int(digits: str) -> int:
    """The integer of a decimal digit string of any length; the inverse of
    `_int_to_str`, splitting past the str-to-int digit limit."""
    try:
        return int(digits)
    except ValueError:
        pass
    half = len(digits) // 2
    return _str_to_int(digits[:-half]) * 10**half + _str_to_int(digits[-half:])


_LONG_RATIONAL = re.compile(r"([-+]?)(\d+)(?:/(\d+))?")
_EXPONENT = re.compile(r"[eE][-+]?([\d_]+)\s*\Z")

# The largest decimal exponent magnitude a weight token may carry: the
# default digit limit of int(). Fraction("1e10000000") alone takes seconds,
# ten times longer for each further exponent digit.
MAX_DECIMAL_EXPONENT = 4300


def parse_weight(token: str) -> Fraction:
    """Parse `3/2` or `1.5` (or `2`, or `2.5e-3`) as an exact rational.

    An integer or p/q token past the interpreter's str-to-int digit limit,
    as `format_fraction` prints for long values, is converted in chunks, so
    no process-wide setting changes. A token whose decimal exponent exceeds
    MAX_DECIMAL_EXPONENT in magnitude raises ValueError before any
    conversion; any other token Fraction() rejects is rejected with its
    ValueError.
    """
    if "e" in token or "E" in token:
        match = _EXPONENT.search(token)
        if match is not None:
            digits = match.group(1).replace("_", "").lstrip("0")
            # Five or more digits exceed the cap; no long exponent is converted.
            if len(digits) > 4 or int(digits or "0") > MAX_DECIMAL_EXPONENT:
                raise ValueError(f"decimal exponent beyond {MAX_DECIMAL_EXPONENT}")
    try:
        return Fraction(token)
    except ValueError:
        match = _LONG_RATIONAL.fullmatch(token)
        if match is None:
            raise
    sign, num, den = match.groups()
    value = Fraction(_str_to_int(num), _str_to_int(den) if den else 1)
    return -value if sign == "-" else value
