"""Parsing and formatting of exact rational scale factors."""

import math
from fractions import Fraction

from .errors import InputFormatError


def parse_rational(text):
    """Parse "p/q" or "p" into a Fraction. Floats are rejected on purpose."""
    if isinstance(text, Fraction):
        return text
    if isinstance(text, int):
        return Fraction(text)
    if not isinstance(text, str):
        raise InputFormatError("expected a rational string, got %r" % (text,))
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise InputFormatError("bad rational %r: %s" % (text, exc)) from exc


def format_rational(value):
    """Render a Fraction as "p/q" (or "p" for integers)."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return "%d/%d" % (value.numerator, value.denominator)


def to_float(value):
    """The float nearest a rational; a signed infinity past the float range."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def exact(value):
    """A number as a Fraction; a float at the decimal it prints as (0.1 is
    1/10, not its binary value, so that 0.1 + 0.2 == 0.3 holds)."""
    return Fraction(repr(value) if isinstance(value, float) else value)


def parse_number(value):
    """Accept a finite JSON number or a rational string; Fractions stay exact.

    Python's json reads NaN and Infinity as floats; they are rejected here.
    """
    if isinstance(value, bool):
        raise InputFormatError("expected a number, got %r" % (value,))
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise InputFormatError("expected a finite number, got %r" % (value,))
        return value
    if isinstance(value, str):
        return parse_rational(value)
    raise InputFormatError("expected a number, got %r" % (value,))
