"""Exact rational scalars: parsing, formatting, and integer square roots.

Quantities parsed at the API and JSON boundary (areas, moments,
capacities, volumes) are `fractions.Fraction`s.  The polygon and graph
layers also keep a Python `int` as an `int` (`parse_exact`): a census
scales its recipe to whole numbers, works on ints, and divides every
result back to `Fraction`.  Floats never enter any computation:
censuses, canonical forms, and enumeration cutoffs all rely on exact
comparison.

Rationals serialize as strings "p/q" in lowest terms with the sign on the
numerator; integers serialize without the denominator.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction as Q

from .errors import FormatError, PreconditionError

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")


def parse_rational(text: str | int | Q) -> Q:
    """Parse an exact rational from a "p/q" or integer literal.

    A Fraction passes through unchanged and an int becomes the equal
    Fraction (`parse_rational(3)` is `Fraction(3, 1)`; `parse_exact` is the
    variant that keeps an int).  Anything else (booleans, so JSON true and
    false, floats, decimal points, empty strings, whitespace-only input)
    is rejected with FormatError.
    """
    if isinstance(text, Q):
        return text
    if is_int(text):
        return Q(text)
    if not isinstance(text, str):
        raise FormatError(f"expected a rational literal, got {type(text).__name__}")
    body = text.strip()
    if not _RATIONAL_RE.match(body):
        raise FormatError(f"malformed rational literal: {text!r}")
    num, _, den = body.partition("/")
    try:
        return Q(int(num), int(den or 1))
    except ValueError as exc:  # a literal past the interpreter's digit limit
        raise FormatError(f"malformed rational literal: {text!r}") from exc


def is_int(value: object) -> bool:
    """An int that is not a bool: JSON true and false are not integers."""
    return isinstance(value, int) and not isinstance(value, bool)


def parse_exact(value: str | int | Q) -> int | Q:
    """Like parse_rational, but an int stays an int.

    The polygon and graph layers take either exact type, so a census can
    run them on whole numbers without `Fraction` arithmetic.
    """
    if type(value) is int:
        return value
    return parse_rational(value)


def halve(x: int | Q) -> int | Q:
    """x / 2 exactly: an int when x is an even int, else a Fraction."""
    if type(x) is int and x % 2 == 0:
        return x // 2
    return Q(x, 2)


def format_rational(x: Q | int) -> str:
    """Format an exact rational as "p/q" in lowest terms ("p" if integral).

    A number past the interpreter's digit limit for int-to-text conversion
    is a PreconditionError; the limit guards against quadratic time, so it
    is not raised here.
    """
    try:
        if type(x) is int:
            return str(x)
        if not isinstance(x, Q):
            x = Q(x)
        if x.denominator == 1:
            return str(x.numerator)
        return f"{x.numerator}/{x.denominator}"
    except ValueError as exc:
        raise PreconditionError(
            "answer too long to print: a number has more than "
            f"{sys.get_int_max_str_digits()} digits"
        ) from exc


def floor_sqrt(x: Q | int) -> int:
    """Largest integer m with m*m <= x, for rational x >= 0."""
    x = Q(x)
    if x < 0:
        raise ValueError("floor_sqrt of a negative rational")
    # floor(sqrt(n/d)) == floor(sqrt(n*d)) // d, exactly.
    return math.isqrt(x.numerator * x.denominator) // x.denominator


def ceil_rational(x: Q) -> int:
    """Smallest integer >= x."""
    return -((-x.numerator) // x.denominator)
