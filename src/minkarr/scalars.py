"""Scalar arithmetic in two modes.

Exact mode uses `int` / `fractions.Fraction` values and all comparisons are
exact.  Floating mode uses binary64 with one absolute tolerance, ``TOLERANCE``;
two floats are "equal" when they differ by at most that tolerance.  A value
participates in floating-mode comparison as soon as one operand is a float.
"""

from __future__ import annotations

import functools
import math
import operator
import sys
from decimal import Decimal
from fractions import Fraction
from typing import Union

Scalar = Union[int, Fraction, float]

# the one absolute tolerance of every float comparison
TOLERANCE = 1e-9

# the largest "dim" an input file may give
MAX_DIM = 1024


_EXACT = frozenset((int, Fraction))    # by type: a bool is not exact


def is_exact(*values: Scalar) -> bool:
    """True when every value is an int or Fraction."""
    return _EXACT.issuperset(map(type, values))


def eq(a: Scalar, b: Scalar) -> bool:
    if type(a) in _EXACT and type(b) in _EXACT:
        return a == b
    return abs(a - b) <= TOLERANCE


def le(a: Scalar, b: Scalar) -> bool:
    if type(a) in _EXACT and type(b) in _EXACT:
        return a <= b
    return a <= b + TOLERANCE


def lt(a: Scalar, b: Scalar) -> bool:
    """Strict comparison; in floating mode strict means 'less by a margin'."""
    if type(a) in _EXACT and type(b) in _EXACT:
        return a < b
    return a < b - TOLERANCE


def gt(a: Scalar, b: Scalar) -> bool:
    return lt(b, a)


def sign(a: Scalar) -> int:
    if type(a) not in _EXACT:
        if abs(a) <= TOLERANCE:
            return 0
        return 1 if a > 0 else -1
    if a > 0:
        return 1
    if a < 0:
        return -1
    return 0


def eq_rel(a: Scalar, b: Scalar) -> bool:
    """Relative comparison used for ratios of floating values."""
    if type(a) in _EXACT and type(b) in _EXACT:
        return a == b
    scale = max(1.0, abs(float(a)), abs(float(b)))
    return abs(a - b) <= TOLERANCE * scale


def div(a: Scalar, b: Scalar) -> Scalar:
    """Division that stays exact for exact operands (int/int included)."""
    if type(a) in _EXACT and type(b) in _EXACT:
        return Fraction(a, b)
    return a / b


def dot(a, b) -> Scalar:
    """The sum of the products of a and b, over the shorter of them, added
    left to right from int 0: what ``sum`` computes on CPython 3.10 and
    3.11, where 3.12 compensates a float sum's rounding, so that float
    results are the same on every interpreter."""
    return functools.reduce(operator.add, map(operator.mul, a, b), 0)


def check_float_range(values, float_route: bool = False) -> None:
    """Exact values that a float route reads must have a float, and so must
    their reciprocals (the lift divides by a ratio): a ValueError names the
    first value beyond the float range or nonzero below its least normal
    magnitude.  The values are on a float route when ``float_route`` says
    so or when a float is among them."""
    if not (float_route or float in map(type, values)):
        return
    for v in values:
        if type(v) in _EXACT and v:
            try:
                where = "below" if abs(float(v)) < sys.float_info.min \
                    else ""
            except OverflowError:
                where = "beyond"
            if where:
                value = Decimal(v.numerator) / v.denominator
                raise ValueError("scalar %s is %s the float range"
                                 % (format(value, ".6e"), where))


def int_form(values):
    """(P, q) with values == P/q entrywise, integers P and q > 0 the lcm of
    the denominators; None when a value is a float."""
    if float in map(type, values):
        return None
    dens = [v.denominator for v in values]
    q = math.lcm(*dens)
    return [v.numerator * (q // d) for v, d in zip(values, dens)], q


def int_rows(rows):
    """(R, q) with rows == R/q entrywise, R integer tuples and q > 0 the lcm
    of all the denominators; None when a value is a float."""
    form = int_form([x for row in rows for x in row])
    if form is None:
        return None
    flat, q = form
    n = len(rows[0])
    return [tuple(flat[t:t + n]) for t in range(0, len(flat), n)], q


def parse_scalar(value) -> Scalar:
    """Parse a JSON-level number.

    ints stay ints, floats stay floats, strings are exact rationals and may be
    given as "p/q" or as a decimal literal like "0.25".  The literals NaN and
    Infinity, which ``json`` reads as floats, are not numbers of the input.
    A "p/q" or "-p/q" of decimal digits is Fraction(int(p), int(q)); every
    other string is read by ``Fraction(str)``, whose grammar and errors
    those are too.
    """
    if isinstance(value, bool):
        raise TypeError("booleans are not scalars")
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError("scalar %r is not finite" % (value,))
        return value
    if isinstance(value, str):
        p, slash, q = value.partition("/")
        try:
            if slash and q.isdecimal() and p.removeprefix("-").isdecimal():
                return Fraction(int(p), int(q))
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError("cannot parse scalar %r" % (value,)) from exc
    raise TypeError("cannot parse scalar of type %s" % type(value).__name__)


def parse_dim(value) -> int:
    """A JSON dimension: an integer, not a float, a string or a boolean, of
    at most ``MAX_DIM``, so that no vector or table is sized from it
    before it is refused."""
    if type(value) is not int:
        raise ValueError("'dim' must be an integer, got %r" % (value,))
    if value > MAX_DIM:
        raise ValueError("'dim' must be at most %d" % MAX_DIM)
    return value


def format_scalar(value: Scalar):
    """Inverse of parse_scalar: exact values serialize losslessly."""
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return int(value)
        return "%d/%d" % (value.numerator, value.denominator)
    return value
