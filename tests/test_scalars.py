from fractions import Fraction

import pytest

from minkarr import scalars
from minkarr.scalars import (div, eq, format_scalar, gt, is_exact, le, lt,
                             parse_scalar, sign)


def test_parse_roundtrip():
    assert parse_scalar(3) == 3
    assert parse_scalar("2/3") == Fraction(2, 3)
    assert parse_scalar("0.25") == Fraction(1, 4)
    assert parse_scalar(1.5) == 1.5
    assert format_scalar(Fraction(2, 3)) == "2/3"
    assert format_scalar(Fraction(4, 2)) == 2
    assert format_scalar(7) == 7
    assert parse_scalar(format_scalar(Fraction(-9, 7))) == Fraction(-9, 7)


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_scalar("not-a-number")
    with pytest.raises(TypeError):
        parse_scalar(None)
    with pytest.raises(TypeError):
        parse_scalar(True)


def fraction_route(text):
    """parse_scalar of a string as ``Fraction(str)`` reads it, the one route
    before "p/q" strings of decimal digits were read by ``int``."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError("cannot parse scalar %r" % (text,)) from exc


@pytest.mark.parametrize("text", [
    "3/4", "-3/4", "+3/4", " 1/2 ", "1_0/3", "\u0663/\u0664", "0/5", "6/4",
    "-0/7", "12345678901234567890/3", "0.25"])
def test_parse_fast_path_gives_the_fraction_route_value(text):
    got, want = parse_scalar(text), fraction_route(text)
    assert got == want and type(got) is type(want) is Fraction
    assert (got.numerator, got.denominator) \
        == (want.numerator, want.denominator)


@pytest.mark.parametrize("text", [
    "1/0", "-1/0", "1/-2", "--1/2", "/2", "1/", "-/2", "1/2/", "2/3/4",
    "1 /2", "\u00b2/3"])
def test_parse_fast_path_gives_the_fraction_route_error(text):
    with pytest.raises(Exception) as want:
        fraction_route(text)
    with pytest.raises(Exception) as got:
        parse_scalar(text)
    assert type(got.value) is type(want.value) is ValueError
    assert str(got.value) == str(want.value)


def test_exact_comparisons_are_exact():
    a = Fraction(1, 3)
    b = Fraction(1, 3) + Fraction(1, 10 ** 30)
    assert not eq(a, b)
    assert lt(a, b)
    assert is_exact(a, b, 5)
    assert not is_exact(a, 0.5)


def test_is_exact_by_type():
    # int and Fraction are exact; float is not, and neither is bool, an int
    # subclass, so booleans take the tolerance path of every comparison
    assert is_exact(0, -7, Fraction(2, 3), Fraction(4, 2))
    assert is_exact()
    for other in (0.5, 1.0, True, False):
        assert not is_exact(other)
        assert not is_exact(1, other)
        assert not is_exact(other, Fraction(1, 2))
    assert type(div(True, 2)) is float
    assert type(div(Fraction(1, 2), 3)) is Fraction
    assert div(Fraction(3, 4), Fraction(3, 2)) == Fraction(1, 2)
    with pytest.raises(ZeroDivisionError):
        div(Fraction(1, 2), 0)


def test_float_comparisons_use_tolerance():
    assert scalars.TOLERANCE == 1e-9
    assert eq(1.0, 1.0 + 1e-12)
    assert le(1.0 + 1e-12, 1.0)
    assert not lt(1.0, 1.0 + 1e-12)   # strict needs a real margin
    assert gt(1.0 + 1e-6, 1.0)
    assert sign(1e-12) == 0
    assert sign(-1e-6) == -1


def test_div_stays_exact_for_ints():
    q = div(1, 3)
    assert q == Fraction(1, 3)
    assert isinstance(q, Fraction)
    assert div(1.0, 4) == 0.25


def test_reduced_fractions_invariant():
    # Fraction keeps itself reduced; spot-check the normalization
    v = parse_scalar("6/8")
    assert v.numerator == 3 and v.denominator == 4


def test_dot_adds_left_to_right_from_zero():
    # a compensated sum (CPython 3.12's sum() of floats) gives 1.0 here; the
    # left fold gives what 3.10 and 3.11 give, on every interpreter
    assert scalars.dot((1e16, 1.0, -1e16), (1, 1, 1)) == 0.0
    assert scalars.dot((0.1, 0.2, 0.3), (1.0, 1.0, 1.0)) == (0.1 + 0.2) + 0.3
    # zero sums are +0.0, and exact values stay exact
    assert str(scalars.dot((-0.0, 0.0), (1.0, -1.0))) == "0.0"
    assert scalars.dot((Fraction(1, 3), 2), (3, Fraction(1, 4))) == \
        Fraction(3, 2)
    assert type(scalars.dot((2, 3), (4, 5))) is int
    assert scalars.dot((1, 2, 3), (4, 5)) == 14
