from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from jack4.exact import format_rational, make_context, parse_rational, rational

rationals = st.fractions(max_denominator=10**6)


def test_rational_normalization():
    assert rational(2, 4) == Fraction(1, 2)
    assert rational(-3, -6) == Fraction(1, 2)
    assert rational(0, 7) == Fraction(0)
    r = rational(-3, -6)
    assert r.numerator == 1 and r.denominator == 2


def test_rational_zero_denominator():
    with pytest.raises(ValueError):
        rational(1, 0)


def test_format():
    assert format_rational(Fraction(1, 2)) == "1/2"
    assert format_rational(Fraction(-7, 3)) == "-7/3"
    assert format_rational(Fraction(5)) == "5"
    assert format_rational("0.1") == "1/10"
    with pytest.raises(ValueError, match="float"):
        format_rational(0.1)


def test_parse():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational(" -2 ") == Fraction(-2)
    assert parse_rational("0.5") == Fraction(1, 2)
    with pytest.raises(ValueError):
        parse_rational("x")
    with pytest.raises(ValueError):
        parse_rational("1/0")


@given(rationals)
def test_format_parse_roundtrip(r):
    assert parse_rational(format_rational(r)) == r


@given(rationals, rationals, rationals)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == 0
    if a:
        assert a * (1 / a) == 1


def test_make_context():
    ctx = make_context(1, 0, 3)
    assert ctx.kappa == 1 and ctx.kappa_prime == 0 and ctx.nvars_a == 3
    ctx = make_context(Fraction(1, 2), 2, 4)
    assert ctx.nvars_a == 4
    with pytest.raises(ValueError):
        make_context(Fraction(-1, 3), 0, 3)
    with pytest.raises(ValueError):
        make_context(1, -1, 3)
    with pytest.raises(ValueError):
        make_context(1, 0, 1)


def test_make_context_refuses_floats():
    for args in ((0.1, 0), (1, 0.5), (Fraction(1, 2), 2.0)):
        with pytest.raises(ValueError, match="float"):
            make_context(*args, 3)
    ctx = make_context("0.1", "1/2", 3)
    assert ctx.kappa == Fraction(1, 10) and ctx.kappa_prime == Fraction(1, 2)


def test_context_is_immutable_and_hashable():
    ctx = make_context(1, 0, 3)
    with pytest.raises(AttributeError):
        ctx.kappa = Fraction(2)
    assert hash(ctx) == hash(make_context(1, 0, 3))
