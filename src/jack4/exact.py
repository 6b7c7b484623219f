"""Exact rational scalars and the session parameter context.

Every symbolic module computes over arbitrary-precision rationals
(``fractions.Fraction``); floating point is confined to ``jack4.measure``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

__all__ = [
    "Rat",
    "rational",
    "as_rational",
    "parse_rational",
    "format_rational",
    "ParamContext",
    "make_context",
]

Rat = Fraction


def rational(p: int, q: int = 1) -> Rat:
    """Return p/q in lowest terms with positive denominator."""
    if q == 0:
        raise ValueError("zero denominator")
    return Fraction(p, q)


def as_rational(value) -> Rat:
    """value as a Fraction; a binary float is refused rather than rounded."""
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise ValueError(f"{value!r} is a float; pass an exact value")
    return Fraction(value)


def parse_rational(text: str) -> Rat:
    """Parse ``"p/q"``, ``"p"``, or a decimal literal into an exact rational."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational: {text!r}") from exc


def format_rational(value) -> str:
    """Render as ``"p/q"``, or bare ``"p"`` when the denominator is 1."""
    value = as_rational(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


class ParamContext(NamedTuple):
    """Fixed rational parameter values shared by a session.

    ``kappa`` weights the symmetric-group reflections, ``kappa_prime`` the
    extra sign change; ``nvars_a`` is the variable count N used by
    composition-indexed quantities (3 for the four-variable basis work,
    where the underlying Jack polynomials have three arguments).
    """

    kappa: Rat
    kappa_prime: Rat
    nvars_a: int


def make_context(kappa, kappa_prime=0, nvars: int = 3) -> ParamContext:
    """Build an immutable context; requires kappa, kappa_prime >= 0, nvars >= 2.

    The parameters may be ints, Fractions or exact strings such as "0.1";
    binary floats are refused, since 0.1 would silently become
    3602879701896397/2^55.
    """
    k = as_rational(kappa)
    kp = as_rational(kappa_prime)
    if k < 0 or kp < 0:
        raise ValueError("parameters must be nonnegative")
    if nvars < 2:
        raise ValueError("need at least two variables")
    return ParamContext(k, kp, nvars)
