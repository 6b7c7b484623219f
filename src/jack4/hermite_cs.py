"""Gaussian-type transforms of the basis and the Calogero-Sutherland spectrum.

Applying exp(-Delta_h / 2) (a finite sum on polynomials) turns the orthogonal
family p_gamma(y) y_0^n into polynomials orthogonal for the Gaussian-type
weight measure; conjugating the four-particle Calogero-Sutherland Hamiltonian
by its ground factor yields the polynomial operator

    -Delta_B - D0^2 + sum_{i=0..3} y_i d/dy_i + 6 kappa + kappa' + 2,

whose eigenvalue on the transformed element is |gamma| + n + 6 kappa +
kappa' + 2 (only the total degree enters).

Each conjugation identity, exp(-Delta/2) A exp(Delta/2) = E + c - Delta with
E the Euler operator, is checked by :func:`operator_identities_check` through
the Hadamard lemma: on every monomial, A f = (deg f + c) f and Delta f has
degree deg f - 2 only.  The series runs in the transforms, not in that check.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import NamedTuple

from . import combin
from .basis4 import BasisLabel, basis_poly, invariant_poly
from .exact import ParamContext, Rat, as_rational
from .ops import cherednik_b, d0_squared, dunkl_d0, euler, laplacian, laplacian_b
from .poly import SparsePoly, Y0, Y3, Y4, embed_y0, embed_y3


def exp_half_laplacian(kind: str, f: SparsePoly, ctx: ParamContext) -> SparsePoly:
    """exp(-Delta / 2) f as the terminating series sum (-1/2)^n / n! Delta^n f,
    Delta being :func:`jack4.ops.laplacian` of the given kind."""
    out = f
    term = laplacian(kind, f, ctx)
    n = 1
    while not term.is_zero():
        out = out + term * (Fraction(-1, 2) ** n / factorial(n))
        term = laplacian(kind, term, ctx)
        n += 1
    return out


# ---------------------------------------------------------------------- Laguerre


def laguerre(n: int, a) -> SparsePoly:
    """Laguerre polynomial L_n^a(t) = ((a+1)_n / n!) sum_i ((-n)_i / (a+1)_i) t^i / i!
    as an exact univariate polynomial in t."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    a = as_rational(a)
    for i in range(1, n + 1):
        if a + i == 0:
            raise ValueError(f"vanishing factor (a+1)_{i} for a = {a}")
    lead = combin.rising_factorial(a + 1, n) / factorial(n)
    terms = {}
    for i in range(n + 1):
        c = (
            lead
            * combin.rising_factorial(-n, i)
            / combin.rising_factorial(a + 1, i)
            / factorial(i)
        )
        if c:
            terms[(i,)] = c
    return SparsePoly(1, "t", terms)


def laguerre_y0sq(n: int, a) -> SparsePoly:
    """L_n^a(y_0^2 / 2) in the y0 frame."""
    lag = laguerre(n, a)
    return SparsePoly(
        1, Y0, {(2 * e[0],): c / Fraction(2) ** e[0] for e, c in lag.terms.items()}
    )


# ---------------------------------------------------------------------- transformed basis


class HermiteRecord(NamedTuple):
    """The weight-orthogonal image of one basis element and its energy level."""

    label: BasisLabel
    poly: SparsePoly
    energy: Rat


def energy_level(label: BasisLabel, ctx: ParamContext) -> Rat:
    gamma, n = label
    return combin.weight(gamma) + n + 6 * ctx.kappa + ctx.kappa_prime + 2


def hermite_basis(label: BasisLabel, ctx: ParamContext) -> HermiteRecord:
    """exp(-Delta_h/2)(p_gamma y_0^n), computed on the two tensor factors."""
    label = BasisLabel(combin.as_parts(label[0]), *combin.as_parts(label[1:]))
    gamma, n = label
    gpart = exp_half_laplacian("B", basis_poly(gamma, ctx), ctx)
    y0part = exp_half_laplacian("D0", SparsePoly.monomial((n,), Y0), ctx)
    poly = embed_y3(gpart) * embed_y0(y0part)
    return HermiteRecord(label, poly, energy_level(label, ctx))


def conjugated_hamiltonian(f: SparsePoly, ctx: ParamContext) -> SparsePoly:
    """The ground-state conjugate of the Calogero-Sutherland Hamiltonian."""
    if f.frame != Y4:
        raise ValueError(f"conjugated Hamiltonian acts on the y4 frame, got {f.frame!r}")
    const = 6 * ctx.kappa + ctx.kappa_prime + 2
    return -laplacian_b(f, ctx) - d0_squared(f, ctx) + euler(f) + const * f


def cs_invariant_eigenfunction(lam, s: int, n: int, ctx: ParamContext) -> SparsePoly:
    """Fully symmetric eigenfunction exp(-Delta_B/2)(F^s_lambda) * L_n^{kappa'-1/2}(y_0^2/2),
    with energy 2|lambda| + 3s + 2n + 6 kappa + kappa' + 2.  F^s_lambda comes from
    :func:`jack4.basis4.invariant_poly`, so no norm of it is paired or formed."""
    if n < 0:
        raise ValueError("Laguerre index must be nonnegative")
    fpart = exp_half_laplacian("B", invariant_poly(lam, s, ctx), ctx)
    lag = laguerre_y0sq(n, ctx.kappa_prime - Fraction(1, 2))
    return embed_y3(fpart) * embed_y0(lag)


def cs_invariant_energy(lam, s: int, n: int, ctx: ParamContext) -> Rat:
    return 2 * combin.weight(lam) + 3 * s + 2 * n + 6 * ctx.kappa + ctx.kappa_prime + 2


# ---------------------------------------------------------------------- operator identities


class IdentityReport:
    """One identity over its cases: how many were checked, and the labels of
    those that failed."""

    def __init__(self, name: str, checked: int, failures: list[str]):
        self.name, self.checked, self.failures = name, checked, failures

    @property
    def ok(self) -> bool:
        return not self.failures


def _sum_cherednik_b(f: SparsePoly, ctx: ParamContext) -> SparsePoly:
    out = SparsePoly.zero(f.nvars, f.frame)
    for i in (1, 2, 3):
        out = out + cherednik_b(i, f, ctx)
    return out


def _d0y0_minus_sigma(f: SparsePoly, ctx: ParamContext) -> SparsePoly:
    """(D0 y0 - kappa' sigma_0) f, where y0 means multiplication by y_0."""
    y0f = SparsePoly.variable(0, f.nvars, f.frame) * f
    return dunkl_d0(y0f, ctx) - ctx.kappa_prime * f.sign_change(0)


def _d0sq_termwise(f: SparsePoly, ctx: ParamContext) -> SparsePoly:
    """d^2/dy_0^2 + (2 kappa'/y_0) d/dy_0 - kappa'(1 - sigma_0)/y_0^2 applied
    termwise to a y0 polynomial; the singular pieces cancel on degree < 2."""
    kp = ctx.kappa_prime
    terms = []
    for exp, c in f.terms.items():
        m = exp[0]
        factor = Fraction(m * (m - 1)) + 2 * kp * m - kp * (1 - (-1) ** m)
        if factor:
            if m < 2:
                raise AssertionError("singular parts fail to cancel below degree 2")
            terms.append(((m - 2,), c * factor))
    return SparsePoly(1, Y0, terms)


def _identity(name: str, cases, holds) -> IdentityReport:
    """Check holds(f) for each (label, f) in cases."""
    rep = IdentityReport(name, 0, [])
    for label, f in cases:
        rep.checked += 1
        if not holds(f):
            rep.failures.append(label)
    return rep


def operator_identities_check(ctx: ParamContext, max_degree: int) -> list[IdentityReport]:
    """Verify the conjugation and decomposition identities on all monomials of
    total degree <= max_degree.  Every report must come back with no failures.

    Each conjugation identity says exp(-Delta/2) A exp(Delta/2) = E + c - Delta,
    E the Euler operator.  It is checked through the Hadamard lemma,
    exp(X) Y exp(-X) = Y + [X, Y] + [X, [X, Y]]/2 + ..., not through the
    series.  Suppose that on every monomial f of degree <= d, A f =
    (deg f + c) f and every term of Delta f has degree deg f - 2.  Then A =
    E + c and [E, Delta] = -2 Delta on the polynomials of degree <= d, which
    exp(+-Delta/2) preserves; with X = -Delta/2 and Y = E + c the commutator
    [X, Y] is -Delta, [X, [X, Y]] = 0, and the series stops there.  So those
    two facts, checked per monomial by the local ``conjugation``, prove the
    identity on that space.  On a broken program they may name a different
    first failure than the series sandwich does."""
    y3 = [(f"monomial {e}", SparsePoly.monomial(e, Y3))
          for e in combin.compositions_up_to(max_degree, 3)]
    y0 = [(f"y0^{m}", SparsePoly.monomial((m,), Y0)) for m in range(max_degree + 1)]
    y4 = [(f"monomial {e}", SparsePoly.monomial(e, Y4))
          for e in combin.compositions_up_to(max_degree, 4)]

    def conjugation(kind, op, c):
        """The premises of the lemma on a monomial f, for the Laplacian of the
        given kind: op f = (deg f + c) f, and Delta f has degree deg f - 2 only."""
        return lambda f: (op(f) == (f.degree() + c) * f and all(
            sum(e) == f.degree() - 2 for e in laplacian(kind, f, ctx).terms))

    def hamiltonian_mid(g):
        return _sum_cherednik_b(g, ctx) + _d0y0_minus_sigma(g, ctx) - 2 * g

    const = 6 * ctx.kappa + ctx.kappa_prime + 2
    hamiltonian = conjugation("H", hamiltonian_mid, const)
    return [
        # exp(-Delta_B/2) (sum_i UB_i) exp(Delta_B/2) = -Delta_B + sum y_i d/dy_i + 6 kappa + 3
        _identity("cherednik-sum-conjugation", y3, conjugation(
            "B", lambda g: _sum_cherednik_b(g, ctx), 6 * ctx.kappa + 3)),
        # exp(-D0^2/2) (D0 y0 - kappa' sigma_0) exp(D0^2/2) = -D0^2 + y_0 d/dy_0 + kappa' + 1
        _identity("d0y0-conjugation", y0, conjugation(
            "D0", lambda g: _d0y0_minus_sigma(g, ctx), ctx.kappa_prime + 1)),
        # D0^2 = d^2/dy_0^2 + (2 kappa'/y_0) d/dy_0 - kappa' (1 - sigma_0)/y_0^2
        _identity("d0-squared-decomposition", y0,
                  lambda f: d0_squared(f, ctx) == _d0sq_termwise(f, ctx)),
        # (D0 y0 - kappa' sigma_0) y_0^n = (n + 1 + kappa') y_0^n
        _identity("d0y0-eigenvalue", y0, lambda f: (
            _d0y0_minus_sigma(f, ctx) == (f.degree() + 1 + ctx.kappa_prime) * f)),
        # exp(-Delta_h/2)(sum UB_i + D0 y0 - kappa' sigma_0 - 2) exp(Delta_h/2)
        #   = E + 6 kappa + kappa' + 2 - Delta_h = conjugated Hamiltonian
        _identity("hamiltonian-conjugation", y4, lambda f: hamiltonian(f) and (
            conjugated_hamiltonian(f, ctx) == euler(f) + const * f - laplacian("H", f, ctx))),
    ]
