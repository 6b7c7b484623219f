"""Gaussian-type transforms of the basis and the Calogero-Sutherland spectrum.

Applying exp(-Delta_h / 2) (a finite sum on polynomials) turns the orthogonal
family p_gamma(y) y_0^n into polynomials orthogonal for the Gaussian-type
weight measure; conjugating the four-particle Calogero-Sutherland Hamiltonian
by its ground factor yields the polynomial operator

    -Delta_B - D0^2 + sum_{i=0..3} y_i d/dy_i + 6 kappa + kappa' + 2,

whose eigenvalue on the transformed element is |gamma| + n + 6 kappa +
kappa' + 2 (only the total degree enters).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from . import combin
from .basis4 import BasisLabel, basis_poly, invariant_F
from .exact import ParamContext, Rat
from .ops import cherednik_b, d0_squared, dunkl_d0, euler, laplacian, laplacian_b
from .poly import SparsePoly, Y0, Y4, embed_y0, embed_y3


def exp_half_laplacian(kind: str, f: SparsePoly, ctx: ParamContext, sign: int = -1) -> SparsePoly:
    """exp(sign * Delta / 2) f as the terminating series sum (sign/2)^n / n! Delta^n f,
    Delta being :func:`jack4.ops.laplacian` of the given kind."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    out = f
    term = laplacian(kind, f, ctx)
    n = 1
    while not term.is_zero():
        out = out + term * (Fraction(sign, 2) ** n / factorial(n))
        term = laplacian(kind, term, ctx)
        n += 1
    return out


# ---------------------------------------------------------------------- Laguerre


def laguerre(n: int, a) -> SparsePoly:
    """Laguerre polynomial L_n^a(t) = ((a+1)_n / n!) sum_i ((-n)_i / (a+1)_i) t^i / i!
    as an exact univariate polynomial in t."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    a = Fraction(a)
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


@dataclass(frozen=True)
class HermiteRecord:
    """The weight-orthogonal image of one basis element and its energy level."""

    label: BasisLabel
    poly: SparsePoly
    energy: Rat


def energy_level(label: BasisLabel, ctx: ParamContext) -> Rat:
    gamma, n = label
    return combin.weight(gamma) + n + 6 * ctx.kappa + ctx.kappa_prime + 2


def hermite_basis(label: BasisLabel, ctx: ParamContext) -> HermiteRecord:
    """exp(-Delta_h/2)(p_gamma y_0^n), computed on the two tensor factors."""
    label = BasisLabel(tuple(int(g) for g in label[0]), int(label[1]))
    gamma, n = label
    gpart = exp_half_laplacian("B", basis_poly(gamma, ctx), ctx, -1)
    y0part = exp_half_laplacian("D0", SparsePoly.monomial((n,), Y0), ctx, -1)
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
    with energy 2|lambda| + 3s + 2n + 6 kappa + kappa' + 2."""
    if n < 0:
        raise ValueError("Laguerre index must be nonnegative")
    fpart = exp_half_laplacian("B", invariant_F(lam, s, ctx).poly, ctx, -1)
    lag = laguerre_y0sq(n, ctx.kappa_prime - Fraction(1, 2))
    return embed_y3(fpart) * embed_y0(lag)


def cs_invariant_energy(lam, s: int, n: int, ctx: ParamContext) -> Rat:
    return 2 * combin.weight(lam) + 3 * s + 2 * n + 6 * ctx.kappa + ctx.kappa_prime + 2


# ---------------------------------------------------------------------- operator identities


@dataclass
class IdentityReport:
    name: str
    checked: int
    failures: list[str]

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
    acc: dict = {}
    for exp, c in f.terms.items():
        m = exp[0]
        factor = Fraction(m * (m - 1)) + 2 * kp * m - kp * (1 - (-1) ** m)
        if factor:
            if m < 2:
                raise AssertionError("singular parts fail to cancel below degree 2")
            e = acc.get((m - 2,), Fraction(0)) + c * factor
            if e:
                acc[(m - 2,)] = e
            else:
                acc.pop((m - 2,), None)
    return SparsePoly(1, Y0, acc)


def operator_identities_check(ctx: ParamContext, max_degree: int) -> list[IdentityReport]:
    """Verify the conjugation and decomposition identities on all monomials of
    total degree <= max_degree.  Every report must come back with no failures."""
    reports = []

    # exp(-Delta_B/2) (sum_i UB_i) exp(Delta_B/2) = -Delta_B + sum y_i d/dy_i + 6 kappa + 3
    rep = IdentityReport("cherednik-sum-conjugation", 0, [])
    for exp in combin.compositions_up_to(max_degree, 3):
        f = SparsePoly.monomial(exp, "y3")
        g = exp_half_laplacian("B", f, ctx, 1)
        lhs = exp_half_laplacian("B", _sum_cherednik_b(g, ctx), ctx, -1)
        rhs = -laplacian_b(f, ctx) + euler(f) + (6 * ctx.kappa + 3) * f
        rep.checked += 1
        if lhs != rhs:
            rep.failures.append(f"monomial {exp}")
    reports.append(rep)

    # exp(-D0^2/2) (D0 y0 - kappa' sigma_0) exp(D0^2/2) = -D0^2 + y_0 d/dy_0 + kappa' + 1
    rep = IdentityReport("d0y0-conjugation", 0, [])
    for m in range(max_degree + 1):
        f = SparsePoly.monomial((m,), Y0)
        g = exp_half_laplacian("D0", f, ctx, 1)
        lhs = exp_half_laplacian("D0", _d0y0_minus_sigma(g, ctx), ctx, -1)
        rhs = -d0_squared(f, ctx) + euler(f) + (ctx.kappa_prime + 1) * f
        rep.checked += 1
        if lhs != rhs:
            rep.failures.append(f"y0^{m}")
    reports.append(rep)

    # D0^2 = d^2/dy_0^2 + (2 kappa'/y_0) d/dy_0 - kappa' (1 - sigma_0)/y_0^2
    rep = IdentityReport("d0-squared-decomposition", 0, [])
    for m in range(max_degree + 1):
        f = SparsePoly.monomial((m,), Y0)
        rep.checked += 1
        if d0_squared(f, ctx) != _d0sq_termwise(f, ctx):
            rep.failures.append(f"y0^{m}")
    reports.append(rep)

    # (D0 y0 - kappa' sigma_0) y_0^n = (n + 1 + kappa') y_0^n
    rep = IdentityReport("d0y0-eigenvalue", 0, [])
    for m in range(max_degree + 1):
        f = SparsePoly.monomial((m,), Y0)
        rep.checked += 1
        if _d0y0_minus_sigma(f, ctx) != (m + 1 + ctx.kappa_prime) * f:
            rep.failures.append(f"y0^{m}")
    reports.append(rep)

    # conjugated Hamiltonian = exp(-Delta_h/2)(sum UB_i + D0 y0 - kappa' sigma_0 - 2) exp(Delta_h/2)
    rep = IdentityReport("hamiltonian-conjugation", 0, [])
    for exp in combin.compositions_up_to(max_degree, 4):
        f = SparsePoly.monomial(exp, Y4)
        g = exp_half_laplacian("H", f, ctx, 1)
        mid = _sum_cherednik_b(g, ctx) + _d0y0_minus_sigma(g, ctx) - 2 * g
        rhs = exp_half_laplacian("H", mid, ctx, -1)
        rep.checked += 1
        if conjugated_hamiltonian(f, ctx) != rhs:
            rep.failures.append(f"monomial {exp}")
    reports.append(rep)

    return reports
