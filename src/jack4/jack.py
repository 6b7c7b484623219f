"""Nonsymmetric Jack polynomials and their symmetrizations.

For a composition alpha, zeta_alpha is the unique x-monic joint eigenfunction
of the Cherednik operators U_1..U_N with eigenvalues xi_i(alpha); its support
below the leading monomial is strictly smaller in the dominance order.  The
construction solves the triangular joint eigenproblem degree by degree in the
canonical monomial order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import combin
from .exact import ParamContext, Rat
from .ops import _apply, _memo, _weights
from .poly import SparsePoly, _accumulate, x_frame


@dataclass(frozen=True)
class NsjpRecord:
    """One nonsymmetric Jack polynomial with its spectral data."""

    label: tuple[int, ...]
    poly: SparsePoly
    spectral: tuple[Rat, ...]
    norm: Rat


def nsjp(alpha, ctx: ParamContext) -> NsjpRecord:
    """Construct zeta_alpha by back-substitution in the canonical order.

    The solve runs on the eigen-equation of U_1 and, whenever a lower
    monomial shares the same U_1 eigenvalue, falls back to the first U_i
    that separates it (the joint spectrum is simple for kappa > 0).  For
    each U_i it uses, it keeps U_i applied to the part solved so far, from
    the memoized integer images Q U_i on monomials: each solved value is
    divided by Q once before it enters them.
    """
    alpha = tuple(int(a) for a in alpha)
    if any(a < 0 for a in alpha):
        raise ValueError("composition parts must be nonnegative")
    if len(alpha) != ctx.nvars_a:
        raise ValueError(f"composition length {len(alpha)} != context nvars {ctx.nvars_a}")
    if ctx.kappa <= 0:
        raise ValueError("nonsymmetric Jack construction requires kappa > 0")
    nvars = len(alpha)
    frame = x_frame(nvars)
    records = _memo("nsjp", frame, nvars, ctx)
    cached = records.get(alpha)
    if cached is not None:
        return cached

    scale = _weights(frame, ctx)[0]  # the memo holds Q U_i
    xi_alpha = combin.spectral_vector(alpha, ctx)
    monos = combin.compositions_of_weight(combin.weight(alpha), nvars)
    coeffs = {alpha: Fraction(1)}
    running: dict = {}  # sel -> terms of U_sel applied to the part solved so far
    for m in monos[monos.index(alpha) + 1:]:
        xi = combin.spectral_vector(m, ctx)
        sel = next((i for i in range(nvars) if xi[i] != xi_alpha[i]), None)
        if sel is None:
            raise ArithmeticError(f"spectral vectors of {alpha} and {m} collide")
        if sel not in running:
            solved = SparsePoly._of(nvars, frame, dict(coeffs))  # coeffs keeps growing
            running[sel] = dict(_apply(("U", sel), solved, ctx).terms)
        value = running[sel].get(m, 0) / (xi_alpha[sel] - xi[sel])
        if value:
            coeffs[m] = value
            value /= scale
            for i, acc in running.items():
                for exp, c in _memo(("U", i), frame, nvars, ctx)[m].items():
                    _accumulate(acc, exp, value * c)

    poly = SparsePoly._of(nvars, frame, coeffs)
    record = records[alpha] = NsjpRecord(alpha, poly, xi_alpha, nsjp_norm(alpha, ctx))
    return record


def nsjp_norm(alpha, ctx: ParamContext) -> Rat:
    """<zeta_alpha, zeta_alpha>_kappa = (N kappa + 1)_{alpha+} h(alpha, 1) / h(alpha, kappa + 1).

    Each factor is one of the integer closed forms of :mod:`jack4.combin`.
    :func:`nsjp` computes it once per record, as ``NsjpRecord.norm``."""
    n = len(alpha)
    plus, _ = combin.sort_to_partition(alpha)
    top = combin.gen_pochhammer(plus, n * ctx.kappa + 1, ctx)
    return top * combin.hook_product(alpha, 1, ctx) / combin.hook_product(alpha, ctx.kappa + 1, ctx)


def nsjp_eval_ones(alpha, ctx: ParamContext) -> Rat:
    """zeta_alpha(1, ..., 1) = (N kappa + 1)_{alpha+} / h(alpha, kappa + 1)."""
    n = len(alpha)
    plus, _ = combin.sort_to_partition(alpha)
    top = combin.gen_pochhammer(plus, n * ctx.kappa + 1, ctx)
    return top / combin.hook_product(alpha, ctx.kappa + 1, ctx)


def symmetric_jack(lam, ctx: ParamContext) -> SparsePoly:
    """j_lambda = sum over rearrangements alpha of lambda of E_{-1}(alpha) zeta_alpha;
    symmetric with leading monomial x^lambda.  Memoized per (lambda, kappa)
    next to the nsjp records."""
    lam = tuple(int(a) for a in lam)
    if not combin.is_partition(lam):
        raise ValueError(f"{lam} is not a partition")
    frame = x_frame(len(lam))
    jacks = _memo("jack", frame, len(lam), ctx)
    j = jacks.get(lam)
    if j is None:
        terms: dict = {}
        for alpha in combin.rearrangements(lam):
            e = combin.e_epsilon(alpha, -1, ctx)
            for exp, c in nsjp(alpha, ctx).poly.terms.items():
                _accumulate(terms, exp, e * c)
        j = jacks[lam] = SparsePoly._of(len(lam), frame, terms)
    return j


def jack_norm(lam, ctx: ParamContext) -> Rat:
    """<j_lambda, j_lambda>_kappa in closed form:
    #{alpha: alpha+ = lambda} (N kappa + 1)_lambda h(lambda, 1)
    / (E_1(lambda reversed) h(lambda, kappa + 1))."""
    lam = tuple(int(a) for a in lam)
    if not combin.is_partition(lam):
        raise ValueError(f"{lam} is not a partition")
    n = len(lam)
    reverse = lam[::-1]
    value = combin.orbit_count(lam) * combin.gen_pochhammer(lam, n * ctx.kappa + 1, ctx)
    value *= combin.hook_product(lam, 1, ctx)
    value /= combin.e_epsilon(reverse, 1, ctx) * combin.hook_product(lam, ctx.kappa + 1, ctx)
    return value
