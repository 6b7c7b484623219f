"""The four-variable orthogonal basis and its invariant families.

Every label gamma in N_0^3 factors through a parity pattern: with E the set
of positions where gamma is odd, w the order-preserving shuffle sending
{1..k} onto E, beta = w^{-1} gamma and alpha = floor(beta / 2), the basis
element is

    p_gamma(y) = w ( y_1 ... y_k * zeta_alpha(y_1^2, y_2^2, y_3^2) ),

odd in exactly the coordinates of E.  Tensoring with powers of y_0 gives the
full orthogonal family p_gamma(y) y_0^n for the extended pairing, the D3
pairing of y_1..y_3 times the A1 pairing of y_0; so the squared norm is
gamma_norm times y0_power_norm, each one integer product.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import NamedTuple

from . import combin
from .exact import ParamContext, Rat
from .jack import jack_norm, nsjp, symmetric_jack
from .ops import _memo, pairing_kappa
from .poly import SparsePoly, Y3, embed_y3, substitute_squares

# Order-preserving shuffles for each parity set E, as 0-based image tuples:
# w maps {1..k} onto E and {k+1..3} onto the complement, increasing on both.
W_TABLE: dict[frozenset, tuple[int, int, int]] = {
    frozenset(): (0, 1, 2),
    frozenset({1}): (0, 1, 2),
    frozenset({2}): (1, 0, 2),
    frozenset({3}): (2, 0, 1),
    frozenset({1, 2}): (0, 1, 2),
    frozenset({1, 3}): (0, 2, 1),
    frozenset({2, 3}): (1, 2, 0),
    frozenset({1, 2, 3}): (0, 1, 2),
}


class BasisLabel(NamedTuple):
    """Names the basis element p_gamma(y) * y_0^n."""

    gamma: tuple[int, int, int]
    n: int


class LabelDecomposition(NamedTuple):
    gamma: tuple[int, int, int]
    odd_set: tuple[int, ...]
    k: int
    w: tuple[int, int, int]
    beta: tuple[int, int, int]
    alpha: tuple[int, int, int]


def decompose_label(gamma) -> LabelDecomposition:
    """Split gamma into (E, w, beta, alpha) with gamma = w beta."""
    gamma = combin.as_parts(gamma)
    if len(gamma) != 3:
        raise ValueError(f"bad basis label {gamma}")
    odd = frozenset(i + 1 for i, g in enumerate(gamma) if g % 2)
    w = W_TABLE[odd]
    beta = tuple(gamma[w[i]] for i in range(3))
    alpha = tuple(b // 2 for b in beta)
    return LabelDecomposition(gamma, tuple(sorted(odd)), len(odd), w, beta, alpha)


def basis_poly(gamma, ctx: ParamContext) -> SparsePoly:
    """p_gamma(y) in the y3 frame; odd in y_i exactly for i in the parity set."""
    d = decompose_label(gamma)
    zeta = nsjp(d.alpha, ctx).poly
    f = substitute_squares(zeta)
    prefix = tuple(1 if i < d.k else 0 for i in range(3))
    f = SparsePoly.monomial(prefix, Y3) * f
    return f.apply_permutation(d.w)


def basis_poly4(label: BasisLabel, ctx: ParamContext) -> SparsePoly:
    """p_gamma(y) * y_0^n embedded in the y4 frame."""
    gamma, n = label
    if n < 0:
        raise ValueError("y0 exponent must be nonnegative")
    return embed_y3(basis_poly(gamma, ctx), y0_power=n)


def y0_power_norm(n: int, ctx: ParamContext) -> Rat:
    """<y_0^n, y_0^n> under the extended pairing: 2^{2m} m! (kappa'+1/2)_m for
    n = 2m, and 2^{2m+1} m! (kappa'+1/2)_{m+1} for n = 2m+1; one integer product."""
    (n,) = combin.as_parts((n,))
    m, odd = divmod(n, 2)
    p, q = ctx.kappa_prime.as_integer_ratio()
    return combin.ratio((2**n * factorial(m), 1),
                        combin._pochhammer((m + odd,), 2 * p + q, 2 * q, 0, 1))


def gamma_norm(gamma, ctx: ParamContext) -> Rat:
    """Closed-form squared norm of p_gamma under the three-variable pairing:
    2^{|beta|} (3 kappa + 1)_{alpha+} (2 kappa + 1/2)_{(beta-alpha)+}
    * h(alpha, 1) / h(alpha, kappa + 1).

    One integer product of the closed forms of :mod:`jack4.combin`.  The
    value does not depend on kappa_prime, so it is memoized once per
    (gamma, kappa) in ``ops._MEMO_CACHE`` under the y3 key rule, and shared
    by every kappa_prime of :func:`basis_norm`."""
    return _memo("gamma_norm", Y3, 3, ctx, _gamma_norm)[combin.as_parts(gamma)]


def _gamma_norm(norms, gamma) -> Rat:
    d = decompose_label(gamma)
    p, q = norms.ctx.kappa.as_integer_ratio()
    diff = sorted((b - a for b, a in zip(d.beta, d.alpha)), reverse=True)
    return combin.ratio(
        (2 ** combin.weight(d.beta), 1),
        combin._pochhammer(sorted(d.alpha, reverse=True), 3 * p + q, q, p, q),
        combin._pochhammer(diff, 4 * p + q, 2 * q, p, q), combin._hook(d.alpha, 1, 1, p, q),
        combin._hook(d.alpha, p + q, q, p, q)[::-1])


def basis_norm(label: BasisLabel, ctx: ParamContext) -> Rat:
    """Squared norm of p_gamma * y_0^n under the extended pairing."""
    gamma, n = label
    return gamma_norm(gamma, ctx) * y0_power_norm(n, ctx)


class InvariantRecord(NamedTuple):
    """A fully symmetric eigenfunction F^s_lambda with both norm evaluations.

    ``formula_norm`` is the closed-form candidate
    2^{2|lambda|} (2 kappa + 1/2)_{lambda + s(1,1,1)} A_lambda; for s = 1 the
    exact ``pairing_norm`` is computed independently and the two may differ
    by a power of two (the verification suite adjudicates).  Callers that
    need only the polynomial use :func:`invariant_poly`, which pairs nothing.
    """

    lam: tuple[int, int, int]
    s: int
    poly: SparsePoly
    a_lambda: Rat
    formula_norm: Rat
    pairing_norm: Rat


def invariant_F(lam, s: int, ctx: ParamContext) -> InvariantRecord:
    """F^s_lambda with both of its norms; free of kappa_prime, so memoized per
    (lambda, s, kappa) like :func:`gamma_norm`."""
    return _memo("invariant_F", Y3, 3, ctx, _invariant_record)[_invariant_key(lam, s)]


def _invariant_key(lam, s: int) -> tuple:
    """(lambda, s) as parts; lambda must have three parts and s be 0 or 1."""
    lam = combin.as_parts(lam)
    if len(lam) != 3:
        raise ValueError("lambda must have three parts")
    if s not in (0, 1):
        raise ValueError("s must be 0 or 1")
    return lam, s


def invariant_poly(lam, s: int, ctx: ParamContext) -> SparsePoly:
    """F^0_lambda = j_lambda(y^2) or F^1_lambda = y_1 y_2 y_3 j_lambda(y^2) in
    the y3 frame, without the norms of :func:`invariant_F`."""
    lam, s = _invariant_key(lam, s)
    f = substitute_squares(symmetric_jack(lam, ctx))
    return SparsePoly.monomial((1, 1, 1), Y3) * f if s else f


def _invariant_record(records, key) -> InvariantRecord:
    (lam, s), ctx = key, records.ctx
    f = invariant_poly(lam, s, ctx)
    a_lambda = jack_norm(lam, ctx)
    shifted = tuple(p + s for p in lam)
    formula = (
        Fraction(2) ** (2 * combin.weight(lam))
        * combin.gen_pochhammer(shifted, 2 * ctx.kappa + Fraction(1, 2), ctx)
        * a_lambda
    )
    return InvariantRecord(lam, s, f, a_lambda, formula, pairing_kappa(f, f, ctx))
