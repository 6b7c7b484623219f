"""Nonsymmetric Jack polynomials and their symmetrizations.

For a composition alpha, zeta_alpha is the unique x-monic joint eigenfunction
of the Cherednik operators U_1..U_N with eigenvalues xi_i(alpha); its support
below the leading monomial is strictly smaller in the dominance order.  It is
built from zeta_0 = 1 along the Yang-Baxter graph of Knop and Sahi (Invent.
Math. 128, 1997), each step from one parent (0-based positions):

- affine: if alpha_N > 0, zeta_alpha(x) = x_N zeta_beta(x_N, x_1, ..., x_{N-1})
  for beta = (alpha_N - 1, alpha_1, ..., alpha_{N-1}), a rotation of the
  exponents and one shift, with no arithmetic;
- transposition: otherwise, with i the last position where alpha_i > 0 and
  beta = s_i alpha, zeta_alpha = s_i zeta_beta - kappa / (xi_i(beta) -
  xi_{i+1}(beta)) zeta_beta.  The divisor is read from the ranks r of beta:
  xi_i(beta) - xi_{i+1}(beta) = (r_{i+1} - r_i) kappa + beta_i - beta_{i+1},
  so at kappa = p/q the scale is the integer ratio
  -p / ((r_{i+1} - r_i) p + (beta_i - beta_{i+1}) q).  As beta_i < beta_{i+1},
  both terms of the divisor are negative for kappa > 0.

No eigen-equation is used to build zeta_alpha, so the eigen suite of
:mod:`jack4.verify` checks all N of them independently.
"""

from __future__ import annotations

from . import combin
from .exact import ParamContext, Rat
from .ops import _memo
from .poly import SparsePoly, _accumulate, x_frame


class NsjpRecord:
    """One nonsymmetric Jack polynomial.  Its spectral vector and norm are
    closed forms in the label and kappa, computed on first read, so the
    Yang-Baxter ancestors that only lend their polynomial build neither."""

    __slots__ = ("label", "poly", "kappa", "_spectral", "_norm")

    def __init__(self, label: tuple[int, ...], poly: SparsePoly, kappa: Rat):
        self.label, self.poly, self.kappa = label, poly, kappa
        self._spectral = self._norm = None

    def __eq__(self, other) -> bool:
        return isinstance(other, NsjpRecord) and (
            (self.label, self.poly, self.kappa) == (other.label, other.poly, other.kappa))

    @property
    def spectral(self) -> tuple[Rat, ...]:
        if self._spectral is None:
            self._spectral = combin.spectral_vector(self.label, self._ctx())
        return self._spectral

    @property
    def norm(self) -> Rat:
        if self._norm is None:
            self._norm = nsjp_norm(self.label, self._ctx())
        return self._norm

    def _ctx(self) -> ParamContext:
        return ParamContext(self.kappa, Rat(0), len(self.label))


def nsjp(alpha, ctx: ParamContext) -> NsjpRecord:
    """The record of zeta_alpha from the "nsjp" memo entry per (alpha, kappa);
    its spectral vector and norm are computed when read."""
    alpha = combin.as_parts(alpha)
    if len(alpha) != ctx.nvars_a:
        raise ValueError(f"composition length {len(alpha)} != context nvars {ctx.nvars_a}")
    if ctx.kappa <= 0:
        raise ValueError("nonsymmetric Jack construction requires kappa > 0")
    return _memo("nsjp", x_frame(len(alpha)), len(alpha), ctx, _yang_baxter_step)[alpha]


def _yang_baxter_step(records, alpha) -> NsjpRecord:
    """The compute of the "nsjp" entry: zeta_alpha by one Yang-Baxter step
    from its parent, read from the same entry (see the module docstring)."""
    ctx = records.ctx
    if alpha[-1]:
        parent = records[(alpha[-1] - 1,) + alpha[:-1]]
        terms = {e[1:] + (e[0] + 1,): c for e, c in parent.poly.terms.items()}
    elif any(alpha):
        i = max(p for p, a in enumerate(alpha) if a)
        beta = alpha[:i] + (0, alpha[i]) + alpha[i + 2:]
        parent = records[beta]
        scale = _transposition_scale(beta, i, ctx)
        terms = {e: scale * c for e, c in parent.poly.terms.items()}
        for e, c in parent.poly.terms.items():
            _accumulate(terms, e[:i] + (e[i + 1], e[i]) + e[i + 2:], c)
    else:
        terms = {alpha: Rat(1)}
    poly = SparsePoly._of(len(alpha), records.frame, terms)
    return NsjpRecord(alpha, poly, ctx.kappa)


def _transposition_scale(beta, i: int, ctx: ParamContext) -> Rat:
    """-kappa / (xi_i(beta) - xi_{i+1}(beta)) from the ranks of beta, in integers."""
    r = combin.ranks(beta)
    p, q = ctx.kappa.as_integer_ratio()
    return Rat(-p, (r[i + 1] - r[i]) * p + (beta[i] - beta[i + 1]) * q)


def nsjp_norm(alpha, ctx: ParamContext) -> Rat:
    """<zeta_alpha, zeta_alpha>_kappa = (N kappa + 1)_{alpha+} h(alpha, 1) / h(alpha, kappa + 1).

    One integer product of the closed forms of :mod:`jack4.combin`, also
    read as ``NsjpRecord.norm``; the Yang-Baxter construction never needs it."""
    top, low, lower = _norm_factors(alpha, ctx)
    return combin.ratio(top, low, lower[::-1])


def nsjp_eval_ones(alpha, ctx: ParamContext) -> Rat:
    """zeta_alpha(1, ..., 1) = (N kappa + 1)_{alpha+} / h(alpha, kappa + 1)."""
    top, _, lower = _norm_factors(alpha, ctx)
    return combin.ratio(top, lower[::-1])


def _norm_factors(alpha, ctx: ParamContext) -> tuple:
    """(N kappa + 1)_{alpha+}, h(alpha, 1) and h(alpha, kappa + 1) as integer ratios."""
    alpha = combin.as_parts(alpha)
    p, q = ctx.kappa.as_integer_ratio()
    return (combin._pochhammer(sorted(alpha, reverse=True), len(alpha) * p + q, q, p, q),
            combin._hook(alpha, 1, 1, p, q), combin._hook(alpha, p + q, q, p, q))


def symmetric_jack(lam, ctx: ParamContext) -> SparsePoly:
    """j_lambda = sum over rearrangements alpha of lambda of E_{-1}(alpha) zeta_alpha;
    symmetric with leading monomial x^lambda.  Memoized per (lambda, kappa)
    next to the nsjp records."""
    lam = combin.as_parts(lam)
    if not combin.is_partition(lam):
        raise ValueError(f"{lam} is not a partition")
    return _memo("jack", x_frame(len(lam)), len(lam), ctx, _symmetrize)[lam]


def _symmetrize(jacks, lam) -> SparsePoly:
    """The compute of the "jack" entry."""
    terms: dict = {}
    for alpha in combin.rearrangements(lam):
        e = combin.e_epsilon(alpha, -1, jacks.ctx)
        for exp, c in nsjp(alpha, jacks.ctx).poly.terms.items():
            _accumulate(terms, exp, e * c)
    return SparsePoly._of(len(lam), jacks.frame, terms)


def jack_norm(lam, ctx: ParamContext) -> Rat:
    """<j_lambda, j_lambda>_kappa in closed form:
    #{alpha: alpha+ = lambda} (N kappa + 1)_lambda h(lambda, 1)
    / (E_1(lambda reversed) h(lambda, kappa + 1))."""
    lam = combin.as_parts(lam)
    if not combin.is_partition(lam):
        raise ValueError(f"{lam} is not a partition")
    top, low, lower = _norm_factors(lam, ctx)
    e = combin.e_epsilon(lam[::-1], 1, ctx).as_integer_ratio()
    return combin.ratio((combin.orbit_count(lam), 1), top, low, e[::-1], lower[::-1])
