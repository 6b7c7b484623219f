"""Exact verification sweeps over label families.

Each suite walks every label in its range, compares an operator-computed
quantity against the corresponding closed form, and reports the count,
the number of failures, and the first counterexample.  All comparisons are
exact: any nonzero discrepancy is a failure.  The Gram checks of prop1 and
prop2 compare integer ratios, from dual vectors kept per (label, kappa).
prop2 and spectrum work on the A1 x D3 factors, y_0 apart from y_1..y_3, so
no y4 product is built: spectrum checks each D3 factor once per gamma and
each A1 factor once per n.
"""

from __future__ import annotations

from fractions import Fraction

from . import combin
from .basis4 import BasisLabel, basis_norm, basis_poly, invariant_F
from .exact import ParamContext, format_rational
from .hermite_cs import energy_level, exp_half_laplacian, operator_identities_check
from .jack import jack_norm, nsjp, nsjp_eval_ones, symmetric_jack
from .ops import Dual, _memo, cherednik_a, euler, laplacian, pairing_extended, pairing_kappa
from .poly import SparsePoly, Y0, Y3, Y4, x_frame


class SuiteReport:
    """The checks of one suite: how many were made, how many failed, the
    first failure in the suite's order, and per-suite details."""

    def __init__(self, suite: str, params: dict, max_degree: int):
        self.suite, self.params, self.max_degree = suite, params, max_degree
        self.checked = self.failures = 0
        self.first_counterexample: str | None = None
        self.details: list = []

    @property
    def ok(self) -> bool:
        return self.failures == 0

    def record(self, ok: bool, describe) -> None:
        self.checked += 1
        if not ok:
            self.failures += 1
            if self.first_counterexample is None:
                self.first_counterexample = describe()

    def to_json(self) -> dict:
        out = {
            "suite": self.suite,
            "params": self.params,
            "max_degree": self.max_degree,
            "checked": self.checked,
            "failures": self.failures,
            "first_counterexample": self.first_counterexample,
            "ok": self.ok,
        }
        if self.details:
            out["details"] = self.details
        return out


def _params(ctx: ParamContext) -> dict:
    return {
        "kappa": format_rational(ctx.kappa),
        "kappa_prime": format_rational(ctx.kappa_prime),
    }


def _require_max_degree(max_degree: int) -> None:
    """A negative degree would check or list nothing, and pass vacuously."""
    if max_degree < 0:
        raise ValueError(f"max degree must be nonnegative, got {max_degree}")


def basis_labels_up_to(max_degree: int) -> list[BasisLabel]:
    """All labels (gamma, n) with |gamma| + n <= max_degree, in the canonical
    output order (total degree, then gamma, then n)."""
    _require_max_degree(max_degree)
    labels = []
    for n in range(max_degree + 1):
        for gamma in combin.compositions_up_to(max_degree - n, 3):
            labels.append(BasisLabel(gamma, n))
    labels.sort(key=lambda l: (combin.weight(l.gamma) + l.n, combin.canonical_key(l.gamma), l.n))
    return labels


def suite_eigen(ctx: ParamContext, max_degree: int) -> SuiteReport:
    """U_i zeta_alpha = xi_i(alpha) zeta_alpha for every |alpha| <= max_degree."""
    rep = SuiteReport("eigen", _params(ctx), max_degree)
    for alpha in combin.compositions_up_to(max_degree, ctx.nvars_a):
        rec = nsjp(alpha, ctx)
        xi = rec.spectral
        for i in range(1, ctx.nvars_a + 1):
            lhs = cherednik_a(i, rec.poly, ctx)
            rep.record(
                lhs == xi[i - 1] * rec.poly,
                lambda a=alpha, i=i: f"U_{i} zeta_{a} is not an eigenfunction",
            )
    return rep


def check_gram(rep: SuiteReport, duals: list, norms: list, describe, y0=None) -> None:
    """Check <e_i, e_j> = delta_ij norms[i] for every i <= j, in that order;
    describe(i, j, value, expected) names a failure.  e_i is the element of
    the dual vector duals[i] (:class:`jack4.ops.Dual`), times y_0^n if
    y0[i] = (n, a), a = <y_0^n, y_0^n> as an integer ratio.  Terms of
    different block keys, the degrees on the components of the root system,
    pair to zero: so two elements with one key each (n first), not the same,
    count as checked in bulk.  Every other pair is an integer ratio, checked
    by one cross-multiplication; only a failure builds a Fraction."""
    y0 = y0 or [(0, (1, 1))] * len(duals)
    keys = [(m,) + next(iter(d.by_blocks)) if len(d.by_blocks) == 1 else None
            for d, (m, _) in zip(duals, y0)]
    blocks: dict = {}
    for j, key in enumerate(keys):
        blocks.setdefault(key, []).append(j)
    mixed = blocks.pop(None, [])  # no one key: the zero polynomial or a mixture
    n = len(duals)
    for i, f in enumerate(duals):
        key = keys[i]
        js = range(i, n) if key is None else sorted(j for j in blocks[key] + mixed if j >= i)
        rep.checked += n - i - len(js)
        m, (an, ad) = y0[i]
        for j in js:
            num, den = duals[j].ratio(f) if y0[j][0] == m else (0, 1)
            expected = norms[i] if i == j else 0
            rep.record(num * an * expected.denominator == expected.numerator * ad * den,
                       lambda: describe(i, j, Fraction(num * an, den * ad), expected))


def suite_prop1(ctx: ParamContext, max_degree: int) -> SuiteReport:
    """<zeta_a, zeta_b> = delta_ab * closed-form norm, |a|, |b| <= max_degree."""
    rep = SuiteReport("prop1", _params(ctx), max_degree)
    comps = list(combin.compositions_up_to(max_degree, ctx.nvars_a))
    kept = _memo("nsjp_dual", x_frame(ctx.nvars_a), ctx.nvars_a, ctx,
                 lambda entry, a: Dual(nsjp(a, entry.ctx).poly, entry.ctx))
    check_gram(rep, [kept[a] for a in comps], [nsjp(alpha, ctx).norm for alpha in comps],
               lambda i, j, v, e: (f"<zeta_{comps[i]}, zeta_{comps[j]}> = "
                                   f"{format_rational(v)}, expected {format_rational(e)}"))
    return rep


def suite_eval_ones(ctx: ParamContext, max_degree: int) -> SuiteReport:
    """zeta_alpha at the all-ones point equals its closed form."""
    rep = SuiteReport("eval-ones", _params(ctx), max_degree)
    ones = (1,) * ctx.nvars_a
    for alpha in combin.compositions_up_to(max_degree, ctx.nvars_a):
        value = nsjp(alpha, ctx).poly.evaluate(ones)
        rep.record(
            value == nsjp_eval_ones(alpha, ctx),
            lambda a=alpha, v=value: f"zeta_{a}(1,..,1) = {format_rational(v)} mismatches formula",
        )
    return rep


def suite_hooks(ctx: ParamContext, max_degree: int) -> SuiteReport:
    """h(a, kappa+1) = E_1(a) h(a+, kappa+1) and h(a+, 1) = h(a, 1) E_{-1}(a)."""
    rep = SuiteReport("hooks", _params(ctx), max_degree)
    for alpha in combin.compositions_up_to(max_degree, ctx.nvars_a):
        plus, _ = combin.sort_to_partition(alpha)
        lhs1 = combin.hook_product(alpha, ctx.kappa + 1, ctx)
        rhs1 = combin.e_epsilon(alpha, 1, ctx) * combin.hook_product(plus, ctx.kappa + 1, ctx)
        rep.record(lhs1 == rhs1, lambda a=alpha: f"upper hook identity fails at {a}")
        lhs2 = combin.hook_product(plus, 1, ctx)
        rhs2 = combin.hook_product(alpha, 1, ctx) * combin.e_epsilon(alpha, -1, ctx)
        rep.record(lhs2 == rhs2, lambda a=alpha: f"lower hook identity fails at {a}")
    return rep


def suite_prop2(ctx: ParamContext, max_degree: int) -> SuiteReport:
    """The family p_gamma y_0^n with |gamma| + n <= max_degree is orthogonal
    with the closed-form diagonal norms, under the extended pairing: on y4
    the D3 pairing of y_1..y_3 times the A1 pairing of y_0, so each entry is
    delta_nn' <y_0^n, y_0^n> <p_gamma, p_gamma'>_kappa, from the kept y3 dual
    vectors of the p_gamma and the A1 factor paired once per n."""
    rep = SuiteReport("prop2", _params(ctx), max_degree)
    labels = basis_labels_up_to(max_degree)
    kept = _memo("basis_dual", Y3, 3, ctx,
                 lambda entry, gamma: Dual(basis_poly(gamma, entry.ctx), entry.ctx))
    duals = [kept[lab.gamma] for lab in labels]
    powers = [SparsePoly.monomial((n, 0, 0, 0), Y4) for n in range(max_degree + 1)]
    a1 = [pairing_extended(f, f, ctx).as_integer_ratio() for f in powers]
    check_gram(rep, duals, [basis_norm(lab, ctx) for lab in labels], lambda i, j, v, e: (
        f"<p_{labels[i].gamma} y0^{labels[i].n}, p_{labels[j].gamma} y0^{labels[j].n}> = "
        f"{format_rational(v)}, expected {format_rational(e)}"),
        [(lab.n, a1[lab.n]) for lab in labels])
    return rep


def suite_jack(ctx: ParamContext, max_degree: int) -> SuiteReport:
    """Symmetric Jack polynomials: invariance under adjacent transpositions
    and the closed-form norm, |lambda| <= max_degree."""
    rep = SuiteReport("jack", _params(ctx), max_degree)
    n = ctx.nvars_a
    for lam in combin.partitions_up_to(max_degree, n):
        j = symmetric_jack(lam, ctx)
        for pos in range(n - 1):
            rep.record(
                j.swap_variables(pos, pos + 1) == j,
                lambda l=lam, p=pos: f"j_{l} not invariant under transposition ({p+1},{p+2})",
            )
        value = pairing_kappa(j, j, ctx)
        rep.record(
            value == jack_norm(lam, ctx),
            lambda l=lam, v=value: f"<j_{l}, j_{l}> = {format_rational(v)} mismatches formula",
        )
    return rep


def suite_spectrum(ctx: ParamContext, max_degree: int) -> SuiteReport:
    """The conjugated Hamiltonian acts on each transformed basis element by
    |gamma| + n + 6 kappa + kappa' + 2; levels depend only on total degree.

    The check runs on the A1 x D3 factors.  On y4 the conjugated Hamiltonian
    is (-Delta_B + E) on y_1..y_3, plus (-D0^2 + E) on y_0, plus c = 6 kappa +
    kappa' + 2, E the Euler operator, and the transformed element of (gamma,
    n) is g h with g = exp(-Delta_B/2) p_gamma and h = exp(-D0^2/2) y_0^n.
    So the eigen-equation at (gamma, n) follows from -Delta_B g + E g =
    |gamma| g in y3, checked once per gamma, and -D0^2 h + E h = n h in y0,
    checked once per n: a label passes if both of its factors pass.  On a
    broken program the route through the y4 products may name a different
    first failure."""
    rep = SuiteReport("spectrum", _params(ctx), max_degree)

    def eigen(kind, f, energy):
        g = exp_half_laplacian(kind, f, ctx)
        return -laplacian(kind, g, ctx) + euler(g) == energy * g

    d3 = {gamma: eigen("B", basis_poly(gamma, ctx), combin.weight(gamma))
          for gamma in combin.compositions_up_to(max_degree, 3)}
    a1 = [eigen("D0", SparsePoly.monomial((n,), Y0), n) for n in range(max_degree + 1)]
    by_degree: dict[int, set] = {}
    for lab in basis_labels_up_to(max_degree):
        rep.record(
            d3[lab.gamma] and a1[lab.n],
            lambda l=lab: f"spectrum fails at gamma={l.gamma}, n={l.n}",
        )
        by_degree.setdefault(combin.weight(lab.gamma) + lab.n, set()).add(energy_level(lab, ctx))
    for degree, energies in sorted(by_degree.items()):
        rep.record(
            len(energies) == 1,
            lambda d=degree: f"energy not constant across labels of degree {d}",
        )
    return rep


def suite_identities(ctx: ParamContext, max_degree: int) -> SuiteReport:
    """The operator conjugation and decomposition identities, termwise."""
    rep = SuiteReport("identities", _params(ctx), max_degree)
    for ident in operator_identities_check(ctx, max_degree):
        rep.checked += ident.checked
        rep.failures += len(ident.failures)
        if ident.failures and rep.first_counterexample is None:
            rep.first_counterexample = f"{ident.name}: {ident.failures[0]}"
    return rep


def suite_f1_norm(ctx: ParamContext, max_degree: int) -> SuiteReport:
    """Adjudicate the squared norm of y_1 y_2 y_3 j_lambda(y^2): the exact
    pairing is compared against the two candidate scalings
    2^{2|lambda|} (2k+1/2)_{lambda+1} A_lambda  and  2^{2|lambda|+3} (...).
    Fails only if neither candidate matches."""
    rep = SuiteReport("f1-norm", _params(ctx), max_degree)
    for lam in combin.partitions_up_to(max_degree, 3):
        rec = invariant_F(lam, 1, ctx)
        small = rec.formula_norm
        large = small * 8
        if rec.pairing_norm == large:
            matched = "2^(2|lambda|+3)"
        elif rec.pairing_norm == small:
            matched = "2^(2|lambda|)"
        else:
            matched = "neither"
        rep.details.append({"lambda": list(lam), "matched": matched})
        rep.record(
            matched != "neither",
            lambda l=lam, r=rec: (
                f"F^1 norm at {l}: pairing {format_rational(r.pairing_norm)} matches "
                f"neither candidate ({format_rational(r.formula_norm)} or x8)"
            ),
        )
    return rep


SUITES = {
    "prop1": suite_prop1,
    "prop2": suite_prop2,
    "eval-ones": suite_eval_ones,
    "hooks": suite_hooks,
    "spectrum": suite_spectrum,
    "identities": suite_identities,
    "f1-norm": suite_f1_norm,
    "eigen": suite_eigen,
    "jack": suite_jack,
}


def run_suite(name: str, ctx: ParamContext, max_degree: int) -> SuiteReport:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    _require_max_degree(max_degree)
    return SUITES[name](ctx, max_degree)
