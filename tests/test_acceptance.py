"""Acceptance suite: every closed-form identity the library is built around,
swept exactly over the pinned label ranges and parameter samples, with one
pass/fail line per criterion.  All symbolic comparisons are exact (zero
tolerance); only the Monte Carlo criterion carries statistical tolerances.
"""

from fractions import Fraction
from math import factorial


from jack4 import verify
from jack4.basis4 import BasisLabel, basis_poly4
from jack4.exact import make_context
from jack4.hermite_cs import exp_half_laplacian, hermite_basis, laguerre_y0sq
from jack4.jack import jack_norm
from jack4.measure import McConfig, mc_inner_product, normalization_constant, selberg_product
from jack4.ops import pairing_extended
from jack4.poly import SparsePoly

KAPPAS = (Fraction(1, 2), Fraction(1), Fraction(3), Fraction(5, 7))
PARAM_PAIRS = tuple(
    (k, kp) for k in (Fraction(1, 2), Fraction(1)) for kp in (Fraction(1, 2), Fraction(2))
)
MC_SAMPLES = 1_000_000
MC_SEED = 20080824


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {num}: {name}{suffix}")
    assert ok, f"criterion {num}: {name}{suffix}"


def test_criterion_1_eigenfunctions():
    ok = True
    details = []
    for kappa in KAPPAS:
        rep = verify.suite_eigen(make_context(kappa, 0, 3), 6)
        assert rep.checked == 84 * 3
        ok = ok and rep.ok
        if not rep.ok:
            details.append(f"kappa={kappa}: {rep.first_counterexample}")
    _report(1, "U_i zeta_alpha = xi_i(alpha) zeta_alpha, |alpha| <= 6", ok, "; ".join(details))


def test_criterion_2_orthogonality_norms():
    ok = True
    details = []
    for kappa in KAPPAS:
        rep = verify.suite_prop1(make_context(kappa, 0, 3), 5)
        assert rep.checked == 56 * 57 // 2
        ok = ok and rep.ok
        if not rep.ok:
            details.append(f"kappa={kappa}: {rep.first_counterexample}")
    _report(2, "<zeta_a, zeta_b> = delta_ab (3k+1)_{a+} h(a,1)/h(a,k+1), |a|,|b| <= 5", ok,
            "; ".join(details))


def test_criterion_3_evaluation_formula():
    ok = True
    for kappa in KAPPAS:
        rep = verify.suite_eval_ones(make_context(kappa, 0, 3), 6)
        assert rep.checked == 84
        ok = ok and rep.ok
    _report(3, "zeta_alpha(1,1,1) = (3k+1)_{alpha+}/h(alpha,k+1), |alpha| <= 6", ok)


def test_criterion_4_hook_identities():
    ok = True
    for kappa in KAPPAS:
        rep = verify.suite_hooks(make_context(kappa, 0, 3), 6)
        assert rep.checked == 2 * 84
        ok = ok and rep.ok
    _report(4, "hook/symmetrization identities, |alpha| <= 6", ok)


def test_criterion_5_basis_orthogonality():
    ok = True
    details = []
    for kappa, kp in PARAM_PAIRS:
        rep = verify.suite_prop2(make_context(kappa, kp, 3), 6)
        assert rep.checked == 210 * 211 // 2
        ok = ok and rep.ok
        if not rep.ok:
            details.append(f"({kappa},{kp}): {rep.first_counterexample}")
    _report(5, "p_gamma y0^n family orthogonal with closed-form norms, degree <= 6", ok,
            "; ".join(details))


def test_criterion_6_symmetric_jack():
    ok = True
    for kappa in KAPPAS:
        ctx = make_context(kappa, 0, 3)
        rep = verify.suite_jack(ctx, 5)
        assert rep.checked == 16 * 3
        ok = ok and rep.ok
        ok = ok and jack_norm((1, 0, 0), ctx) == 3
    _report(6, "j_lambda invariant with the closed-form norm, |lambda| <= 5; "
               "<j_100, j_100> = 3 at every kappa", ok)


def test_criterion_7_laguerre_identity():
    ok = True
    y0 = SparsePoly.variable(0, 1, "y0")
    for kappa, kp in PARAM_PAIRS:
        ctx = make_context(kappa, kp, 3)
        for n in range(5):
            scale = Fraction(-2) ** n * factorial(n)
            even = exp_half_laplacian("D0", y0 ** (2 * n), ctx)
            ok = ok and even == scale * laguerre_y0sq(n, kp - Fraction(1, 2))
            odd = exp_half_laplacian("D0", y0 ** (2 * n + 1), ctx)
            ok = ok and odd == scale * (y0 * laguerre_y0sq(n, kp + Fraction(1, 2)))
    _report(7, "exp(-D0^2/2) y0^m = Laguerre closed form, m <= 9", ok)


def test_criterion_8_spectrum():
    ok = True
    details = []
    for kappa, kp in PARAM_PAIRS:
        rep = verify.suite_spectrum(make_context(kappa, kp, 3), 6)
        assert rep.checked == 210 + 7  # labels plus one degeneracy check per degree
        ok = ok and rep.ok
        if not rep.ok:
            details.append(f"({kappa},{kp}): {rep.first_counterexample}")
    _report(8, "conjugated Hamiltonian spectrum |gamma|+n+6k+k'+2 with degeneracy, degree <= 6",
            ok, "; ".join(details))


def test_criterion_9_operator_identities():
    ok = True
    for kappa, kp in PARAM_PAIRS:
        rep = verify.suite_identities(make_context(kappa, kp, 3), 4)
        assert rep.checked == 120
        ok = ok and rep.ok
    _report(9, "conjugation and D0 decomposition identities on degree <= 4", ok)


def test_criterion_10_f1_norm_adjudication():
    ok = True
    outcomes = set()
    for kappa, kp in PARAM_PAIRS:
        rep = verify.suite_f1_norm(make_context(kappa, kp, 3), 3)
        assert rep.checked == 7  # partitions of weight <= 3 in three parts
        ok = ok and rep.ok
        outcomes.update(row["matched"] for row in rep.details)
    detail = f"matched variant(s): {sorted(outcomes)}"
    _report(10, "F^1 norm matches one candidate scaling, |lambda| <= 3", ok, detail)
    # record: the exact pairing sides with the 2^(2|lambda|+3) scaling throughout
    assert outcomes == {"2^(2|lambda|+3)"}


def test_criterion_11_monte_carlo():
    kappa, kp = Fraction(1), Fraction(1, 2)
    ctx = make_context(kappa, kp, 3)
    cfg = McConfig(MC_SAMPLES, MC_SEED, float(kappa), float(kp))
    ok = True
    details = []

    one = SparsePoly.one(4, "x4")
    est, se = mc_inner_product(one, one, cfg)
    total_mass_ok = abs(est - 1.0) <= 3 * se
    ok = ok and total_mass_ok
    details.append(f"total mass {est:.4f} +- {se:.4f}")

    inv_c = 1.0 / normalization_constant(1.0, 0.0)
    selberg = selberg_product(4, 1.0)
    const_ok = abs(inv_c - 288.0) <= 1e-9 and abs(inv_c - selberg) <= 1e-9
    ok = ok and const_ok
    details.append(f"1/c = {inv_c:.12f} vs selberg {selberg:.12f}")

    spot_pairs = [
        (BasisLabel((0, 0, 0), 1), BasisLabel((0, 0, 0), 1)),
        (BasisLabel((1, 0, 0), 0), BasisLabel((1, 0, 0), 0)),
        (BasisLabel((0, 0, 0), 1), BasisLabel((1, 0, 0), 0)),
        (BasisLabel((0, 0, 0), 2), BasisLabel((0, 0, 0), 2)),
        (BasisLabel((2, 0, 0), 0), BasisLabel((2, 0, 0), 0)),
    ]
    for la, lb in spot_pairs:
        exact = float(pairing_extended(basis_poly4(la, ctx), basis_poly4(lb, ctx), ctx))
        est, se = mc_inner_product(hermite_basis(la, ctx).poly, hermite_basis(lb, ctx).poly, cfg)
        pair_ok = abs(est - exact) <= max(3 * se, 0.02 * abs(exact))
        ok = ok and pair_ok
        if not pair_ok:
            details.append(f"{la}/{lb}: est {est:.4f} vs exact {exact:.4f} (se {se:.4f})")

    _report(11, "Monte Carlo measure checks at (kappa, kappa') = (1, 1/2), 10^6 samples",
            ok, "; ".join(details))
