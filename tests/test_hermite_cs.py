from fractions import Fraction
from math import factorial

import pytest

from jack4 import combin
from jack4.basis4 import BasisLabel, basis_poly4
from jack4.exact import make_context
from jack4.hermite_cs import (
    conjugated_hamiltonian,
    cs_invariant_eigenfunction,
    cs_invariant_energy,
    energy_level,
    exp_half_laplacian,
    hermite_basis,
    laguerre,
    laguerre_y0sq,
    operator_identities_check,
)
from jack4.poly import SparsePoly, Y0
from oracles import exp_series, identities_by_sandwich


def y0_power(n):
    return SparsePoly.monomial((n,), Y0)


def test_exp_series_low_degree(ctx_each_pair):
    ctx = ctx_each_pair
    k, kp = ctx.kappa, ctx.kappa_prime
    y1 = SparsePoly.variable(0, 3, "y3")
    assert exp_half_laplacian("B", y1, ctx) == y1  # degree <= 1 is fixed
    assert exp_half_laplacian("D0", y0_power(1), ctx) == y0_power(1)
    assert exp_half_laplacian("D0", y0_power(2), ctx) == y0_power(2) - (1 + 2 * kp)
    one3 = SparsePoly.one(3, "y3")
    assert exp_half_laplacian("B", y1 * y1, ctx) == y1 * y1 - (1 + 4 * k) * one3


def test_exp_series_inverse(ctx):
    # exp(+Delta/2) is the oracle's series; exp(-Delta/2) undoes it from either side
    for exp in combin.compositions_up_to(4, 3):
        f = SparsePoly.monomial(exp, "y3")
        assert exp_half_laplacian("B", exp_series("B", f, ctx, 1), ctx) == f
    for exp in combin.compositions_up_to(3, 4):
        f = SparsePoly.monomial(exp, "y4")
        assert exp_series("H", exp_half_laplacian("H", f, ctx), ctx, 1) == f


def test_exp_series_matches_the_signed_oracle(ctx_each_pair):
    """exp_half_laplacian is the oracle's signed series at sign -1, and the
    oracle refuses any other sign than +-1."""
    ctx = ctx_each_pair
    cases = [("B", SparsePoly.monomial(e, "y3")) for e in combin.compositions_up_to(5, 3)]
    cases += [("D0", y0_power(m)) for m in range(8)]
    cases += [("H", SparsePoly.monomial(e, "y4")) for e in combin.compositions_up_to(4, 4)]
    for kind, f in cases:
        assert exp_half_laplacian(kind, f, ctx) == exp_series(kind, f, ctx, -1), (kind, f)
    with pytest.raises(ValueError, match="sign"):
        exp_series("B", cases[0][1], ctx, 2)


def test_exp_kind_validation(ctx):
    with pytest.raises(ValueError):
        exp_half_laplacian("Q", SparsePoly.one(3, "y3"), ctx)
    with pytest.raises(ValueError):
        exp_half_laplacian("Q", SparsePoly.zero(3, "y3"), ctx)


def test_laguerre_values():
    a = Fraction(3, 4)
    assert laguerre(0, a) == SparsePoly.one(1, "t")
    t = SparsePoly.variable(0, 1, "t")
    assert laguerre(1, a) == (a + 1) - t
    # L_2^a(t) = t^2/2 - (a+2) t + (a+1)(a+2)/2
    expected = Fraction(1, 2) * t * t - (a + 2) * t + Fraction((a + 1) * (a + 2), 2)
    assert laguerre(2, a) == expected
    with pytest.raises(ValueError):
        laguerre(2, Fraction(-2))  # (a+1)_2 vanishes


def test_laguerre_refuses_float_parameter():
    with pytest.raises(ValueError, match="float"):
        laguerre(1, 0.1)
    t = SparsePoly.variable(0, 1, "t")
    assert laguerre(1, "0.1") == Fraction(11, 10) - t


def test_laguerre_hermite_identity(ctx_each_pair):
    # exp(-D0^2/2) y0^{2n} = (-2)^n n! L_n^{kp-1/2}(y0^2/2) and the odd twin
    ctx = ctx_each_pair
    kp = ctx.kappa_prime
    for n in range(5):
        even = exp_half_laplacian("D0", y0_power(2 * n), ctx)
        scale = Fraction(-2) ** n * factorial(n)
        assert even == scale * laguerre_y0sq(n, kp - Fraction(1, 2))
        odd = exp_half_laplacian("D0", y0_power(2 * n + 1), ctx)
        assert odd == scale * (y0_power(1) * laguerre_y0sq(n, kp + Fraction(1, 2)))


def test_hermite_basis_examples(ctx_each_pair):
    ctx = ctx_each_pair
    k, kp = ctx.kappa, ctx.kappa_prime
    rec = hermite_basis(BasisLabel((0, 0, 0), 0), ctx)
    assert rec.poly == SparsePoly.one(4, "y4")
    assert rec.energy == 6 * k + kp + 2

    rec = hermite_basis(BasisLabel((1, 1, 1), 0), ctx)
    assert rec.poly == SparsePoly.monomial((0, 1, 1, 1), "y4")
    assert rec.energy == 6 * k + kp + 5

    rec = hermite_basis(BasisLabel((0, 0, 0), 2), ctx)
    assert rec.poly == SparsePoly.monomial((2, 0, 0, 0), "y4") - (1 + 2 * kp)
    assert rec.energy == 6 * k + kp + 4


def test_hermite_basis_factorization_matches_direct_series(ctx):
    # production path splits over the two tensor factors; the direct
    # exp(-Delta_h/2) series on the full product must agree
    labels = [BasisLabel(g, n) for g in combin.compositions_up_to(3, 3) for n in (0, 1, 2)
              if combin.weight(g) + n <= 4]
    for lab in labels:
        direct = exp_half_laplacian("H", basis_poly4(lab, ctx), ctx)
        assert hermite_basis(lab, ctx).poly == direct


def test_hermite_preserves_top_degree(ctx):
    for lab in [BasisLabel((2, 1, 0), 1), BasisLabel((0, 0, 2), 2)]:
        rec = hermite_basis(lab, ctx)
        base = basis_poly4(lab, ctx)
        assert rec.poly.degree() == base.degree()
        top = {e: c for e, c in rec.poly.terms.items() if sum(e) == rec.poly.degree()}
        assert top == {e: c for e, c in base.terms.items() if sum(e) == base.degree()}


def test_conjugated_hamiltonian_examples(ctx_each_pair):
    ctx = ctx_each_pair
    k, kp = ctx.kappa, ctx.kappa_prime
    one = SparsePoly.one(4, "y4")
    assert conjugated_hamiltonian(one, ctx) == (6 * k + kp + 2) * one
    f = hermite_basis(BasisLabel((1, 1, 1), 0), ctx).poly
    assert conjugated_hamiltonian(f, ctx) == (6 * k + kp + 5) * f
    g = SparsePoly.monomial((2, 0, 0, 0), "y4") - (1 + 2 * kp)
    assert conjugated_hamiltonian(g, ctx) == (6 * k + kp + 4) * g
    with pytest.raises(ValueError):
        conjugated_hamiltonian(SparsePoly.one(3, "y3"), ctx)


def test_energy_degeneracy(ctx):
    levels = {}
    for lab in [BasisLabel(g, n) for g in combin.compositions_up_to(3, 3) for n in range(3)]:
        d = combin.weight(lab.gamma) + lab.n
        levels.setdefault(d, set()).add(energy_level(lab, ctx))
    for energies in levels.values():
        assert len(energies) == 1


def test_cs_invariant_eigenfunctions(ctx_each_pair):
    ctx = ctx_each_pair
    kp = ctx.kappa_prime
    assert cs_invariant_eigenfunction((0, 0, 0), 0, 0, ctx) == SparsePoly.one(4, "y4")
    f01 = cs_invariant_eigenfunction((0, 0, 0), 0, 1, ctx)
    expected = (kp + Fraction(1, 2)) - Fraction(1, 2) * SparsePoly.monomial((2, 0, 0, 0), "y4")
    assert f01 == expected
    assert cs_invariant_eigenfunction((0, 0, 0), 1, 0, ctx) == SparsePoly.monomial(
        (0, 1, 1, 1), "y4"
    )
    # eigenfunction property, including the odd family whose energy carries +3
    for lam, s, n in [((0, 0, 0), 0, 1), ((1, 0, 0), 0, 0), ((0, 0, 0), 1, 1),
                      ((1, 0, 0), 1, 0), ((1, 1, 0), 0, 1)]:
        f = cs_invariant_eigenfunction(lam, s, n, ctx)
        energy = cs_invariant_energy(lam, s, n, ctx)
        assert energy == 2 * combin.weight(lam) + 3 * s + 2 * n + 6 * ctx.kappa + kp + 2
        assert conjugated_hamiltonian(f, ctx) == energy * f, (lam, s, n)


def test_operator_identities(ctx_each_pair):
    reports = operator_identities_check(ctx_each_pair, 4)
    assert {r.name for r in reports} == {
        "cherednik-sum-conjugation",
        "d0y0-conjugation",
        "d0-squared-decomposition",
        "d0y0-eigenvalue",
        "hamiltonian-conjugation",
    }
    for rep in reports:
        assert rep.ok, (rep.name, rep.failures[:3])
        assert rep.checked > 0


def test_operator_identities_hold_for_every_kappa_and_kappa_prime():
    """The identities suite at degree d = 3 on a 9 x 9 grid of (kappa, kappa')
    proves the identities for all parameters, on every monomial of degree <= d.

    The suite checks, on each monomial f of degree <= d, facts whose
    coefficients are polynomials in kappa and kappa' of degree <= 2 in each:
    - the kernel enters the parameters only through its weights (1, kappa,
      kappa'), so each image of D_p, U_p or D0 y0 - kappa' sigma_0 is affine
      in them, and each Laplacian image has degree <= 2;
    - a conjugation checks A f - (deg f + c) f, with A a sum of such affine
      images and c affine, and the coefficients of the terms of Delta f of a
      degree other than deg f - 2;
    - the Hamiltonian conjugation also compares conjugated_hamiltonian(f)
      with (E + c) f - Delta_h f, and the other two identities compare D0^2
      with its termwise form and an affine eigenvalue.

    No series enters, so D = 2 for any d.  A polynomial of degree <= D in each
    of two variables that vanishes on a (D + 1) x (D + 1) grid of distinct
    values is zero, and the 9 x 9 grid has room to spare.  So the facts hold
    for all (kappa, kappa'), and the Hadamard lemma of
    ``operator_identities_check`` turns them into the conjugation identities
    on the polynomials of degree <= d.  The grid avoids kappa' = 0, where
    ``dunkl_prime`` branches; its 81 points are 81 parameter groups of the
    memo, which keeps 16, so the run also goes through eviction."""
    d = 3
    size = 9
    kappas = [Fraction(i, 3) for i in range(1, size + 1)]
    kappa_primes = [Fraction(2 * i - 1, 4) for i in range(1, size + 1)]
    assert len(set(kappas)) == len(set(kappa_primes)) == size
    y3, y0, y4 = (len(list(combin.compositions_up_to(d, n))) for n in (3, 1, 4))
    for kappa in kappas:
        for kp in kappa_primes:
            reports = operator_identities_check(make_context(kappa, kp, 3), d)
            assert [r.checked for r in reports] == [y3, y0, y0, y0, y4]
            for rep in reports:
                assert rep.ok, (kappa, kp, rep.name, rep.failures[:3])


def test_d0y0_eigen_values(ctx_each_pair):
    # (D0 y0 - kp sigma_0) y0^n = (n + 1 + kp) y0^n, spot values at n = 0, 1
    from jack4.hermite_cs import _d0y0_minus_sigma

    ctx = ctx_each_pair
    kp = ctx.kappa_prime
    one = SparsePoly.one(1, Y0)
    assert _d0y0_minus_sigma(one, ctx) == (1 + kp) * one
    assert _d0y0_minus_sigma(y0_power(1), ctx) == (2 + kp) * y0_power(1)


def test_laplacian_of_the_wrong_degree_fails_both_routes(monkeypatch):
    """The lemma needs every term of Delta f at degree deg f - 2.  With one
    more term of degree deg f - 1 in every Laplacian image of a monomial of
    positive degree, the Cherednik-sum and Hamiltonian conjugations fail, on
    the same labels as through the series sandwich."""
    from jack4 import ops

    image = ops._image

    def wrong(images, exp):
        out = image(images, exp)
        if images.kind[0] != "L" or not any(exp):
            return out
        p = next(p for p, e in enumerate(exp) if e)
        lower = exp[:p] + (exp[p] - 1,) + exp[p + 1:]
        return {**out, lower: out.get(lower, 0) + 1}

    monkeypatch.setattr(ops, "_image", wrong)
    monkeypatch.setattr(ops, "_MEMO_CACHE", {})
    ctx = make_context(Fraction(1, 2), Fraction(2), 3)
    reports = operator_identities_check(ctx, 4)
    failing = {r.name for r in reports if not r.ok}
    assert {"cherednik-sum-conjugation", "hamiltonian-conjugation"} <= failing
    ops._MEMO_CACHE.clear()
    assert ([(r.name, r.checked, r.failures) for r in reports]
            == [(r.name, r.checked, r.failures) for r in identities_by_sandwich(ctx, 4)])
