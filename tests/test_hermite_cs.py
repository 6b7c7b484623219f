from fractions import Fraction
from math import factorial

import pytest

from jack4 import combin
from jack4.basis4 import BasisLabel, basis_poly4
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


def y0_power(n):
    return SparsePoly.monomial((n,), Y0)


def test_exp_series_low_degree(ctx_each_pair):
    ctx = ctx_each_pair
    k, kp = ctx.kappa, ctx.kappa_prime
    y1 = SparsePoly.variable(0, 3, "y3")
    assert exp_half_laplacian("B", y1, ctx, -1) == y1  # degree <= 1 is fixed
    assert exp_half_laplacian("D0", y0_power(1), ctx, -1) == y0_power(1)
    assert exp_half_laplacian("D0", y0_power(2), ctx, -1) == y0_power(2) - (1 + 2 * kp)
    one3 = SparsePoly.one(3, "y3")
    assert exp_half_laplacian("B", y1 * y1, ctx, -1) == y1 * y1 - (1 + 4 * k) * one3


def test_exp_series_inverse(ctx):
    for exp in combin.compositions_up_to(4, 3):
        f = SparsePoly.monomial(exp, "y3")
        assert exp_half_laplacian("B", exp_half_laplacian("B", f, ctx, 1), ctx, -1) == f
    for exp in combin.compositions_up_to(3, 4):
        f = SparsePoly.monomial(exp, "y4")
        assert exp_half_laplacian("H", exp_half_laplacian("H", f, ctx, -1), ctx, 1) == f


def test_exp_kind_validation(ctx):
    with pytest.raises(ValueError):
        exp_half_laplacian("Q", SparsePoly.one(3, "y3"), ctx, -1)
    with pytest.raises(ValueError):
        exp_half_laplacian("Q", SparsePoly.zero(3, "y3"), ctx, -1)


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


def test_laguerre_hermite_identity(ctx_each_pair):
    # exp(-D0^2/2) y0^{2n} = (-2)^n n! L_n^{kp-1/2}(y0^2/2) and the odd twin
    ctx = ctx_each_pair
    kp = ctx.kappa_prime
    for n in range(5):
        even = exp_half_laplacian("D0", y0_power(2 * n), ctx, -1)
        scale = Fraction(-2) ** n * factorial(n)
        assert even == scale * laguerre_y0sq(n, kp - Fraction(1, 2))
        odd = exp_half_laplacian("D0", y0_power(2 * n + 1), ctx, -1)
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
        direct = exp_half_laplacian("H", basis_poly4(lab, ctx), ctx, -1)
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


def test_d0y0_eigen_values(ctx_each_pair):
    # (D0 y0 - kp sigma_0) y0^n = (n + 1 + kp) y0^n, spot values at n = 0, 1
    from jack4.hermite_cs import _d0y0_minus_sigma

    ctx = ctx_each_pair
    kp = ctx.kappa_prime
    one = SparsePoly.one(1, Y0)
    assert _d0y0_minus_sigma(one, ctx) == (1 + kp) * one
    assert _d0y0_minus_sigma(y0_power(1), ctx) == (2 + kp) * y0_power(1)
