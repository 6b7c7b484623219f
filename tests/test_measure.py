import math
from fractions import Fraction

import pytest

from jack4.basis4 import BasisLabel, basis_poly4
from jack4.exact import make_context
from jack4.hermite_cs import hermite_basis
from jack4.measure import (
    McConfig,
    mc_inner_product,
    mc_report,
    normalization_constant,
    selberg_product,
)
from jack4.ops import pairing_extended
from jack4.poly import SparsePoly


def test_normalization_constant_values():
    assert normalization_constant(0.0, 0.0) == pytest.approx(1.0, rel=1e-12)
    assert 1.0 / normalization_constant(1.0, 0.0) == pytest.approx(288.0, rel=1e-12)
    # kappa=1, kappa'=1/2: 1/c = 2^{1/2} G(1) G(3) G(4) G(5) / (G(1/2) G(2)^3)
    expected = math.sqrt(2.0) * 2 * 6 * 24 / math.gamma(0.5)
    assert 1.0 / normalization_constant(1.0, 0.5) == pytest.approx(expected, rel=1e-12)


def test_selberg_product_values():
    assert selberg_product(4, 0.0) == pytest.approx(1.0, rel=1e-12)
    assert selberg_product(4, 1.0) == pytest.approx(288.0, rel=1e-12)
    assert selberg_product(2, 1.0) == pytest.approx(2.0, rel=1e-12)
    with pytest.raises(ValueError):
        selberg_product(1, 1.0)


@pytest.mark.parametrize("kappa", [0.0, 0.5, 1.0, 2.0])
def test_constant_matches_selberg_reduction(kappa):
    assert 1.0 / normalization_constant(kappa, 0.0) == pytest.approx(
        selberg_product(4, kappa), rel=1e-12
    )


def test_mc_config_validation():
    with pytest.raises(ValueError):
        McConfig(0, 1, 1.0, 0.0)
    with pytest.raises(ValueError):
        McConfig(10, 1, -1.0, 0.0)


def test_mc_deterministic_and_seed_sensitive():
    one = SparsePoly.one(4, "x4")
    cfg = McConfig(20000, 42, 1.0, 0.5)
    est1, se1 = mc_inner_product(one, one, cfg)
    est2, se2 = mc_inner_product(one, one, cfg)
    assert est1 == est2 and se1 == se2
    est3, _ = mc_inner_product(one, one, McConfig(20000, 43, 1.0, 0.5))
    assert est3 != est1


def test_mc_same_polynomial_twice_matches_a_copy():
    ctx = make_context(1, Fraction(1, 2), 3)
    f = hermite_basis(BasisLabel((2, 0, 0), 0), ctx).poly
    copy = SparsePoly(f.nvars, f.frame, dict(f.terms))
    assert copy is not f and copy == f
    cfg = McConfig(20000, 20080824, 1.0, 0.5)
    assert mc_inner_product(f, f, cfg) == mc_inner_product(f, copy, cfg)


def test_mc_total_mass():
    one = SparsePoly.one(4, "x4")
    cfg = McConfig(200000, 20080824, 1.0, 0.5)
    est, se = mc_inner_product(one, one, cfg)
    assert abs(est - 1.0) <= 3 * se


def test_mc_against_exact_pairing():
    ctx = make_context(1, Fraction(1, 2), 3)
    cfg = McConfig(200000, 20080824, 1.0, 0.5)
    pairs = [
        (BasisLabel((0, 0, 0), 1), BasisLabel((0, 0, 0), 1)),
        (BasisLabel((1, 0, 0), 0), BasisLabel((0, 0, 0), 1)),
    ]
    for la, lb in pairs:
        exact = float(pairing_extended(basis_poly4(la, ctx), basis_poly4(lb, ctx), ctx))
        est, se = mc_inner_product(hermite_basis(la, ctx).poly, hermite_basis(lb, ctx).poly, cfg)
        assert abs(est - exact) <= max(3 * se, 0.02 * abs(exact))


def test_mc_frame_handling():
    y4poly = SparsePoly.monomial((1, 0, 0, 0), "y4")
    cfg = McConfig(1000, 7, 0.0, 0.0)
    est, _ = mc_inner_product(y4poly, y4poly, cfg)
    # at kappa = kappa' = 0 the measure is the plain Gaussian and <y0, y0> = 1
    assert est == pytest.approx(1.0, abs=0.15)
    with pytest.raises(ValueError):
        mc_inner_product(SparsePoly.one(3, "y3"), SparsePoly.one(3, "y3"), cfg)


def test_mc_report_shape():
    cfg = McConfig(10, 3, 1.0, 0.5)
    rep = mc_report("<1,1>", cfg, 1.01, 0.02, Fraction(1))
    assert rep == {
        "integrand": "<1,1>",
        "kappa": 1.0,
        "kappa_prime": 0.5,
        "samples": 10,
        "seed": 3,
        "estimate": 1.01,
        "stderr": 0.02,
        "exact": "1",
    }
    assert mc_report("x", cfg, 0.0, 0.0, None)["exact"] is None
