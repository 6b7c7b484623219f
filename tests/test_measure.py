import math
from fractions import Fraction

import numpy as np
import pytest

from jack4.basis4 import BasisLabel, basis_poly4
from jack4.exact import make_context
from jack4.hermite_cs import hermite_basis
from jack4.measure import (
    _BATCH,
    McConfig,
    _as_x_frame,
    _compile,
    _weighted_product,
    mc_inner_product,
    mc_inner_products,
    mc_report,
    normalization_constant,
    selberg_product,
)
from jack4.ops import pairing_extended
from jack4.poly import SparsePoly, to_x

# The pre-image label pairs of the six spot checks of `jack4 mc-check`.
SPOT_LABELS = [
    (BasisLabel((0, 0, 0), 0), BasisLabel((0, 0, 0), 0)),
    (BasisLabel((0, 0, 0), 1), BasisLabel((0, 0, 0), 1)),
    (BasisLabel((1, 0, 0), 0), BasisLabel((1, 0, 0), 0)),
    (BasisLabel((0, 0, 0), 1), BasisLabel((1, 0, 0), 0)),
    (BasisLabel((0, 0, 0), 2), BasisLabel((0, 0, 0), 2)),
    (BasisLabel((2, 0, 0), 0), BasisLabel((2, 0, 0), 0)),
]


def mc_inner_product_by_pair(f, g, cfg):
    """Test-only oracle: one pair, with its own draw and weights of every
    batch (the route before the sample was shared across pairs)."""
    cf = _compile(_as_x_frame(f))
    cg = cf if g is f else _compile(_as_x_frame(g))
    c = normalization_constant(cfg.kappa, cfg.kappa_prime)
    pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]

    total = 0.0
    total_sq = 0.0
    done = 0
    batch_index = 0
    while done < cfg.samples:
        m = min(_BATCH, cfg.samples - done)
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=cfg.seed, spawn_key=(batch_index,))
        )
        x = rng.standard_normal((m, 4))
        weight = np.full(m, c)
        if cfg.kappa:
            for i, j in pairs:
                weight *= np.abs(x[:, i] - x[:, j]) ** (2 * cfg.kappa)
        if cfg.kappa_prime:
            weight *= np.abs(0.5 * x.sum(axis=1)) ** (2 * cfg.kappa_prime)
        vals = _weighted_product(weight, cf, cg, x)
        total += float(vals.sum())
        total_sq += float((vals * vals).sum())
        done += m
        batch_index += 1

    n = cfg.samples
    mean = total / n
    variance = max(0.0, (total_sq - n * mean * mean) / (n - 1))
    return mean, math.sqrt(variance / n)


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
    # one sample has no standard error; it is refused, not reported as 0
    with pytest.raises(ValueError, match="need at least two samples for a standard error"):
        McConfig(1, 1, 1.0, 0.0)
    with pytest.raises(ValueError):
        McConfig(10, 1, -1.0, 0.0)
    # refused before any image is built, with a message that names the seed
    with pytest.raises(ValueError, match="seed -1 is negative"):
        McConfig(10, -1, 1.0, 0.0)


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
    with pytest.raises(ValueError, match="expected an x4 or y4 polynomial, got frame 'y3'"):
        mc_inner_product(SparsePoly.one(3, "y3"), SparsePoly.one(3, "y3"), cfg)
    with pytest.raises(ValueError, match="got frame 'y3'"):
        mc_inner_products([(y4poly, y4poly), (y4poly, SparsePoly.one(3, "y3"))], cfg)


@pytest.mark.parametrize("kappa, kappa_prime", [(Fraction(1), Fraction(1, 2)),
                                                (Fraction(1, 2), Fraction(2))])
@pytest.mark.parametrize("samples", [2, 20000, _BATCH + 7])
def test_shared_sample_matches_the_per_pair_route(kappa, kappa_prime, samples):
    """Every estimate from one shared sample is, bit for bit, what the pair
    gets with its own draws: the mc-check spot pairs in y4, the same pairs
    in x4, a mixed-frame pair and an equal but distinct copy."""
    ctx = make_context(kappa, kappa_prime, 3)
    spot = []
    for la, lb in SPOT_LABELS:
        fa = hermite_basis(la, ctx).poly
        spot.append((fa, fa if la == lb else hermite_basis(lb, ctx).poly))
    in_x = []
    for f, g in spot:
        xf = to_x(f)
        in_x.append((xf, xf if g is f else to_x(g)))
    f = spot[-1][0]
    copy = SparsePoly(f.nvars, f.frame, dict(f.terms))
    images = spot + in_x + [(f, copy), (in_x[3][0], spot[3][1])]
    assert sum(b is a for a, b in images) == 10

    cfg = McConfig(samples, 20080824, float(kappa), float(kappa_prime))
    shared = mc_inner_products(images, cfg)
    assert len(shared) == len(images)
    for (a, b), got in zip(images, shared):
        assert got == mc_inner_product_by_pair(a, b, cfg)
    assert mc_inner_product(f, copy, cfg) == shared[12]


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
