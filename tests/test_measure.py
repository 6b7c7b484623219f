import math
import tracemalloc
from fractions import Fraction

import pytest

from jack4.basis4 import BasisLabel, basis_poly4
from jack4.exact import make_context
from jack4.hermite_cs import hermite_basis
from jack4.measure import (
    _BATCH,
    _DRAW_ROWS,
    McConfig,
    _pairwise_sums,
    mc_inner_product,
    mc_inner_products,
    mc_report,
    normalization_constant,
    selberg_product,
)
from jack4.ops import pairing_extended
from jack4.poly import SparsePoly, to_x
from oracles import row_major_mc_inner_products

# The pre-image label pairs of the six spot checks of `jack4 mc-check`.
SPOT_LABELS = [
    (BasisLabel((0, 0, 0), 0), BasisLabel((0, 0, 0), 0)),
    (BasisLabel((0, 0, 0), 1), BasisLabel((0, 0, 0), 1)),
    (BasisLabel((1, 0, 0), 0), BasisLabel((1, 0, 0), 0)),
    (BasisLabel((0, 0, 0), 1), BasisLabel((1, 0, 0), 0)),
    (BasisLabel((0, 0, 0), 2), BasisLabel((0, 0, 0), 2)),
    (BasisLabel((2, 0, 0), 0), BasisLabel((2, 0, 0), 0)),
]


def spot_images(ctx):
    """The (f, g) pairs of `jack4 mc-check` in y4: as there, each of the five
    distinct labels is one object, so g is f on the diagonal."""
    built = {}
    for label in (label for pair in SPOT_LABELS for label in pair):
        if label not in built:
            built[label] = hermite_basis(label, ctx).poly
    return [(built[la], built[lb]) for la, lb in SPOT_LABELS]


def mc_inner_product_by_pair(f, g, cfg):
    """Test-only oracle: one pair, with its own draw and weights of every
    batch, by the row-major route."""
    return row_major_mc_inner_products([(f, g)], cfg)[0]


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
    spot = spot_images(ctx)
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


def tile_lengths(n):
    lengths = []
    _pairwise_sums(n, lambda t: lengths.append(t) or [])
    return lengths


@pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 127, 128, 129, 8191, 8192, 8193, 68928, _BATCH])
def test_tiles_reproduce_numpy_pairwise_sum(n):
    """Tile sums added up along numpy's pairwise-summation tree are
    ``ndarray.sum`` bit for bit, on values of both signs that span 8 orders
    of magnitude, and on their squares.  A numpy whose summation tree
    differs fails here by name; so do a half not rounded down to a multiple
    of 8 and tile sums added up in sequence."""
    import numpy as np

    rng = np.random.default_rng(n)
    values = rng.standard_normal(n) * 10.0 ** rng.uniform(-4, 4, n)
    squares = values * values
    lengths = []

    def tile(t):
        start = sum(lengths)
        lengths.append(t)
        return [float(values[start:start + t].sum()), float(squares[start:start + t].sum())]

    assert _pairwise_sums(n, tile) == [float(values.sum()), float(squares.sum())]
    assert sum(lengths) == n and max(lengths) <= _DRAW_ROWS


def test_tile_lengths_of_awkward_batches():
    """The tree halves n and rounds the half down to a multiple of 8, so a
    batch of 68928 splits into tiles of 4304 and 4312, and a full batch into
    16 tiles of _DRAW_ROWS."""
    assert tile_lengths(_BATCH) == [_DRAW_ROWS] * 16
    assert sorted(set(tile_lengths(68928))) == [4304, 4312]
    assert tile_lengths(8193) == [4096, 4097]


KAPPAS = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(5, 7), Fraction(3)]
KAPPA_PRIMES = [Fraction(0), Fraction(1, 2), Fraction(2)]
ROW_MAJOR_CASES = [
    (samples, kappa, kappa_prime)
    for samples in (2, 3 * _DRAW_ROWS + 5, _BATCH + 7)
    for kappa in KAPPAS
    for kappa_prime in KAPPA_PRIMES
] + [(200000, Fraction(1), Fraction(1, 2))]  # one full batch, then one of 68928


@pytest.mark.parametrize("samples, kappa, kappa_prime", [
    pytest.param(samples, kappa, kappa_prime, id=f"{samples}-kappa{KAPPAS.index(kappa)}"
                 f"-kappa_prime{KAPPA_PRIMES.index(kappa_prime)}")
    for samples, kappa, kappa_prime in ROW_MAJOR_CASES
])
def test_column_major_batches_match_the_row_major_route(kappa, kappa_prime, samples):
    """Batches drawn, weighted and integrated tile by tile, one array per
    coordinate in each tile, with the tile sums added up along numpy's
    summation tree, give every (estimate, stderr) bit for bit as the whole
    (m, 4) batches of the row-major route: the mc-check spot pairs in y4
    and in x4, a constant, a cube of one variable, and terms of two and
    three variables with coefficients that are not dyadic.  The Jack basis
    needs kappa > 0, so at kappa = 0 the spot polynomials are those of
    kappa = 1."""
    ctx = make_context(kappa or 1, kappa_prime, 3)
    spot = spot_images(ctx)
    const = SparsePoly(4, "x4", {(0, 0, 0, 0): Fraction(5, 3)})
    cube = SparsePoly(4, "x4", {(0, 0, 3, 0): Fraction(-2, 7)})
    mixed = SparsePoly(4, "x4", {(1, 2, 0, 1): Fraction(3, 7), (0, 1, 1, 0): Fraction(-5, 3)})
    images = list(spot)
    for f, g in spot:
        xf = to_x(f)
        images.append((xf, xf if g is f else to_x(g)))
    images += [(const, const), (cube, cube), (cube, const), (mixed, mixed), (mixed, cube)]
    cfg = McConfig(samples, 20080824, float(kappa), float(kappa_prime))
    assert mc_inner_products(images, cfg) == row_major_mc_inner_products(images, cfg)


@pytest.mark.parametrize("kappa, kappa_prime", [(Fraction("28.99"), Fraction(1, 2)),
                                                (Fraction(1), Fraction(150))])
def test_tiny_weights_keep_their_standard_error(kappa, kappa_prime):
    """At these parameters the squares of the weighted values underflow in
    floats.  Scaling f by 2^600 lifts every value clear of that, and the
    estimates and standard errors must be those of the lifted pairs, scaled
    back, and none of them 0."""
    ctx = make_context(kappa, kappa_prime, 3)
    images = spot_images(ctx)
    cfg = McConfig(1000, 20080824, float(kappa), float(kappa_prime))
    lift = 2**600
    lifted = row_major_mc_inner_products([(lift * f, g) for f, g in images], cfg)
    for (est, se), (big_est, big_se) in zip(mc_inner_products(images, cfg), lifted):
        assert 0 < se < 1e-150
        assert est == pytest.approx(big_est / lift, rel=1e-12)
        assert se == pytest.approx(big_se / lift, rel=1e-9)


def test_one_estimate_holds_at_most_32_tile_arrays():
    """The traced peak of one mc-check estimate stays within 32 float arrays
    of one tile, 2 MiB: the drawn rows, the points, the weight, the values
    of the five distinct polynomials and the work rows, with no array of
    batch length."""
    ctx = make_context(1, Fraction(1, 2), 3)
    images = spot_images(ctx)
    cfg = McConfig(200000, 20080824, 1.0, 0.5)
    mc_inner_products(images, cfg)  # numpy and the polynomials' lazy state are loaded
    tracemalloc.start()
    try:
        mc_inner_products(images, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 * _DRAW_ROWS * 8


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
