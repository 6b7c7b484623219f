"""Floating-point verification against the Gaussian-type weight measure.

The probability measure on R^4 is

    dmu(x) = c * prod_{i<j} |x_i - x_j|^{2 kappa} * |y_0|^{2 kappa'} dm(x),

with dm the standard Gaussian, y_0 = (x_1 + x_2 + x_3 + x_4)/2, and c the
closed-form normalization constant.  This module is the only place floating
point is allowed: it supplies the constant, its Selberg-product reduction,
and seeded Monte Carlo estimates of integrals of polynomial products.

``mc_inner_products`` estimates several products from one sample: each batch
of Gaussian points is drawn and weighted once, and every (f, g) pair is
integrated against it.  ``mc_inner_product`` is its one-pair case.  The
seeds depend only on (seed, batch index), so a pair gets the same bits
whether it is estimated alone or together with others.

A batch is never held whole.  numpy sums n floats pairwise: it halves n,
rounds the half down to a multiple of 8, and recurses (Higham 1993).  The
batch is worked through in tiles, the leaves of that tree once it reaches
nodes of at most _DRAW_ROWS points.  The generator fills a tile's rows, the
next stretch of the stream of one (m, 4) draw, and they are copied in
transposed, one contiguous array per coordinate; the centre is
((x0 + x1) + x2) + x3.  The weight, each distinct polynomial and each
product are computed in place, in tile arrays allocated once per call, and
a pair keeps only its tile sums, which are added up along the tree.  Every
float operation is the one the (m, 4) layout made, and every sum has the
same tree, so the estimates are the same bits; ``tests/oracles.py`` keeps
that row-major route to compare against.

numpy loads on the first estimate, not with this module: the constant, the
Selberg product and ``McConfig`` need only ``math``, so a process that never
runs a Monte Carlo estimate never imports numpy.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

from .exact import format_rational
from .poly import SparsePoly, to_x

if TYPE_CHECKING:
    import numpy as np

_BATCH = 1 << 17
_DRAW_ROWS = 1 << 13  # most points in a tile, drawn in one call of the generator
_ROOTS = [(i, j) for i in range(4) for j in range(i + 1, 4)]


class McConfig(NamedTuple("McConfig", [("samples", int), ("seed", int),
                                       ("kappa", float), ("kappa_prime", float)])):
    """Monte Carlo run parameters; estimates are a pure function of these."""

    __slots__ = ()

    def __new__(cls, samples: int, seed: int, kappa: float, kappa_prime: float):
        if samples < 2:
            raise ValueError("need at least two samples for a standard error")
        if kappa < 0 or kappa_prime < 0:
            raise ValueError("parameters must be nonnegative")
        if seed < 0:
            raise ValueError(f"seed {seed} is negative; seeds must be nonnegative")
        return super().__new__(cls, samples, seed, kappa, kappa_prime)


def normalization_constant(kappa: float, kappa_prime: float) -> float:
    """c with 1/c = 2^{kappa'} G(kappa'+1/2) G(2k+1) G(3k+1) G(4k+1) / (G(1/2) G(k+1)^3),
    evaluated through log-gamma for stability."""
    log_inv = (
        kappa_prime * math.log(2.0)
        + math.lgamma(kappa_prime + 0.5)
        + math.lgamma(2 * kappa + 1)
        + math.lgamma(3 * kappa + 1)
        + math.lgamma(4 * kappa + 1)
        - math.lgamma(0.5)
        - 3 * math.lgamma(kappa + 1)
    )
    return math.exp(-log_inv)


def selberg_product(nvars: int, kappa: float) -> float:
    """prod_{j=2..N} Gamma(j kappa + 1) / Gamma(kappa + 1): the Gaussian
    Vandermonde integral from the Macdonald-Mehta-Selberg formula."""
    if nvars < 2:
        raise ValueError("need at least two variables")
    log_val = sum(math.lgamma(j * kappa + 1) for j in range(2, nvars + 1))
    log_val -= (nvars - 1) * math.lgamma(kappa + 1)
    return math.exp(log_val)


def _as_x_frame(f: SparsePoly) -> SparsePoly:
    if f.frame == "x4":
        return f
    if f.frame == "y4":
        return to_x(f)
    raise ValueError(f"expected an x4 or y4 polynomial, got frame {f.frame!r}")


def _compile(f: SparsePoly) -> list[tuple[float, tuple[tuple[int, int], ...]]]:
    """f as (coef, ((v, e), ...)) per term, in canonical order (which fixes
    the float summation order), with the nonzero exponents e of variables v
    as plain ints."""
    return [(float(c), tuple((v, e) for v, e in enumerate(exp) if e))
            for exp, c in f.ordered_terms()]


def _pairwise_sums(n: int, tile) -> list[float]:
    """Sums of n values, added up as numpy sums an array pairwise: it halves
    n, rounds the half down to a multiple of 8, and recurses.  Here the
    recursion stops at tiles of at most _DRAW_ROWS values, and ``tile(t)``
    returns numpy's sums of the next t values, several at once; adding them
    up along the same tree gives each sum as numpy would over all n."""
    if n <= _DRAW_ROWS:
        return tile(n)
    half = n // 2
    half -= half % 8
    return [a + b for a, b in zip(_pairwise_sums(half, tile), _pairwise_sums(n - half, tile))]


def _draw(rng, block: np.ndarray, x: np.ndarray, sums: np.ndarray) -> None:
    """Fill x, of shape (4, m), with the next m standard Gaussian points of
    R^4, x[v] being coordinate v of every point: the generator fills
    ``block``, m rows of 4, and it is copied in transposed.  ``sums`` gets
    ((x0 + x1) + x2) + x3, the order in which numpy sums a row of 4."""
    import numpy as np

    rng.standard_normal(out=block)
    x[...] = block.T
    np.add(x[0], x[1], out=sums)
    sums += x[2]
    sums += x[3]


def _weigh(weight: np.ndarray, c: float, cfg: McConfig, x, sums, factor) -> None:
    """weight = c * prod_{i<j} |x_i - x_j|^{2 kappa} * |y_0|^{2 kappa'} at
    every point, factor by factor in that order, with y_0 = sums / 2.
    ``sums`` and ``factor`` are overwritten."""
    import numpy as np

    weight.fill(c)
    if cfg.kappa:
        for i, j in _ROOTS:
            np.subtract(x[i], x[j], out=factor)
            np.abs(factor, out=factor)
            factor **= 2 * cfg.kappa
            weight *= factor
    if cfg.kappa_prime:
        sums *= 0.5
        np.abs(sums, out=sums)
        sums **= 2 * cfg.kappa_prime
        weight *= sums


def _eval_compiled(compiled, x: np.ndarray, out: np.ndarray, term, power) -> None:
    """out = f at every point of x, term by term in canonical order; each
    term is coef * p_v for its first variable, times the powers of the later
    ones.  ``term`` and ``power`` are overwritten."""
    import numpy as np

    out.fill(0.0)
    for coef, factors in compiled:
        if not factors:
            out += coef
            continue
        for k, (v, e) in enumerate(factors):
            p = x[v] if e == 1 else np.power(x[v], e, out=power)
            if k:
                term *= p
            else:
                np.multiply(coef, p, out=term)
        out += term


def mc_inner_products(
    pairs: list[tuple[SparsePoly, SparsePoly]], cfg: McConfig
) -> list[tuple[float, float]]:
    """Monte Carlo estimates of the integrals of f*g against dmu, one per
    (f, g) in ``pairs``, all from one shared sample.

    Samples x from the standard Gaussian and reweights by c * h(x)^2; returns
    one (estimate, standard_error) per pair.  Batches use seeds derived from
    (seed, batch index), so the result is reproducible and independent of
    scheduling.  A batch is drawn, weighted and integrated tile by tile,
    each tile being a leaf of numpy's pairwise-summation tree over the
    batch, so that no array is longer than a tile.  In a tile each distinct
    polynomial (by identity) is evaluated once, and each pair keeps only the
    sum of its weighted products and the sum of their squares; the tile
    sums are added up along the tree, which gives the batch sums numpy
    would give, bit for bit.  A pair's estimate is the same float as when
    it is the only pair.  A pair's values are scaled by 2^-e, with e fixed by
    the largest |value| of its first tile where that is nonzero, so that
    their squares do not underflow when the weight is tiny; the scaling is
    exact, and undone on the mean and the standard error.
    """
    import numpy as np

    polys: list = []
    index: dict[int, int] = {}
    pair_rows = []
    for f, g in pairs:
        for h in (f, g):
            if id(h) not in index:
                index[id(h)] = len(polys)
                polys.append(_compile(_as_x_frame(h)))
        pair_rows.append((index[id(f)], index[id(g)]))
    c = normalization_constant(cfg.kappa, cfg.kappa_prime)

    # One set of tile arrays for the whole call; the two work rows hold the
    # sums and a root factor while a tile is weighted, a term and a power
    # while the polynomials are evaluated, and then a pair's products.
    size = min(_DRAW_ROWS, cfg.samples)
    block = np.empty((size, 4))
    points = np.empty((4, size))
    weights = np.empty(size)
    values = np.empty((len(polys), size))
    work = np.empty((2, size))

    totals = [0.0] * (2 * len(pair_rows))  # sum and sum of squares per pair
    scale: list[int | None] = [None] * len(pair_rows)
    done = 0
    batch_index = 0
    while done < cfg.samples:
        m = min(_BATCH, cfg.samples - done)
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=cfg.seed, spawn_key=(batch_index,))
        )

        def tile(t: int) -> list[float]:
            x, weight, (a, b) = points[:, :t], weights[:t], work[:, :t]
            _draw(rng, block[:t], x, a)
            _weigh(weight, c, cfg, x, a, b)
            for compiled, vals in zip(polys, values):
                _eval_compiled(compiled, x, vals[:t], a, b)
            sums = []
            for k, (i, j) in enumerate(pair_rows):
                np.multiply(weight, values[i, :t], out=a)
                a *= values[j, :t]
                if scale[k] is None:
                    top = max(float(a.max()), -float(a.min()))
                    if top:
                        scale[k] = math.frexp(top)[1]
                if scale[k]:
                    np.ldexp(a, -scale[k], out=a)
                sums.append(float(a.sum()))
                a *= a
                sums.append(float(a.sum()))
            return sums

        totals = [t + s for t, s in zip(totals, _pairwise_sums(m, tile))]
        done += m
        batch_index += 1

    n = cfg.samples
    results = []
    for t, t_sq, e in zip(totals[::2], totals[1::2], scale):
        e = e or 0  # None: every value was 0, and none was scaled
        mean = t / n
        variance = max(0.0, (t_sq - n * mean * mean) / (n - 1))
        results.append((math.ldexp(mean, e), math.ldexp(math.sqrt(variance / n), e)))
    return results


def mc_inner_product(f: SparsePoly, g: SparsePoly, cfg: McConfig) -> tuple[float, float]:
    """Monte Carlo estimate of the integral of f*g against dmu: the one-pair
    case of ``mc_inner_products``, returning (estimate, standard_error)."""
    return mc_inner_products([(f, g)], cfg)[0]


def mc_report(labels: str, cfg: McConfig, estimate: float, stderr: float, exact) -> dict:
    """One check in the external JSON report shape."""
    return {
        "integrand": labels,
        "kappa": cfg.kappa,
        "kappa_prime": cfg.kappa_prime,
        "samples": cfg.samples,
        "seed": cfg.seed,
        "estimate": estimate,
        "stderr": stderr,
        "exact": None if exact is None else format_rational(exact),
    }
