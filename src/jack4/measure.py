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

A batch is held column-major: one contiguous array per coordinate, which
the weights and the polynomial terms read without strides.  The generator
fills blocks of rows, the same stream as one (m, 4) draw, and each block is
copied in transposed; the centre is ((x0 + x1) + x2) + x3.  The weight, each
term and each product are computed in place, in arrays allocated once per
call and reused by every batch and pair.  Every float operation is the one
the (m, 4) layout made, in the same order, so the estimates are the same
bits; ``tests/oracles.py`` keeps that row-major route to compare against.

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
_DRAW_ROWS = 1 << 13  # points per call of the generator
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


def _compile(f: SparsePoly):
    import numpy as np

    terms = f.ordered_terms()  # canonical order fixes the float summation order
    exps = np.array([e for e, _ in terms], dtype=np.int64)
    coefs = np.array([float(c) for _, c in terms])
    return exps, coefs


def _draw(rng, x: np.ndarray, sums: np.ndarray) -> None:
    """Fill x, of shape (4, m), with m standard Gaussian points of R^4, x[v]
    being coordinate v of every point, block by block of rows: the bits of
    one (m, 4) draw.  ``sums`` gets ((x0 + x1) + x2) + x3, the order in which
    numpy sums a row of the (m, 4) draw."""
    import numpy as np

    m = x.shape[1]
    block = np.empty((min(_DRAW_ROWS, m), 4))
    for start in range(0, m, len(block)):
        rows = block[: min(len(block), m - start)]
        rng.standard_normal(out=rows)
        x[:, start:start + len(rows)] = rows.T
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

    exps, coefs = compiled
    out.fill(0.0)
    for exp, coef in zip(exps, coefs):
        started = False
        for v, e in enumerate(exp):
            if not e:
                continue
            p = x[v] if e == 1 else np.power(x[v], e, out=power)
            if started:
                term *= p
            else:
                np.multiply(coef, p, out=term)
                started = True
        out += term if started else coef


def _weighted_product(weight: np.ndarray, cf, cg, x: np.ndarray, work) -> np.ndarray:
    """weight * f(x) * g(x) in one row of ``work``, four arrays like weight
    that hold f, g, a term and a power; f is evaluated only once when g is
    f."""
    import numpy as np

    f, g, term, power = work
    _eval_compiled(cf, x, f, term, power)
    if cg is cf:
        np.multiply(weight, f, out=g)
        g *= f
        return g
    f *= weight
    _eval_compiled(cg, x, g, term, power)
    f *= g
    return f


def mc_inner_products(
    pairs: list[tuple[SparsePoly, SparsePoly]], cfg: McConfig
) -> list[tuple[float, float]]:
    """Monte Carlo estimates of the integrals of f*g against dmu, one per
    (f, g) in ``pairs``, all from one shared sample.

    Samples x from the standard Gaussian and reweights by c * h(x)^2; returns
    one (estimate, standard_error) per pair.  Batches use seeds derived from
    (seed, batch index), so the result is reproducible and independent of
    scheduling.  Each batch is drawn and weighted once and then integrated
    pair by pair; a pair's estimate is the same float as when it is the
    only pair.  When g is f, the polynomial is compiled and evaluated once
    per batch.  A pair's values are scaled by 2^-e, with e fixed by the
    largest |value| of its first batch, so that their squares do not
    underflow when the weight is tiny; the scaling is exact, and undone on
    the mean and the standard error.
    """
    import numpy as np

    compiled = []
    for f, g in pairs:
        cf = _compile(_as_x_frame(f))
        compiled.append((cf, cf if g is f else _compile(_as_x_frame(g))))
    c = normalization_constant(cfg.kappa, cfg.kappa_prime)

    # One set of arrays for every batch; the work rows hold the sums and a
    # root factor while the batch is drawn and weighted.
    size = min(_BATCH, cfg.samples)
    points = np.empty((4, size))
    weights = np.empty(size)
    work = np.empty((4, size))

    total = [0.0] * len(compiled)
    total_sq = [0.0] * len(compiled)
    scale: list[int | None] = [None] * len(compiled)
    done = 0
    batch_index = 0
    while done < cfg.samples:
        m = min(_BATCH, cfg.samples - done)
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=cfg.seed, spawn_key=(batch_index,))
        )
        x, weight, rows = points[:, :m], weights[:m], work[:, :m]
        _draw(rng, x, rows[0])
        _weigh(weight, c, cfg, x, rows[0], rows[1])
        for k, (cf, cg) in enumerate(compiled):
            vals = _weighted_product(weight, cf, cg, x, rows)
            if scale[k] is None:
                scale[k] = math.frexp(max(float(vals.max()), -float(vals.min())))[1]
            np.ldexp(vals, -scale[k], out=vals)
            total[k] += float(vals.sum())
            vals *= vals
            total_sq[k] += float(vals.sum())
        done += m
        batch_index += 1

    n = cfg.samples
    results = []
    for t, t_sq, e in zip(total, total_sq, scale):
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
