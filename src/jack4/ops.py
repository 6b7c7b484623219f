"""Differential-difference operators and the bilinear pairings they induce.

The type-A family acts in an x-frame on N variables:

    D_i f = df/dx_i + kappa * sum_{j != i} (f - (i j) f) / (x_i - x_j),
    U_i f = D_i(x_i f) - kappa * sum_{j < i} (j i) f.

The type-D3 family acts on (y_1, y_2, y_3) (frames y3 or y4, the y_0
coordinate being inert), with sigma_ij / tau_ij the reflections fixing
y_i - y_j = 0 and y_i + y_j = 0:

    DB_i f = df/dy_i + kappa * sum_{j != i} [ (f - f sigma_ij)/(y_i - y_j)
                                            + (f - f tau_ij)/(y_i + y_j) ],
    UB_i f = DB_i(y_i f) - kappa * sum_{j < i} (sigma_ij + tau_ij) f.

Its roots are the long roots +-y_i +-y_j only; there is no short-root
(y_i -> -y_i) term, so this is the root system D3 = A3, not the
hyperoctahedral B3.  In the half-Hadamard coordinates the S4 roots x_i - x_j
are exactly +-y_i +-y_j, so DB_i is the type-A operator in other coordinates.

The y_0 direction carries its own operator weighted by kappa_prime:

    D0 f = df/dy_0 + (kappa_prime / y_0) (f - f sigma_0),

and the four-variable Dunkl operators of the extended group are

    D'_i f = D_i f + (kappa_prime / (2 y_0)) (f - f sigma_0)      (x4 frame).

All divided differences are computed termwise through the geometric-sum
identity (x^a y^b - x^b y^a)/(x - y) = +-(sum of x^p y^q over p + q = a+b-1
with p, q between the exponents), so every result is an exact polynomial.
"""

from __future__ import annotations

from fractions import Fraction

from .exact import ParamContext, Rat
from .poly import SparsePoly, Y0, Y3, Y4, is_x_frame, split_y0, to_x, to_y


# ---------------------------------------------------------------------- termwise kernels


def _swap_quotient(exp, p, q):
    """Terms of (m - m(p q)) / (v_p - v_q) for the monomial m with exponents exp."""
    a, b = exp[p], exp[q]
    if a == b:
        return
    lo, hi = (b, a) if a > b else (a, b)
    sign = 1 if a > b else -1
    base = list(exp)
    for u in range(lo, hi):
        base[p] = a + b - 1 - u
        base[q] = u
        yield tuple(base), sign


def _tau_quotient(exp, p, q):
    """Terms of (m - m tau_pq) / (v_p + v_q), tau_pq: v_p -> -v_q, v_q -> -v_p."""
    a, b = exp[p], exp[q]
    if a == b:
        return
    lo, hi = (b, a) if a > b else (a, b)
    sgn = -1 if (a < b and (a + b) % 2 == 0) else 1
    base = list(exp)
    for u in range(lo, hi):
        base[p] = a + b - 1 - u
        base[q] = u
        yield tuple(base), sgn * (-1 if (u - lo) % 2 else 1)


def _add(acc, exp, coef):
    c = acc.get(exp, 0) + coef
    if c:
        acc[exp] = c
    else:
        acc.pop(exp, None)


# ---------------------------------------------------------------------- type A


def dunkl_a(i: int, f: SparsePoly, ctx: ParamContext) -> SparsePoly:
    """Type-A Dunkl operator D_i (1-based i) in an x-frame."""
    if not is_x_frame(f.frame):
        raise ValueError(f"dunkl_a needs an x frame, got {f.frame!r}")
    n = f.nvars
    if not 1 <= i <= n:
        raise ValueError(f"operator index {i} out of range")
    p = i - 1
    k = ctx.kappa
    acc: dict = {}
    for exp, c in f.terms.items():
        if exp[p]:
            d = list(exp)
            d[p] -= 1
            _add(acc, tuple(d), c * exp[p])
        if k:
            for q in range(n):
                if q == p:
                    continue
                for e2, sign in _swap_quotient(exp, p, q):
                    _add(acc, e2, c * k * sign)
    return SparsePoly(n, f.frame, acc)


def cherednik_a(i: int, f: SparsePoly, ctx: ParamContext) -> SparsePoly:
    """Type-A Cherednik operator U_i; triangular on monomials in the dominance order."""
    xi_f = SparsePoly.variable(i - 1, f.nvars, f.frame) * f
    out = dunkl_a(i, xi_f, ctx)
    for j in range(1, i):
        out = out - ctx.kappa * f.swap_variables(j - 1, i - 1)
    return out


# ---------------------------------------------------------------------- type D3 on (y1, y2, y3)


def _b_position(frame: str, i: int) -> int:
    """Exponent position of y_i for a B-operator index i in {1, 2, 3}."""
    if not 1 <= i <= 3:
        raise ValueError(f"B operator index {i} out of range")
    if frame == Y3:
        return i - 1
    if frame == Y4:
        return i
    raise ValueError(f"B operators act on y3 or y4 frames, got {frame!r}")


def _b_partners(frame: str, p: int) -> list[int]:
    first = 0 if frame == Y3 else 1
    return [q for q in range(first, first + 3) if q != p]


def dunkl_b(i: int, f: SparsePoly, ctx: ParamContext) -> SparsePoly:
    """Type-D3 Dunkl operator DB_i on y3 (or slicewise on y4): roots y_i +- y_j only."""
    p = _b_position(f.frame, i)
    k = ctx.kappa
    acc: dict = {}
    for exp, c in f.terms.items():
        if exp[p]:
            d = list(exp)
            d[p] -= 1
            _add(acc, tuple(d), c * exp[p])
        if k:
            for q in _b_partners(f.frame, p):
                for e2, sign in _swap_quotient(exp, p, q):
                    _add(acc, e2, c * k * sign)
                for e2, sign in _tau_quotient(exp, p, q):
                    _add(acc, e2, c * k * sign)
    return SparsePoly(f.nvars, f.frame, acc)


def _tau_reflect(f: SparsePoly, p: int, q: int) -> SparsePoly:
    """Apply tau_pq: swap the two exponents and flip sign by their parity."""
    terms = {}
    for e, c in f.terms.items():
        le = list(e)
        le[p], le[q] = le[q], le[p]
        terms[tuple(le)] = -c if (e[p] + e[q]) % 2 else c
    return SparsePoly(f.nvars, f.frame, terms)


def cherednik_b(i: int, f: SparsePoly, ctx: ParamContext) -> SparsePoly:
    """Type-D3 Cherednik operator UB_i; the UB_i commute pairwise."""
    p = _b_position(f.frame, i)
    out = dunkl_b(i, SparsePoly.variable(p, f.nvars, f.frame) * f, ctx)
    for j in range(1, i):
        pj = _b_position(f.frame, j)
        out = out - ctx.kappa * (f.swap_variables(p, pj) + _tau_reflect(f, p, pj))
    return out


# ---------------------------------------------------------------------- the y0 direction


def dunkl_d0(f: SparsePoly, ctx: ParamContext) -> SparsePoly:
    """D0 = d/dy_0 + (kappa_prime / y_0)(1 - sigma_0); the difference part is
    odd in y_0, so the division is exact termwise."""
    if f.frame not in (Y0, Y4):
        raise ValueError(f"dunkl_d0 needs the y0 or y4 frame, got {f.frame!r}")
    acc: dict = {}
    for exp, c in f.terms.items():
        a = exp[0]
        if a:
            d = (a - 1,) + exp[1:]
            factor = a + 2 * ctx.kappa_prime if a % 2 else Fraction(a)
            _add(acc, d, c * factor)
    return SparsePoly(f.nvars, f.frame, acc)


def dunkl_prime(i: int, f: SparsePoly, ctx: ParamContext) -> SparsePoly:
    """Dunkl operator D'_i of the extended reflection group, in the x4 frame.

    The sign-change part goes through y4 once: f - f sigma_0 is twice the
    part of to_y(f) odd in y_0, which is divided by y_0 termwise there and
    brought back by one to_x.
    """
    if f.frame != "x4":
        raise ValueError(f"dunkl_prime needs the x4 frame, got {f.frame!r}")
    out = dunkl_a(i, f, ctx)
    if ctx.kappa_prime:
        odd = {
            (exp[0] - 1,) + exp[1:]: c * ctx.kappa_prime
            for exp, c in to_y(f).terms.items()
            if exp[0] % 2
        }
        out = out + to_x(SparsePoly(4, Y4, odd))
    return out


# ---------------------------------------------------------------------- Laplacians, Euler


def laplacian_b(f: SparsePoly, ctx: ParamContext) -> SparsePoly:
    """Delta_B = sum_{i=1..3} DB_i^2 (frames y3 or y4)."""
    out = SparsePoly.zero(f.nvars, f.frame)
    for i in (1, 2, 3):
        out = out + dunkl_b(i, dunkl_b(i, f, ctx), ctx)
    return out


def d0_squared(f: SparsePoly, ctx: ParamContext) -> SparsePoly:
    return dunkl_d0(dunkl_d0(f, ctx), ctx)


def laplacian_h(f: SparsePoly, ctx: ParamContext) -> SparsePoly:
    """Delta_h = sum_{i=1..4} D'_i^2 = Delta_B + D0^2.

    Computed through D'_i in the x4 frame (the definition) and through the
    B/y0 split in the y4 frame; the two routes agree and are cross-tested.
    """
    if f.frame == "x4":
        out = SparsePoly.zero(4, f.frame)
        for i in (1, 2, 3, 4):
            out = out + dunkl_prime(i, dunkl_prime(i, f, ctx), ctx)
        return out
    if f.frame == Y4:
        return laplacian_b(f, ctx) + d0_squared(f, ctx)
    raise ValueError(f"laplacian_h needs x4 or y4, got {f.frame!r}")


def laplacian(kind: str, f: SparsePoly, ctx: ParamContext) -> SparsePoly:
    if kind == "B":
        return laplacian_b(f, ctx)
    if kind == "H":
        return laplacian_h(f, ctx)
    raise ValueError(f"unknown Laplacian kind {kind!r}")


def euler(f: SparsePoly) -> SparsePoly:
    """sum_i v_i d/dv_i: scales each monomial by its total degree."""
    return SparsePoly(f.nvars, f.frame, {e: c * sum(e) for e, c in f.terms.items()})


# ---------------------------------------------------------------------- pairings

# Per-(frame, nvars, kappa) memos: _MONO_PAIR_CACHE maps each key to a dict
# {(a, b): <x^a, x^b>_kappa}, _DUNKL_MONO_CACHE to a dict {(p, b): terms of
# D_{p+1} x^b}.  Entries are only ever written with one deterministic value,
# so concurrent get-or-compute is harmless.
_MONO_PAIR_CACHE: dict = {}
_DUNKL_MONO_CACHE: dict = {}
_D0_PAIR_CACHE: dict = {}


def _monomial_pairing(
    pairs: dict, images: dict, dunkl, frame: str, ctx: ParamContext, a, b
) -> Rat:
    """<x^a, x^b>_kappa for |a| = |b| by <x^a, x^b> = <x^(a - e_p), D_{p+1} x^b>,
    p the first position with a_p > 0; the D_i commute, so any p gives the
    same value.  D_{p+1} lowers the degree by one, so |a| = |b| holds all the
    way down to <1, 1> = 1."""
    key = (a, b)
    value = pairs.get(key)
    if value is not None:
        return value
    p = next((q for q, e in enumerate(a) if e), None)
    if p is None:
        value = Fraction(1)
    else:
        image = images.get((p, b))
        if image is None:
            image = images[(p, b)] = dunkl(p + 1, SparsePoly.monomial(b, frame), ctx).terms
        lower = a[:p] + (a[p] - 1,) + a[p + 1:]
        value = Fraction(0)
        for c, coef in image.items():
            value += coef * _monomial_pairing(pairs, images, dunkl, frame, ctx, lower, c)
    pairs[key] = value
    return value


def pairing_kappa(f: SparsePoly, g: SparsePoly, ctx: ParamContext) -> Rat:
    """<f, g>_kappa = f(D_1, ..., D_N) g evaluated at the origin.

    In an x-frame the D_i are the type-A Dunkl operators; in the y3 frame the
    DB_i take their place.  Only monomials of equal degree pair nonzero, and
    each monomial pairing peels one operator at a time,

        <x^a, x^b> = <x^(a - e_i), D_i x^b>,   i the first index with a_i > 0,

    so a pairing of degree d is a sum over the terms of one D_i x^b of
    pairings of degree d - 1.  Both the one-step images D_i x^b and every
    pairing met on the way are memoized per (frame, nvars, kappa), so each
    sub-pairing is computed once and shared by all later pairings at the
    same kappa.
    """
    if f.frame != g.frame or f.nvars != g.nvars:
        raise ValueError("pairing needs matching frames")
    if not (is_x_frame(f.frame) or f.frame == Y3):
        raise ValueError(f"pairing_kappa is defined on x frames and y3, got {f.frame!r}")
    key = (f.frame, f.nvars, ctx.kappa)
    pairs = _MONO_PAIR_CACHE.setdefault(key, {})
    images = _DUNKL_MONO_CACHE.setdefault(key, {})
    dunkl = dunkl_a if is_x_frame(f.frame) else dunkl_b
    g_by_degree: dict = {}
    for eb, cb in g.terms.items():
        g_by_degree.setdefault(sum(eb), []).append((eb, cb))
    total = Fraction(0)
    for ea, ca in f.terms.items():
        for eb, cb in g_by_degree.get(sum(ea), ()):
            total += ca * cb * _monomial_pairing(pairs, images, dunkl, f.frame, ctx, ea, eb)
    return total


def _d0_pairing(a: int, b: int, ctx: ParamContext) -> Rat:
    """D0^a applied to y_0^b, constant term."""
    key = (ctx.kappa_prime, a, b)
    cached = _D0_PAIR_CACHE.get(key)
    if cached is not None:
        return cached
    g = SparsePoly.monomial((b,), Y0)
    for _ in range(a):
        if g.is_zero():
            break
        g = dunkl_d0(g, ctx)
    value = g.constant_term()
    _D0_PAIR_CACHE[key] = value
    return value


def pairing_extended(f: SparsePoly, g: SparsePoly, ctx: ParamContext) -> Rat:
    """<f, g>_{kappa, kappa_prime} = f(D'_1, ..., D'_4) g at the origin.

    Computed through the tensor split over y_0 and (y_1, y_2, y_3):
    <y_0^a f_a, y_0^b g_b> = (D0^a y_0^b at 0) * <f_a, g_b>_kappa.
    """
    if f.frame == "x4":
        f = to_y(f)
    if g.frame == "x4":
        g = to_y(g)
    if f.frame != Y4 or g.frame != Y4:
        raise ValueError("pairing_extended needs the x4 or y4 frame")
    fs = split_y0(f)
    gs = split_y0(g)
    total = Fraction(0)
    for a, fa in fs.items():
        for b, gb in gs.items():
            factor = _d0_pairing(a, b, ctx)
            if factor:
                total += factor * pairing_kappa(fa, gb, ctx)
    return total
