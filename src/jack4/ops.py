"""Differential-difference operators and the bilinear pairings they induce.

Every operator is one formula, the Dunkl operator of a root system,

    D_xi f = df/dxi + sum_{alpha > 0} kappa_alpha <alpha, xi> (f - s_alpha f) / <alpha, v>,

with xi = e_p, read from a per-frame root table.  Row p lists the roots with
<alpha, e_p> = 1, as (q, s) for alpha = v_p - s v_q, whose reflection
exchanges v_p and s v_q (a transposition for s = +1, tau_pq for s = -1), or
as q = None for alpha = v_p, whose reflection negates v_p:

* x frames: A_{N-1}, roots x_p - x_q, weight kappa; the type-A D_i.
* y3, and y_1..y_3 of y4: D3 = A3, roots y_p -+ y_q, weight kappa; the DB_i.
  These are the images of the S4 roots x_i - x_j.  There is no short root,
  so this is not the hyperoctahedral B3.
* y_0 of y0 and y4: A1, the root y_0, weight kappa_prime; D0.

The Cherednik operators of the same tables are U_p f = D_p(v_p f) - kappa *
(sum of s_alpha f over the roots (q, s) of row p with q < p): U_i for A_{N-1}
and UB_i for D3.  The Dunkl operators of the extended group keep their x4
definition, D'_i f = D_i f + (kappa_prime / (2 y_0)) (f - f sigma_0).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .exact import ParamContext, Rat
from .poly import SparsePoly, Y0, Y3, Y4, is_x_frame, to_x, to_y


# ---------------------------------------------------------------------- root tables


@lru_cache(maxsize=None)
def _roots(frame: str, nvars: int) -> tuple:
    """The root table of a frame: a row of (q, s) per position p, and the
    slices of positions spanned by its irreducible components.  A monomial
    pairing is zero unless the two degrees agree on every component."""
    # (first position, end, signs s of the roots v_p - s v_q); signs None
    # marks a one-position A1 component, the root v_p weighted by kappa_prime
    if is_x_frame(frame):
        components = ((0, nvars, (1,)),)
    elif frame == Y3:
        components = ((0, 3, (1, -1)),)
    elif frame == Y4:
        components = ((0, 1, None), (1, 4, (1, -1)))
    elif frame == Y0:
        components = ((0, 1, None),)
    else:
        raise ValueError(f"no root system in frame {frame!r}")
    rows = []
    for lo, hi, signs in components:
        for p in range(lo, hi):
            if signs is None:
                rows.append(((None, 1),))
            else:
                rows.append(tuple((q, s) for q in range(lo, hi) if q != p for s in signs))
    return tuple(rows), tuple(slice(lo, hi) for lo, hi, _ in components)


def _quotient(exp, p, q, s):
    """Terms (exp2, coef) of (m - s_alpha m) / <alpha, v> for m = v^exp.

    For alpha = v_p - v_q this is the geometric sum +-(v_p^c v_q^u over
    c + u = a + b - 1, u from min(a, b) to max(a, b) - 1), a = exp[p] and
    b = exp[q]; for alpha = v_p + v_q (s = -1) each term gains the sign
    s^(b+u); for alpha = v_p (q = None) it is 2 m / v_p when a is odd.
    """
    a = exp[p]
    if q is None:
        if a % 2:
            yield exp[:p] + (a - 1,) + exp[p + 1:], 2
        return
    b = exp[q]
    if a == b:
        return
    lo, hi = (b, a) if a > b else (a, b)
    sign = 1 if a > b else -1
    if s < 0 and (b + lo) % 2:
        sign = -sign
    base = list(exp)
    for u in range(lo, hi):
        base[p] = a + b - 1 - u
        base[q] = u
        yield tuple(base), sign
        sign *= s


def _reflect(exp, p, q, s):
    """s_alpha v^exp = sign * v^exp2 for alpha = v_p - s v_q, which exchanges
    v_p and s v_q; returns (exp2, sign)."""
    e = list(exp)
    e[p], e[q] = e[q], e[p]
    return tuple(e), -1 if s < 0 and (exp[p] + exp[q]) % 2 else 1


def _add(acc, exp, coef):
    c = acc.get(exp, 0) + coef
    if c:
        acc[exp] = c
    else:
        acc.pop(exp, None)


def _dunkl(p: int, f: SparsePoly, ctx: ParamContext) -> SparsePoly:
    """D_{e_p} f over the root table of f's frame (0-based position p)."""
    rows, _ = _roots(f.frame, f.nvars)
    roots = []
    for q, s in rows[p]:
        k = ctx.kappa_prime if q is None else ctx.kappa
        if k:
            roots.append((q, s, k))
    acc: dict = {}
    for exp, c in f.terms.items():
        if exp[p]:
            _add(acc, exp[:p] + (exp[p] - 1,) + exp[p + 1:], c * exp[p])
        for q, s, k in roots:
            ck = c * k
            for e2, sign in _quotient(exp, p, q, s):
                _add(acc, e2, ck * sign)
    return SparsePoly(f.nvars, f.frame, acc)


def _cherednik(p: int, f: SparsePoly, ctx: ParamContext) -> SparsePoly:
    """U_p f = D_p(v_p f) - kappa * sum of s_alpha f over the roots (q, s) of
    row p with q < p; triangular on monomials, and the U_p commute."""
    vp_f = {e[:p] + (e[p] + 1,) + e[p + 1:]: c for e, c in f.terms.items()}
    acc = dict(_dunkl(p, SparsePoly(f.nvars, f.frame, vp_f), ctx).terms)
    rows, _ = _roots(f.frame, f.nvars)
    k = ctx.kappa
    for q, s in rows[p]:
        if k and q is not None and q < p:
            for exp, c in f.terms.items():
                e2, sign = _reflect(exp, p, q, s)
                _add(acc, e2, -sign * k * c)
    return SparsePoly(f.nvars, f.frame, acc)


# ---------------------------------------------------------------------- entry points


def _a_position(f: SparsePoly, i: int) -> int:
    """Exponent position of x_i for a type-A operator index i."""
    if not is_x_frame(f.frame):
        raise ValueError(f"type-A operators need an x frame, got {f.frame!r}")
    if not 1 <= i <= f.nvars:
        raise ValueError(f"operator index {i} out of range")
    return i - 1


def _b_position(frame: str, i: int) -> int:
    """Exponent position of y_i for a B-operator index i in {1, 2, 3}."""
    if not 1 <= i <= 3:
        raise ValueError(f"B operator index {i} out of range")
    if frame == Y3:
        return i - 1
    if frame == Y4:
        return i
    raise ValueError(f"B operators act on y3 or y4 frames, got {frame!r}")


def dunkl_a(i: int, f: SparsePoly, ctx: ParamContext) -> SparsePoly:
    """Type-A Dunkl operator D_i (1-based i) in an x-frame."""
    return _dunkl(_a_position(f, i), f, ctx)


def cherednik_a(i: int, f: SparsePoly, ctx: ParamContext) -> SparsePoly:
    """Type-A Cherednik operator U_i; triangular on monomials in the dominance order."""
    return _cherednik(_a_position(f, i), f, ctx)


def dunkl_b(i: int, f: SparsePoly, ctx: ParamContext) -> SparsePoly:
    """Type-D3 Dunkl operator DB_i on y3 (or slicewise on y4): roots y_i +- y_j only."""
    return _dunkl(_b_position(f.frame, i), f, ctx)


def cherednik_b(i: int, f: SparsePoly, ctx: ParamContext) -> SparsePoly:
    """Type-D3 Cherednik operator UB_i; the UB_i commute pairwise."""
    return _cherednik(_b_position(f.frame, i), f, ctx)


def dunkl_d0(f: SparsePoly, ctx: ParamContext) -> SparsePoly:
    """D0 = d/dy_0 + (kappa_prime / y_0)(1 - sigma_0) on the y0 or y4 frame."""
    if f.frame not in (Y0, Y4):
        raise ValueError(f"dunkl_d0 needs the y0 or y4 frame, got {f.frame!r}")
    return _dunkl(0, f, ctx)


def dunkl_prime(i: int, f: SparsePoly, ctx: ParamContext) -> SparsePoly:
    """Dunkl operator D'_i of the extended reflection group, in the x4 frame.

    The sign-change part goes through y4 once: f - f sigma_0 is twice the
    part of to_y(f) odd in y_0, which is divided by y_0 termwise there and
    brought back by one to_x.
    """
    if f.frame != "x4":
        raise ValueError(f"dunkl_prime needs the x4 frame, got {f.frame!r}")
    out = _dunkl(_a_position(f, i), f, ctx)
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
    """Delta_B, D0^2 or Delta_h, by kind "B", "D0" or "H"."""
    if kind == "B":
        return laplacian_b(f, ctx)
    if kind == "D0":
        return d0_squared(f, ctx)
    if kind == "H":
        return laplacian_h(f, ctx)
    raise ValueError(f"unknown Laplacian kind {kind!r}")


def euler(f: SparsePoly) -> SparsePoly:
    """sum_i v_i d/dv_i: scales each monomial by its total degree."""
    return SparsePoly(f.nvars, f.frame, {e: c * sum(e) for e, c in f.terms.items()})


# ---------------------------------------------------------------------- pairings

# Per-(frame, nvars, kappa) memos, with kappa_prime added to the key in y4:
# _MONO_PAIR_CACHE maps each key to a dict {(a, b): <v^a, v^b>},
# _DUNKL_MONO_CACHE to a dict {(p, b): terms of D_{e_p} v^b}.  Entries are
# only ever written with one deterministic value, so concurrent
# get-or-compute is harmless.
_MONO_PAIR_CACHE: dict = {}
_DUNKL_MONO_CACHE: dict = {}


def _monomial_pairing(pairs: dict, images: dict, frame: str, ctx: ParamContext, a, b) -> Rat:
    """<v^a, v^b> for monomials of equal degree on every component, by
    <v^a, v^b> = <v^(a - e_p), D_{e_p} v^b>, p the first position with
    a_p > 0; the D_{e_p} commute, so any p gives the same value.  D_{e_p}
    lowers the degree on p's component by one, so the degrees keep agreeing
    all the way down to <1, 1> = 1."""
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
            image = images[(p, b)] = _dunkl(p, SparsePoly.monomial(b, frame), ctx).terms
        lower = a[:p] + (a[p] - 1,) + a[p + 1:]
        value = Fraction(0)
        for c, coef in image.items():
            value += coef * _monomial_pairing(pairs, images, frame, ctx, lower, c)
    pairs[key] = value
    return value


def _pairing(f: SparsePoly, g: SparsePoly, ctx: ParamContext) -> Rat:
    """f(D_{e_1}, ..., D_{e_N}) g at the origin, over the root table of the
    common frame of f and g."""
    key = (f.frame, f.nvars, ctx.kappa) + ((ctx.kappa_prime,) if f.frame == Y4 else ())
    pairs = _MONO_PAIR_CACHE.setdefault(key, {})
    images = _DUNKL_MONO_CACHE.setdefault(key, {})
    _, blocks = _roots(f.frame, f.nvars)
    g_by_degree: dict = {}
    for eb, cb in g.terms.items():
        g_by_degree.setdefault(tuple(sum(eb[s]) for s in blocks), []).append((eb, cb))
    total = Fraction(0)
    for ea, ca in f.terms.items():
        for eb, cb in g_by_degree.get(tuple(sum(ea[s]) for s in blocks), ()):
            total += ca * cb * _monomial_pairing(pairs, images, f.frame, ctx, ea, eb)
    return total


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
    same kappa, whatever kappa_prime is.
    """
    if f.frame != g.frame or f.nvars != g.nvars:
        raise ValueError("pairing needs matching frames")
    if not (is_x_frame(f.frame) or f.frame == Y3):
        raise ValueError(f"pairing_kappa is defined on x frames and y3, got {f.frame!r}")
    return _pairing(f, g, ctx)


def pairing_extended(f: SparsePoly, g: SparsePoly, ctx: ParamContext) -> Rat:
    """<f, g>_{kappa, kappa_prime} = f(D'_1, ..., D'_4) g at the origin.

    The orthogonal change to y4 carries the D'_i to the Dunkl operators along
    the y axes, (D0, DB_1, DB_2, DB_3), so this is the memoized recursion of
    :func:`pairing_kappa` on to_y(f) and to_y(g) over the y4 root table, with
    kappa_prime in the memo key.  Monomials whose y_0 degrees differ pair to
    zero without recursing.
    """
    if f.frame == "x4":
        f = to_y(f)
    if g.frame == "x4":
        g = to_y(g)
    if f.frame != Y4 or g.frame != Y4:
        raise ValueError("pairing_extended needs the x4 or y4 frame")
    return _pairing(f, g, ctx)
