"""Differential-difference operators and the bilinear pairings they induce.

Every operator is one formula, the Dunkl operator of a root system,

    D_xi f = df/dxi + sum_{alpha > 0} kappa_alpha <alpha, xi> (f - s_alpha f) / <alpha, v>,

with xi = e_p, over the root system of the frame, read from the frame table
:data:`jack4.poly._FRAMES`.  :func:`_roots` expands its components into one
row per position p, listing the roots with <alpha, e_p> = 1 as (q, s) for
alpha = v_p - s v_q, whose reflection exchanges v_p and s v_q (a
transposition for s = +1, tau_pq for s = -1), or as q = None for the A1 root
alpha = v_p, whose reflection negates v_p.  So D_p is the type-A D_i in the
x frames, DB_i on y_1..y_3 of y3 and y4, and D0 on y_0 of y0 and y4.

The Cherednik operators of the same tables are U_p f = D_p(v_p f) - kappa *
(sum of s_alpha f over the roots (q, s) of row p with q < p): U_i for A_{N-1}
and UB_i for D3.  The y-frame Laplacians are sums of D_p^2 over the positions
of named coordinates.  The Dunkl operators of the extended group keep their
x4 definition, D'_i f = D_i f + S f with the sign term
S f = (kappa_prime / (2 y_0)) (f - f sigma_0), which does not depend on i.

D_p, U_p and these Laplacians are linear and graded, so each is applied to f
as the sum of c times its image of v^exp over the terms c v^exp of f.  Each
image is computed once and kept in the one memo _MEMO_CACHE, in the entry
("D", p), ("U", p) or ("L", positions) of its frame and nvars.  Entries live
in parameter groups: kappa, with kappa_prime added in the frames with a y_0
root (:data:`_Y0_FRAMES`), so the other entries are shared across
kappa_prime.  The same memo holds the monomial pairings, the records of
:func:`jack4.jack.nsjp`, the symmetric Jacks, the kappa_prime-free norms and
invariants, and the dual vectors kept by prop1 and prop2.

The images are integers.  With kappa = p/q and kappa_prime = p'/q', let
Q = lcm(q, q') in the frames with a y_0 root and Q = q in the others.  The
kernel runs on the weights (Q, Q kappa, Q kappa'), so the memo holds Q D_p v^exp,
Q U_p v^exp and Q^2 L v^exp with integer coefficients.  :func:`_apply` scales
f once to integers, F = den f, and divides each output term once, by den Q
(den Q^2 for a Laplacian).  The pairings stay in integers throughout:
Q^|a| <v^a, v^b> is an integer, and the "pair" entries hold these integers,
computed from the images Q D_p v^b.  :class:`Dual` scales a polynomial g
once to integers, G = den g, and fills its dual vector w[a] = sum_b G_b
Q^|a| <v^a, v^b> lazily per monomial; pairing f with it is one integer dot
product per group of component degrees that f and g share, an integer ratio
(:meth:`Dual.ratio`), and one Fraction at the end (:meth:`Dual.pair`).
:func:`pairing_kappa` and :func:`pairing_extended` are that.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache, partial

from .exact import ParamContext, Rat
from .poly import (SparsePoly, Y3, Y4, _FRAMES, _accumulate, _integer_form, frame_spec,
                   is_x_frame, position, to_x, to_y)


# ---------------------------------------------------------------------- root tables


@lru_cache(maxsize=None)
def _roots(frame: str) -> tuple:
    """The root table of a frame: a row of (q, s) per position p, and the
    slices of positions spanned by its irreducible components.  A monomial
    pairing is zero unless the two degrees agree on every component."""
    components = frame_spec(frame).components
    rows = []
    for lo, hi, signs in components:
        for p in range(lo, hi):
            if signs is None:
                rows.append(((None, 1),))
            else:
                rows.append(tuple((q, s) for q in range(lo, hi) if q != p for s in signs))
    return tuple(rows), tuple(slice(lo, hi) for lo, hi, _ in components)


# The frames with a y_0 root, whose operators carry kappa_prime.
_Y0_FRAMES = frozenset(
    frame for frame, spec in _FRAMES.items() if any(s is None for _, _, s in spec.components)
)


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


def _kernel(p: int, exp, c, rows: tuple, weights: tuple, acc: dict) -> dict:
    """Add c * Q D_{e_p} v^exp to acc, over the root table rows, with the
    integer weights (Q, Q kappa, Q kappa_prime) of :func:`_weights`; returns acc."""
    d, k, kp = weights
    if exp[p]:
        _accumulate(acc, exp[:p] + (exp[p] - 1,) + exp[p + 1:], c * (d * exp[p]))
    for q, s in rows[p]:
        w = kp if q is None else k
        if w:
            for e2, sign in _quotient(exp, p, q, s):
                _accumulate(acc, e2, c * w * sign)
    return acc


def _weights(frame: str, ctx: ParamContext) -> tuple:
    """The integer kernel weights (Q, Q kappa, Q kappa') of the images Q D_p,
    with Q = q for kappa = p/q, and Q = lcm(q, q') for kappa_prime = p'/q' in
    the frames with a y_0 root; kappa' is 0 in the others.  Q is a multiple
    of each denominator, so each product is exact, Q D_p maps integer
    coefficients to integers, and Q^|a| <v^a, v^b> is an integer."""
    k, kp = ctx.kappa, ctx.kappa_prime
    if frame not in _Y0_FRAMES:
        return k.denominator, k.numerator, 0
    scale = math.lcm(k.denominator, kp.denominator)
    return scale, k.numerator * (scale // k.denominator), kp.numerator * (scale // kp.denominator)


class _Entry(dict):
    """One memo entry: a missing value is computed once as compute(entry,
    key) and kept.  ``weights`` are the kernel weights of its frame and group
    (:func:`_weights`); ``ctx`` is the context of its latest lookup."""

    def __init__(self, kind, frame: str, weights: tuple, compute):
        self.kind, self.frame, self.weights, self.compute = kind, frame, weights, compute

    def __missing__(self, key):
        value = self[key] = self.compute(self, key)
        return value


def _image(images: _Entry, exp) -> dict:
    """The compute of the operator entries ("D", p), ("U", p) and ("L",
    positions): the integer terms of Q D_p, Q U_p or Q^2 L applied to v^exp.
    The inner factors of U and L come from the kernel directly; only the
    outer image is stored."""
    (kind, arg), rows, weights = images.kind, _roots(images.frame)[0], images.weights
    if kind == "D":
        return _kernel(arg, exp, 1, rows, weights, {})
    if kind == "L":
        image: dict = {}
        for p in arg:
            for e2, c in _kernel(p, exp, 1, rows, weights, {}).items():
                _kernel(p, e2, c, rows, weights, image)
        return image
    image = _kernel(arg, exp[:arg] + (exp[arg] + 1,) + exp[arg + 1:], 1, rows, weights, {})
    for q, s in rows[arg]:
        if q is not None and q < arg:
            e2, sign = _reflect(exp, arg, q, s)
            _accumulate(image, e2, -sign * weights[1])
    return image


# Parameter group -> (kind, frame, nvars) -> entry.  Creating a group beyond
# _MEMO_GROUPS drops the oldest-created; the certification grid makes 12.
_MEMO_GROUPS = 16
_MEMO_CACHE: dict = {}


def _memo(kind, frame: str, nvars: int, ctx: ParamContext, compute) -> _Entry:
    """The entry (kind, frame, nvars) of ctx's parameter group, made with
    ``compute`` if new.  A group's values depend only on its parameters, so
    the entry computes with the ctx of its latest lookup."""
    # ints hash in C; Fraction.__hash__ runs in Python on every lookup
    params = ctx.kappa.as_integer_ratio()
    if frame in _Y0_FRAMES:
        params += ctx.kappa_prime.as_integer_ratio()
    group = _MEMO_CACHE.get(params)
    if group is None:
        if len(_MEMO_CACHE) >= _MEMO_GROUPS:
            del _MEMO_CACHE[next(iter(_MEMO_CACHE))]
        group = _MEMO_CACHE[params] = {}
    entry = group.get((kind, frame, nvars))
    if entry is None:
        entry = group[kind, frame, nvars] = _Entry(kind, frame, _weights(frame, ctx), compute)
    entry.ctx = ctx
    return entry


def _apply(op: tuple, f: SparsePoly, ctx: ParamContext) -> SparsePoly:
    """op f as the sum of n * (memoized integer image of v^exp) over the terms
    n v^exp of F = den f, divided by den Q^k: k = 2 for a Laplacian, else 1."""
    images = _memo(op, f.frame, f.nvars, ctx, _image)
    den, terms = _integer_form(f)
    den *= images.weights[0] ** (2 if op[0] == "L" else 1)
    acc: dict = {}
    for exp, n in terms.items():
        for e2, c in images[exp].items():
            _accumulate(acc, e2, n * c)
    return SparsePoly._of(f.nvars, f.frame, {e: Fraction(n, den) for e, n in acc.items()})


# ---------------------------------------------------------------------- entry points


def _b_position(frame: str, i: int) -> int:
    """Exponent position of y_i for a B-operator index i in {1, 2, 3}."""
    if not 1 <= i <= 3:
        raise ValueError(f"B operator index {i} out of range")
    return position(frame, f"y{i}")


def dunkl_a(i: int, f: SparsePoly, ctx: ParamContext) -> SparsePoly:
    """Type-A Dunkl operator D_i (1-based i) in an x-frame."""
    return _apply(("D", position(f.frame, f"x{i}")), f, ctx)


def cherednik_a(i: int, f: SparsePoly, ctx: ParamContext) -> SparsePoly:
    """Type-A Cherednik operator U_i; triangular on monomials in the dominance order."""
    return _apply(("U", position(f.frame, f"x{i}")), f, ctx)


def dunkl_b(i: int, f: SparsePoly, ctx: ParamContext) -> SparsePoly:
    """Type-D3 Dunkl operator DB_i on y3 (or slicewise on y4): roots y_i +- y_j only."""
    return _apply(("D", _b_position(f.frame, i)), f, ctx)


def cherednik_b(i: int, f: SparsePoly, ctx: ParamContext) -> SparsePoly:
    """Type-D3 Cherednik operator UB_i; the UB_i commute pairwise."""
    return _apply(("U", _b_position(f.frame, i)), f, ctx)


def dunkl_d0(f: SparsePoly, ctx: ParamContext) -> SparsePoly:
    """D0 = d/dy_0 + (kappa_prime / y_0)(1 - sigma_0) on the y0 or y4 frame."""
    return _apply(("D", position(f.frame, "y0")), f, ctx)


def _sign_term(f: SparsePoly, ctx: ParamContext) -> SparsePoly:
    """S f = (kappa_prime / (2 y_0)) (f - f sigma_0) on x4, the y_0-root term
    of every D'_i.  f - f sigma_0 is twice the part of to_y(f) odd in y_0,
    which is divided by y_0 termwise there and brought back by one to_x.  S
    is linear, and zero, with no change of coordinates, at kappa_prime = 0."""
    if not ctx.kappa_prime:
        return SparsePoly.zero(4, f.frame)
    odd = {
        (exp[0] - 1,) + exp[1:]: c * ctx.kappa_prime
        for exp, c in to_y(f).terms.items()
        if exp[0] % 2
    }
    return to_x(SparsePoly._of(4, Y4, odd))


def dunkl_prime(i: int, f: SparsePoly, ctx: ParamContext) -> SparsePoly:
    """Dunkl operator D'_i = D_i + S of the extended reflection group, in the
    x4 frame: the type-A D_i plus the sign term S of :func:`_sign_term`."""
    if f.frame != "x4":
        raise ValueError(f"dunkl_prime needs the x4 frame, got {f.frame!r}")
    return dunkl_a(i, f, ctx) + _sign_term(f, ctx)


# ---------------------------------------------------------------------- Laplacians, Euler


# The coordinates of each Laplacian sum_p D_{e_p}^2, by kind.  A Laplacian
# exists in the frames that have all of its coordinates.
_LAPLACIAN_COORDINATES = {"B": ("y1", "y2", "y3"), "D0": ("y0",), "H": ("y0", "y1", "y2", "y3")}


@lru_cache(maxsize=None)
def _laplacian_positions(kind: str, frame: str) -> tuple:
    return tuple(position(frame, name) for name in _LAPLACIAN_COORDINATES[kind])


def _laplacian(kind: str, f: SparsePoly, ctx: ParamContext) -> SparsePoly:
    return _apply(("L", _laplacian_positions(kind, f.frame)), f, ctx)


def laplacian_b(f: SparsePoly, ctx: ParamContext) -> SparsePoly:
    """Delta_B = sum_{i=1..3} DB_i^2 (frames y3 or y4)."""
    return _laplacian("B", f, ctx)


def d0_squared(f: SparsePoly, ctx: ParamContext) -> SparsePoly:
    return _laplacian("D0", f, ctx)


def laplacian_h(f: SparsePoly, ctx: ParamContext) -> SparsePoly:
    """Delta_h = sum_{i=1..4} D'_i^2 = Delta_B + D0^2.

    In the x4 frame it is computed from the definition, D'_i = D_i + S with
    the type-A D_i and the sign term S (:func:`_sign_term`).  S does not
    depend on i and is linear, so with g_i = D_i f + S f,

        Delta_h f = sum_i (D_i + S) g_i = sum_i D_i g_i + S(sum_i g_i),

    two sign terms in place of eight.  In the y4 frame it is
    D0^2 + DB_1^2 + DB_2^2 + DB_3^2; the two routes agree and are
    cross-tested.
    """
    if f.frame == "x4":
        sf = _sign_term(f, ctx)
        out = total = SparsePoly.zero(4, f.frame)
        for i in (1, 2, 3, 4):
            g = dunkl_a(i, f, ctx) + sf
            total = total + g
            out = out + dunkl_a(i, g, ctx)
        return out + _sign_term(total, ctx)
    return _laplacian("H", f, ctx)


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
    return SparsePoly._of(f.nvars, f.frame, {e: c * sum(e) for e, c in f.terms.items() if any(e)})


# ---------------------------------------------------------------------- pairings


def _monomial_pairing(images: list, pairs: _Entry, key) -> int:
    """The compute of the "pair" entry: Q^|a| <v^a, v^b>, an integer, for
    key (a, b), monomials of equal degree on every component, by
    Q^|a| <v^a, v^b> = Q^(|a| - 1) <v^(a - e_p), Q D_{e_p} v^b>, p the first
    position with a_p > 0; the D_{e_p} commute, so any p gives the same
    value.  ``images`` are the operator entries ("D", p) of the frame.
    D_{e_p} lowers the degree on p's component by one, so the degrees keep
    agreeing all the way down to <1, 1> = 1."""
    a, b = key
    p = next((q for q, e in enumerate(a) if e), None)
    if p is None:
        return 1
    lower = a[:p] + (a[p] - 1,) + a[p + 1:]
    value = 0
    for c, coef in images[p][b].items():
        value += coef * pairs[lower, c]
    return value


class Dual(dict):
    """The dual vector of g for the monomial pairing of its frame.

    g is scaled once to integers, G = den * g with den the least common
    denominator of its coefficients, and the dual vector is

        w[a] = sum_b G_b Q^|a| <v^a, v^b>   (Q from :func:`_weights`),

    an integer filled on first lookup of the monomial a, from the integer
    monomial pairings of the memo.  ``by_blocks`` keeps G grouped by the
    degree on every component of the root system: only monomials of the same
    group pair nonzero, so w[a] is a sum over a's group of g, and :meth:`pair`
    walks only the groups of f that g shares.
    """

    def __init__(self, g: SparsePoly, ctx: ParamContext):
        self.frame, self.nvars = g.frame, g.nvars
        _, self.blocks = _roots(g.frame)
        self.den, terms = _integer_form(g)
        self.by_blocks: dict = {}  # degree on every component -> [(exp, G_exp)]
        for exp, n in terms.items():
            self.by_blocks.setdefault(tuple(sum(exp[s]) for s in self.blocks), []).append((exp, n))
        images = [_memo(("D", p), g.frame, g.nvars, ctx, _image) for p in range(g.nvars)]
        self.pairs = _memo("pair", g.frame, g.nvars, ctx, partial(_monomial_pairing, images))
        self.scale = self.pairs.weights[0]

    def __missing__(self, a):
        pairs = self.pairs
        value = 0
        for b, n in self.by_blocks.get(tuple(sum(a[s]) for s in self.blocks), ()):
            value += n * pairs[a, b]
        self[a] = value
        return value

    def ratio(self, f: "Dual") -> tuple[int, int]:
        """<f, g> for this dual vector w of g and the integer form F = den_f f,
        as an integer numerator and denominator: per group of F that g shares,
        the integer dot product of F with w, which carries the factor Q^d of
        its total degree d."""
        if f.frame != self.frame or f.nvars != self.nvars:
            raise ValueError("pairing needs matching frames")
        top = max(map(sum, f.by_blocks), default=0)
        total = 0
        for key, terms in f.by_blocks.items():
            if key in self.by_blocks:
                total += self.scale ** (top - sum(key)) * sum(n * self[a] for a, n in terms)
        return total, self.scale**top * f.den * self.den

    def pair(self, f: "Dual") -> Rat:
        """<f, g> as one Fraction."""
        return Fraction(*self.ratio(f))


def pairing_kappa(f: SparsePoly, g: SparsePoly, ctx: ParamContext) -> Rat:
    """<f, g>_kappa = f(D_1, ..., D_N) g evaluated at the origin.

    In an x-frame the D_i are the type-A Dunkl operators; in the y3 frame the
    DB_i take their place.  Only monomials of equal degree pair nonzero, and
    each monomial pairing peels one operator at a time,

        <x^a, x^b> = <x^(a - e_i), D_i x^b>,   i the first index with a_i > 0,

    so a pairing of degree d is a sum over the terms of one D_i x^b of
    pairings of degree d - 1.  With kappa = p/q the recursion runs in
    integers on Q = q: the memo holds the integer images q D_i x^b and the
    integers q^|a| <x^a, x^b>, keyed per (frame, nvars, kappa), so each
    sub-pairing is computed once and shared by all later pairings at the
    same kappa, whatever kappa_prime is.  The value is the dual vector of g
    (:class:`Dual`) paired with f: one integer dot product per degree and
    one Fraction at the end.  When g is f, one dual vector serves as both.
    """
    if not (is_x_frame(f.frame) or f.frame == Y3):
        raise ValueError(f"pairing_kappa is defined on x frames and y3, got {f.frame!r}")
    return _pair_duals(f, g, ctx)


def _pair_duals(f: SparsePoly, g: SparsePoly, ctx: ParamContext) -> Rat:
    dual_g = Dual(g, ctx)
    return dual_g.pair(dual_g if g is f else Dual(f, ctx))


def pairing_extended(f: SparsePoly, g: SparsePoly, ctx: ParamContext) -> Rat:
    """<f, g>_{kappa, kappa_prime} = f(D'_1, ..., D'_4) g at the origin.

    The orthogonal change to y4 carries the D'_i to the Dunkl operators along
    the y axes, (D0, DB_1, DB_2, DB_3), so this is the integer recursion of
    :func:`pairing_kappa` on to_y(f) and to_y(g) over the y4 root table, with
    Q = lcm(q, q') for kappa = p/q and kappa_prime = p'/q', and kappa_prime
    in the memo key; the dual vector of to_y(g) paired with to_y(f).
    Monomials whose y_0 degrees differ pair to zero without recursing.  When
    g is f, it takes one ``to_y`` and one dual vector.
    """
    same = g is f
    if f.frame == "x4":
        f = to_y(f)
    if same:
        g = f
    elif g.frame == "x4":
        g = to_y(g)
    if f.frame != Y4 or g.frame != Y4:
        raise ValueError("pairing_extended needs the x4 or y4 frame")
    return _pair_duals(f, g, ctx)
