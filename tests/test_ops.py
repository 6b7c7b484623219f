import itertools
import random
from fractions import Fraction

import pytest
import sympy

from jack4 import combin, ops, poly, verify
from jack4.basis4 import basis_poly, basis_poly4
from jack4.exact import make_context
from jack4.jack import nsjp
from jack4.ops import (
    _quotient,
    cherednik_a,
    cherednik_b,
    d0_squared,
    dunkl_a,
    dunkl_b,
    dunkl_d0,
    dunkl_prime,
    euler,
    laplacian,
    laplacian_b,
    laplacian_h,
    pairing_extended,
    pairing_kappa,
)
from jack4.poly import SparsePoly, substitute_linear, to_x, to_y, var_names
from oracles import (dominates, fraction_operator, laplacian_h_by_dunkl_prime, pairing_by_fractions,
                     split_y0, upper_pairings)
from oracles import spectral_vector as oracle_spectral_vector

KAPPAS = (Fraction(1, 2), Fraction(1), Fraction(3), Fraction(5, 7))
PARAM_PAIRS = tuple(
    (k, kp) for k in (Fraction(1, 2), Fraction(1)) for kp in (Fraction(1, 2), Fraction(2))
)

# The conftest grid, and a pair where lcm(q, q') = 21 is not q = 7.
ORACLE_PARAMS = tuple(dict.fromkeys(
    tuple((k, Fraction(1, 2)) for k in KAPPAS) + PARAM_PAIRS + ((Fraction(5, 7), Fraction(1, 3)),)
))

X = sympy.symbols("v1 v2 v3")
KSYM = sympy.Symbol("kappa")


def to_sympy(f, symbols=X):
    expr = sympy.Integer(0)
    for exp, coef in f.terms.items():
        term = sympy.Rational(coef.numerator, coef.denominator)
        for s, e in zip(symbols, exp):
            term *= s**e
        expr += term
    return sympy.expand(expr)


def sympy_dunkl_a(i, f, kappa):
    """Independent oracle: the defining rational expression, cancelled."""
    expr = to_sympy(f)
    out = sympy.diff(expr, X[i - 1])
    for j in range(3):
        if j == i - 1:
            continue
        swapped = expr.subs({X[i - 1]: X[j], X[j]: X[i - 1]}, simultaneous=True)
        out += kappa * sympy.cancel((expr - swapped) / (X[i - 1] - X[j]))
    return sympy.expand(out)


def sympy_dunkl_b(i, f, kappa):
    expr = to_sympy(f)
    out = sympy.diff(expr, X[i - 1])
    for j in range(3):
        if j == i - 1:
            continue
        sig = expr.subs({X[i - 1]: X[j], X[j]: X[i - 1]}, simultaneous=True)
        tau = expr.subs({X[i - 1]: -X[j], X[j]: -X[i - 1]}, simultaneous=True)
        out += kappa * sympy.cancel((expr - sig) / (X[i - 1] - X[j]))
        out += kappa * sympy.cancel((expr - tau) / (X[i - 1] + X[j]))
    return sympy.expand(out)


def clear_memo():
    for name, value in vars(ops).items():
        if name.endswith("_CACHE"):
            value.clear()


def yvar(i):
    return SparsePoly.variable(i - 1, 3, "y3")


def xvar(i, n=3):
    return SparsePoly.variable(i - 1, n, f"x{n}")


# ---------------------------------------------------------------- divided differences


def test_swap_quotient_relational():
    # q = (m - s_alpha m)/<alpha, v>  <=>  q * <alpha, v> = m - s_alpha m, for
    # alpha = v_p - v_q (s = +1), v_p + v_q (s = -1) and v_p (q = None)
    def var(i):
        return SparsePoly.variable(i, 3, "y3")

    for exp in combin.compositions_up_to(5, 3):
        f = SparsePoly.monomial(exp, "y3")
        for p in range(3):
            roots = [(None, 1, var(p), f.sign_change(p + 1))]
            for q in range(3):
                if q == p:
                    continue
                forms = [var(i) for i in range(3)]
                forms[p], forms[q] = -var(q), -var(p)
                roots.append((q, 1, var(p) - var(q), f.swap_variables(p, q)))
                roots.append((q, -1, var(p) + var(q), substitute_linear(f, forms)))
            for q, s, root, reflected in roots:
                quot = SparsePoly(3, "y3", {e: Fraction(c) for e, c in _quotient(exp, p, q, s)})
                assert quot * root == f - reflected, (exp, p, q, s)


# ---------------------------------------------------------------- type A


def test_dunkl_a_examples(ctx_each_kappa):
    ctx = ctx_each_kappa
    k = ctx.kappa
    one = SparsePoly.one(3, "x3")
    assert dunkl_a(1, one, ctx).is_zero()
    assert dunkl_a(1, xvar(1), ctx) == (1 + 2 * k) * one
    assert dunkl_a(1, xvar(2), ctx) == -k * one


def test_dunkl_a_against_sympy(ctx):
    kap = sympy.Rational(ctx.kappa.numerator, ctx.kappa.denominator)
    rng = random.Random(5)
    cases = [SparsePoly.monomial(e, "x3") for e in combin.compositions_up_to(3, 3)]
    for _ in range(3):
        terms = {
            tuple(rng.randint(0, 2) for _ in range(3)): Fraction(rng.randint(-5, 5), rng.randint(1, 5))
            for _ in range(4)
        }
        cases.append(SparsePoly(3, "x3", terms))
    for f in cases:
        for i in (1, 2, 3):
            assert to_sympy(dunkl_a(i, f, ctx)) == sympy_dunkl_a(i, f, kap)


def _one(nvars, frame):
    return SparsePoly.one(nvars, frame)


_CTX = make_context(Fraction(1, 2), Fraction(2), 3)

# Input outside what a frame defines: each raises ValueError, whatever the
# frame facts are read from.
INVALID_FRAME_INPUT = {
    "SparsePoly(3, x03)": lambda: SparsePoly(3, "x03"),
    "SparsePoly(3, y4)": lambda: SparsePoly(3, "y4"),
    "SparsePoly(4, x3)": lambda: SparsePoly(4, "x3"),
    "SparsePoly(1, z)": lambda: SparsePoly(1, "z"),
    "dunkl_a(0, x4)": lambda: dunkl_a(0, _one(4, "x4"), _CTX),
    "dunkl_a(5, x4)": lambda: dunkl_a(5, _one(4, "x4"), _CTX),
    "dunkl_a(1, t)": lambda: dunkl_a(1, _one(1, "t"), _CTX),
    "dunkl_b(1, x3)": lambda: dunkl_b(1, _one(3, "x3"), _CTX),
    "dunkl_b(1, y0)": lambda: dunkl_b(1, _one(1, "y0"), _CTX),
    "dunkl_b(0, y3)": lambda: dunkl_b(0, _one(3, "y3"), _CTX),
    "dunkl_b(4, y3)": lambda: dunkl_b(4, _one(3, "y3"), _CTX),
    "dunkl_b(0, y4)": lambda: dunkl_b(0, _one(4, "y4"), _CTX),
    "cherednik_b(0, y4)": lambda: cherednik_b(0, _one(4, "y4"), _CTX),
    "dunkl_d0(y3)": lambda: dunkl_d0(_one(3, "y3"), _CTX),
    "dunkl_d0(x4)": lambda: dunkl_d0(_one(4, "x4"), _CTX),
    "y3.sign_change(0)": lambda: _one(3, "y3").sign_change(0),
    "y4.sign_change(4)": lambda: _one(4, "y4").sign_change(4),
    "t.sign_change(0)": lambda: _one(1, "t").sign_change(0),
    "laplacian_b(y0)": lambda: laplacian_b(_one(1, "y0"), _CTX),
    "d0_squared(y3)": lambda: d0_squared(_one(3, "y3"), _CTX),
    "laplacian_h(y3)": lambda: laplacian_h(_one(3, "y3"), _CTX),
    "laplacian(Q, y3)": lambda: laplacian("Q", _one(3, "y3"), _CTX),
    "pairing_kappa(y4, y4)": lambda: pairing_kappa(_one(4, "y4"), _one(4, "y4"), _CTX),
    "pairing_kappa(t, t)": lambda: pairing_kappa(_one(1, "t"), _one(1, "t"), _CTX),
    "pairing_kappa(x3, y3)": lambda: pairing_kappa(_one(3, "x3"), _one(3, "y3"), _CTX),
    "pairing_kappa(y3, x3)": lambda: pairing_kappa(_one(3, "y3"), _one(3, "x3"), _CTX),
}


@pytest.mark.parametrize("case", list(INVALID_FRAME_INPUT))
def test_invalid_frame_input_raises(case):
    with pytest.raises(ValueError):
        INVALID_FRAME_INPUT[case]()


def test_dunkl_a_frame_check(ctx):
    with pytest.raises(ValueError):
        dunkl_a(1, SparsePoly.one(3, "y3"), ctx)
    with pytest.raises(ValueError):
        dunkl_a(4, SparsePoly.one(3, "x3"), ctx)


def test_cherednik_a_examples(ctx_each_kappa):
    ctx = ctx_each_kappa
    k = ctx.kappa
    one = SparsePoly.one(3, "x3")
    for i in (1, 2, 3):
        assert cherednik_a(i, one, ctx) == ((3 - i) * k + 1) * one
    assert cherednik_a(1, xvar(2), ctx) == (1 + k) * xvar(2)
    assert cherednik_a(1, xvar(1), ctx) == (2 + 2 * k) * xvar(1) + k * xvar(2) + k * xvar(3)


def test_cherednik_commute_and_triangular(ctx):
    for alpha in combin.compositions_up_to(5, 3):
        f = SparsePoly.monomial(alpha, "x3")
        images = {i: cherednik_a(i, f, ctx) for i in (1, 2, 3)}
        xi = combin.spectral_vector(alpha, ctx)
        for i in (1, 2, 3):
            tail = images[i] - xi[i - 1] * f
            for beta in tail.terms:
                assert dominates(alpha, beta), (alpha, beta)
        for i, j in itertools.combinations((1, 2, 3), 2):
            assert cherednik_a(i, images[j], ctx) == cherednik_a(j, images[i], ctx)


# ---------------------------------------------------------------- type B


def test_dunkl_b_examples(ctx_each_kappa):
    ctx = ctx_each_kappa
    k = ctx.kappa
    one = SparsePoly.one(3, "y3")
    assert dunkl_b(1, yvar(1), ctx) == (1 + 4 * k) * one
    assert dunkl_b(2, yvar(1) ** 2, ctx) == -2 * k * yvar(2)
    assert dunkl_b(1, yvar(1) ** 2, ctx) == (2 + 4 * k) * yvar(1)


def test_dunkl_b_against_sympy(ctx):
    kap = sympy.Rational(ctx.kappa.numerator, ctx.kappa.denominator)
    rng = random.Random(6)
    cases = [SparsePoly.monomial(e, "y3") for e in combin.compositions_up_to(3, 3)]
    for _ in range(3):
        terms = {
            tuple(rng.randint(0, 2) for _ in range(3)): Fraction(rng.randint(-5, 5), rng.randint(1, 5))
            for _ in range(4)
        }
        cases.append(SparsePoly(3, "y3", terms))
    for f in cases:
        for i in (1, 2, 3):
            assert to_sympy(dunkl_b(i, f, ctx)) == sympy_dunkl_b(i, f, kap)


def test_cherednik_b_examples(ctx_each_kappa):
    ctx = ctx_each_kappa
    k = ctx.kappa
    one = SparsePoly.one(3, "y3")
    assert cherednik_b(1, one, ctx) == (1 + 4 * k) * one
    assert cherednik_b(3, one, ctx) == one
    # on y1 y2 y3 the eigenvalues are 2 xi_i(0) = 2((3-i)k + 1)
    yyy = SparsePoly.monomial((1, 1, 1), "y3")
    for i in (1, 2, 3):
        assert cherednik_b(i, yyy, ctx) == 2 * ((3 - i) * k + 1) * yyy


def test_cherednik_b_commute(ctx):
    for alpha in combin.compositions_up_to(5, 3):
        f = SparsePoly.monomial(alpha, "y3")
        images = {i: cherednik_b(i, f, ctx) for i in (1, 2, 3)}
        for i, j in itertools.combinations((1, 2, 3), 2):
            assert cherednik_b(i, images[j], ctx) == cherednik_b(j, images[i], ctx)


def test_sign_changes_vs_dunkl_b(ctx):
    # sigma_i commutes with DB_j for i != j; DB_i itself is odd under sigma_i
    # (conjugation swaps its sigma- and tau-terms with a sign).
    for alpha in combin.compositions_up_to(4, 3):
        f = SparsePoly.monomial(alpha, "y3")
        for i in (1, 2, 3):
            for j in (1, 2, 3):
                lhs = dunkl_b(j, f, ctx).sign_change(i)
                rhs = dunkl_b(j, f.sign_change(i), ctx)
                assert lhs == (rhs if i != j else -rhs)


# The reflection correspondence: the six y-reflections match six x-frame
# transpositions, with y_i - y_j and y_i + y_j equal to the listed x_a - x_b.
SIGMA_X = {(1, 2): (2, 3), (1, 3): (2, 4), (2, 3): (3, 4)}
TAU_X = {(1, 2): (1, 4), (1, 3): (1, 3), (2, 3): (1, 2)}
V = ((1, 1, 1, 1), (1, 1, -1, -1), (1, -1, 1, -1), (1, -1, -1, 1))


def dunkl_b_xframe(i, f, ctx):
    """x-frame realization of DB_i through the reflection correspondence."""
    acc = SparsePoly.zero(4, "x4")
    for j in range(4):
        d = {}
        for exp, c in f.terms.items():
            if exp[j]:
                e = list(exp)
                e[j] -= 1
                key = tuple(e)
                d[key] = d.get(key, Fraction(0)) + c * exp[j] * Fraction(V[i][j], 2)
        acc = acc + SparsePoly(4, "x4", d)
    for j in (1, 2, 3):
        if j == i:
            continue
        lo, hi = min(i, j), max(i, j)
        sign = 1 if i < j else -1  # y_i - y_j flips sign when i > j
        for table, extra in ((SIGMA_X, sign), (TAU_X, 1)):
            a, b = table[(lo, hi)]
            d = {}
            for exp, c in f.terms.items():
                for e2, s in _quotient(exp, a - 1, b - 1, 1):
                    d[e2] = d.get(e2, Fraction(0)) + c * ctx.kappa * s * extra
            acc = acc + SparsePoly(4, "x4", d)
    return acc


def test_dunkl_b_cross_frame(ctx_each_kappa):
    ctx = ctx_each_kappa
    for exp in combin.compositions_up_to(4, 4):
        f = SparsePoly.monomial(exp, "x4")
        fy = to_y(f)
        for i in (1, 2, 3):
            assert to_y(dunkl_b_xframe(i, f, ctx)) == dunkl_b(i, fy, ctx)


def test_cherednik_b_cross_frame(ctx):
    # UB_i in the x frame: DB_i(<v_i, x> f) minus the listed transpositions
    corrections = {1: [], 2: [(1, 4), (2, 3)], 3: [(1, 2), (1, 3), (2, 4), (3, 4)]}
    half = Fraction(1, 2)
    for exp in combin.compositions_up_to(3, 4):
        f = SparsePoly.monomial(exp, "x4")
        for i in (1, 2, 3):
            vi = SparsePoly(4, "x4", {tuple(1 if m == j else 0 for m in range(4)): half * V[i][j] for j in range(4)})
            out = dunkl_b_xframe(i, vi * f, ctx)
            for a, b in corrections[i]:
                out = out - ctx.kappa * f.swap_variables(a - 1, b - 1)
            assert to_y(out) == cherednik_b(i, to_y(f), ctx)


# ---------------------------------------------------------------- y0 direction


def test_dunkl_d0_examples(ctx_each_pair):
    ctx = ctx_each_pair
    kp = ctx.kappa_prime
    one = SparsePoly.one(1, "y0")
    y0 = SparsePoly.variable(0, 1, "y0")
    assert dunkl_d0(one, ctx).is_zero()
    assert dunkl_d0(y0, ctx) == (1 + 2 * kp) * one
    assert dunkl_d0(y0**2, ctx) == 2 * y0
    for n in range(5):
        assert dunkl_d0(y0 ** (2 * n + 2), ctx) == (2 * n + 2) * y0 ** (2 * n + 1)
        assert dunkl_d0(y0 ** (2 * n + 1), ctx) == (2 * n + 1 + 2 * kp) * y0 ** (2 * n)
    with pytest.raises(ValueError):
        dunkl_d0(SparsePoly.one(3, "y3"), ctx)


def test_dunkl_prime_reductions():
    ctx0 = make_context(Fraction(1, 2), 0, 3)
    for exp in combin.compositions_up_to(3, 4):
        f = SparsePoly.monomial(exp, "x4")
        for i in (1, 2, 3, 4):
            assert dunkl_prime(i, f, ctx0) == dunkl_a(i, f, ctx0)
    ctx = make_context(Fraction(1, 2), Fraction(2), 3)
    assert dunkl_prime(1, SparsePoly.one(4, "x4"), ctx).is_zero()


def test_dunkl_prime_is_dunkl_a_plus_the_sign_term(ctx_each_pair):
    """D'_i f = D_i f + S f with S f = (kappa' / (2 y_0)) (f - f sigma_0), one
    S for every i.  In y4, D0 - d/dy_0 = (kappa' / y_0)(1 - sigma_0) = 2 S, and
    d/dy_0 is D0 at kappa' = 0."""
    ctx = ctx_each_pair
    ctx0 = make_context(ctx.kappa, 0, 3)
    for exp in combin.compositions_up_to(3, 4):
        f = SparsePoly.monomial(exp, "x4")
        g = to_y(f)
        sign_term = Fraction(1, 2) * to_x(dunkl_d0(g, ctx) - dunkl_d0(g, ctx0))
        for i in (1, 2, 3, 4):
            assert dunkl_prime(i, f, ctx) == dunkl_a(i, f, ctx) + sign_term


def test_d0_is_half_sum_of_primes(ctx_each_pair):
    ctx = ctx_each_pair
    for exp in combin.compositions_up_to(3, 4):
        f = SparsePoly.monomial(exp, "x4")
        total = SparsePoly.zero(4, "x4")
        for i in (1, 2, 3, 4):
            total = total + dunkl_prime(i, f, ctx)
        assert Fraction(1, 2) * to_y(total) == dunkl_d0(to_y(f), ctx)


# ---------------------------------------------------------------- Laplacians


def test_laplacian_examples(ctx_each_pair):
    ctx = ctx_each_pair
    k, kp = ctx.kappa, ctx.kappa_prime
    assert laplacian_b(SparsePoly.one(3, "y3"), ctx).is_zero()
    assert laplacian_b(yvar(1) ** 2, ctx) == 2 * (1 + 4 * k) * SparsePoly.one(3, "y3")
    y0 = SparsePoly.variable(0, 1, "y0")
    assert d0_squared(y0**2, ctx) == 2 * (1 + 2 * kp) * SparsePoly.one(1, "y0")
    # Delta_h of the x-frame image of y0^2, through the D'_i definition
    y0sq_x = to_x(SparsePoly.monomial((2, 0, 0, 0), "y4"))
    assert laplacian_h(y0sq_x, ctx) == 2 * (1 + 2 * kp) * SparsePoly.one(4, "x4")


def test_laplacian_h_frame_consistency(ctx_each_pair):
    ctx = ctx_each_pair
    for exp in combin.compositions_up_to(3, 4):
        f = SparsePoly.monomial(exp, "x4")
        assert to_y(laplacian_h(f, ctx)) == laplacian_h(to_y(f), ctx)


@pytest.mark.parametrize("kappa, kappa_prime", PARAM_PAIRS + ((Fraction(1, 2), Fraction(0)),))
def test_laplacian_h_matches_eight_dunkl_primes(kappa, kappa_prime):
    """laplacian_h on x4 takes two sign terms, sum_i D_i g_i + S(sum_i g_i)
    with g_i = D_i f + S f; it equals sum_i D'_i D'_i f, eight sign terms, on
    every monomial of degree <= 4 and on x4 images of y4 polynomials with
    terms odd and even in y_0.  At kappa' = 0 the sign term vanishes."""
    ctx = make_context(kappa, kappa_prime, 3)
    inputs = [SparsePoly.monomial(exp, "x4") for exp in combin.compositions_up_to(4, 4)]
    inputs += [to_x(SparsePoly(4, "y4", terms)) for terms in (
        {(2, 1, 0, 0): 1, (0, 0, 2, 0): Fraction(1, 3)},
        {(1, 0, 0, 1): 2, (3, 0, 1, 0): Fraction(-1, 5), (0, 1, 1, 1): 1},
        {(1, 2, 0, 0): Fraction(1, 2), (0, 0, 0, 2): 1, (1, 0, 0, 0): 3, (4, 0, 0, 0): -2},
    )]
    for f in inputs:
        assert laplacian_h(f, ctx) == laplacian_h_by_dunkl_prime(f, ctx)


@pytest.mark.parametrize("kappa_prime, changes", [(Fraction(2), 4), (Fraction(0), 0)])
def test_x4_laplacian_changes_coordinates_four_times(kappa_prime, changes, monkeypatch):
    """laplacian_h on x4 makes four x4 <-> y4 changes, a to_y and a to_x for
    each of S f and S(sum_i g_i); the eight D'_i of the definition would make
    sixteen.  At kappa' = 0 S is zero and makes none."""
    ctx = make_context(Fraction(1, 2), kappa_prime, 3)
    f = to_x(SparsePoly(4, "y4", {(1, 2, 0, 0): 1, (2, 0, 1, 1): Fraction(1, 3)}))
    calls = []
    change = poly._hadamard_change
    monkeypatch.setattr(poly, "_hadamard_change", lambda g, dst: calls.append(dst) or change(g, dst))
    laplacian_h(f, ctx)
    assert calls == ["y4", "x4"] * (changes // 2)


def test_laplacian_dispatch(ctx):
    f = SparsePoly.monomial((2, 0, 0), "y3")
    assert laplacian("B", f, ctx) == laplacian_b(f, ctx)
    y0sq = SparsePoly.monomial((2,), "y0")
    assert laplacian("D0", y0sq, ctx) == d0_squared(y0sq, ctx)
    with pytest.raises(ValueError):
        laplacian("Q", f, ctx)


# ---------------------------------------------------------------- memoized operators
#
# The operators read monomial images from one memo, keyed by (operator, frame,
# nvars) in the parameter group of kappa, with kappa_prime added in y0 and
# y4.  Their compositional definitions are computed cold at each parameter
# pair; the memoized side runs warm across all the pairs, so a key missing a
# parameter shows.


def reflection(f, p, q, s):
    """s_alpha f for alpha = v_p - s v_q, which exchanges v_p and s v_q,
    built from swap_variables and sign_change (0-based positions)."""
    out = f.swap_variables(p, q)
    if s < 0:
        shift = 1 if f.frame == "y3" else 0  # sign_change takes the y index
        out = out.sign_change(p + shift).sign_change(q + shift)
    return out


def cherednik_by_definition(p, f, ctx):
    """U_p f = D_p(v_p f) - kappa * sum of s_alpha f over the roots
    v_p - s v_q with q < p (s = +1 only in x frames)."""
    if f.frame.startswith("x"):
        dunkl, i, lo, signs = dunkl_a, p + 1, 0, (1,)
    else:
        lo = 1 if f.frame == "y4" else 0
        dunkl, i, signs = dunkl_b, p + 1 - lo, (1, -1)
    out = dunkl(i, SparsePoly.variable(p, f.nvars, f.frame) * f, ctx)
    for q in range(lo, p):
        for s in signs:
            out = out - ctx.kappa * reflection(f, p, q, s)
    return out


def laplacian_b_by_definition(f, ctx):
    out = SparsePoly.zero(f.nvars, f.frame)
    for i in (1, 2, 3):
        out = out + dunkl_b(i, dunkl_b(i, f, ctx), ctx)
    return out


def d0_squared_by_definition(f, ctx):
    return dunkl_d0(dunkl_d0(f, ctx), ctx)


def memo_cases():
    """Every monomial of degree <= 4, and seeded sparse polynomials, per frame."""
    rng = random.Random(3141)
    cases = {}
    for frame, nvars in (("x3", 3), ("x4", 4), ("y3", 3), ("y4", 4), ("y0", 1)):
        polys = [SparsePoly.monomial(e, frame) for e in combin.compositions_up_to(4, nvars)]
        for _ in range(6):
            polys.append(SparsePoly(nvars, frame, {
                tuple(rng.randint(0, 3) for _ in range(nvars)):
                    Fraction(rng.randint(-9, 9), rng.randint(1, 7))
                for _ in range(rng.randint(1, 5))
            }))
        cases[frame] = polys
    return cases


def memoized_operator_checks():
    """(name, memoized operator, definition, frame) for every operator on the memo."""
    checks = []
    for frame in ("x3", "x4"):
        for p in range(int(frame[1])):
            checks.append((f"U_{p + 1} {frame}", lambda f, c, p=p: cherednik_a(p + 1, f, c),
                           lambda f, c, p=p: cherednik_by_definition(p, f, c), frame))
    for frame, lo in (("y3", 0), ("y4", 1)):
        for p in range(lo, lo + 3):
            checks.append((f"UB_{p + 1 - lo} {frame}",
                           lambda f, c, p=p, lo=lo: cherednik_b(p + 1 - lo, f, c),
                           lambda f, c, p=p: cherednik_by_definition(p, f, c), frame))
        checks.append((f"Delta_B {frame}", laplacian_b, laplacian_b_by_definition, frame))
    for frame in ("y0", "y4"):
        checks.append((f"D0^2 {frame}", d0_squared, d0_squared_by_definition, frame))
    checks.append(("Delta_h y4", laplacian_h,
                   lambda f, c: laplacian_b_by_definition(f, c) + d0_squared_by_definition(f, c),
                   "y4"))
    return checks


def test_memoized_operators_match_definitions():
    cases = memo_cases()
    checks = memoized_operator_checks()
    expected = {}
    for kappa, kp in PARAM_PAIRS:
        ctx = make_context(kappa, kp, 3)
        clear_memo()
        expected[kappa, kp] = {
            name: [define(f, ctx) for f in cases[frame]] for name, _, define, frame in checks
        }
    clear_memo()
    # the memo stays warm from one parameter pair to the next
    for kappa, kp in PARAM_PAIRS:
        ctx = make_context(kappa, kp, 3)
        for name, apply, _, frame in checks:
            assert [apply(f, ctx) for f in cases[frame]] == expected[kappa, kp][name], name


def test_integer_images_match_fraction_kernel():
    # _apply scales the integer images Q D_p, Q U_p and Q^2 L back once; the
    # Fraction kernel with weights (1, kappa, kappa') is the reference.  nsjp
    # builds zeta_alpha without any eigen-equation, so its zeta_alpha must
    # satisfy every Fraction eigen-equation.
    u_positions = {"x3": range(3), "x4": range(4), "y3": range(3), "y4": range(1, 4), "y0": ()}
    clear_memo()
    # the memo stays warm from one parameter pair to the next
    for kappa, kp in ORACLE_PARAMS:
        ctx = make_context(kappa, kp, 3)
        for frame, nvars in (("x3", 3), ("x4", 4), ("y3", 3), ("y4", 4), ("y0", 1)):
            frame_ops = [("D", p) for p in range(nvars)] + [("U", p) for p in u_positions[frame]]
            names = var_names(frame)
            frame_ops += [("L", tuple(map(names.index, coords)))
                          for coords in ops._LAPLACIAN_COORDINATES.values()
                          if set(coords) <= set(names)]
            for exp in combin.compositions_up_to(5, nvars):
                f = SparsePoly.monomial(exp, frame)
                for op in frame_ops:
                    assert ops._apply(op, f, ctx) == fraction_operator(op, f, ctx), (op, f)
        for alpha in combin.compositions_up_to(4, 3):
            zeta = nsjp(alpha, ctx).poly
            for i, xi in enumerate(oracle_spectral_vector(alpha, ctx)):
                assert fraction_operator(("U", i), zeta, ctx) == xi * zeta, (alpha, i)
    for params, group in ops._MEMO_CACHE.items():
        for key, entry in group.items():
            if isinstance(key[0], tuple):
                assert all(type(c) is int for image in entry.values()
                           for c in image.values()), (params, key)


def test_euler():
    f = SparsePoly(3, "y3", {(2, 1, 0): 1, (0, 0, 0): 7})
    assert euler(f) == SparsePoly(3, "y3", {(2, 1, 0): 3})


SWEEP_SUITES = ("prop1", "prop2", "jack", "eigen", "spectrum", "f1-norm")


def sweep_reports(kappa, kappa_prime, degree=2):
    ctx = make_context(kappa, kappa_prime, 3)
    return [verify.run_suite(suite, ctx, degree).to_json() for suite in SWEEP_SUITES]


def test_memo_drops_the_oldest_group_and_recomputes_it_alike():
    """Each point of the sweep makes two parameter groups, kappa and
    (kappa, kappa'), so ten points make 20 groups: the memo keeps the 16
    newest, and the first point, visited again after its groups were
    dropped, gives the reports it gave from an empty memo."""
    clear_memo()
    points = [(Fraction(p, 7), Fraction(p, 5)) for p in range(1, 11)]
    first = sweep_reports(*points[0])
    for point in points[1:]:
        sweep_reports(*point)
    assert len(ops._MEMO_CACHE) == ops._MEMO_GROUPS == 16
    assert (1, 7) not in ops._MEMO_CACHE and (1, 7, 1, 5) not in ops._MEMO_CACHE
    assert sweep_reports(*points[0]) == first
    assert all(report["ok"] for report in first)


def test_certification_grid_fits_in_the_memo(monkeypatch):
    """prop1, prop2, jack and f1-norm over the 4 x 2 certification grid make
    12 parameter groups, and the memo drops none of them: it ends with the
    operator images and monomial pairings of a memo that never drops one."""

    def grid_memo():
        clear_memo()
        for kappa in KAPPAS:
            for kp in (Fraction(1, 2), Fraction(2)):
                for suite in ("prop1", "prop2", "jack", "f1-norm"):
                    verify.run_suite(suite, make_context(kappa, kp, 3), 3)
        return {(params, key): len(entry)
                for params, group in ops._MEMO_CACHE.items() for key, entry in group.items()}

    bounded = grid_memo()
    monkeypatch.setattr(ops, "_MEMO_GROUPS", 10**6)
    assert bounded == grid_memo()
    assert len(ops._MEMO_CACHE) == 12
    assert {key[1][0] for key in bounded} >= {("D", 0), "pair"}


# ---------------------------------------------------------------- pairings


def test_pairing_kappa_examples(ctx_each_kappa):
    ctx = ctx_each_kappa
    k = ctx.kappa
    one = SparsePoly.one(3, "x3")
    assert pairing_kappa(one, one, ctx) == 1
    assert pairing_kappa(xvar(1), xvar(2), ctx) == -k
    assert pairing_kappa(xvar(1), xvar(1), ctx) == 1 + 2 * k
    assert pairing_kappa(yvar(1), yvar(1), ctx) == 1 + 4 * k


def pairing_kappa_by_strings(f, g, ctx):
    """Reference route: apply the whole Dunkl string D^a to x^b for every pair
    of monomials, then take the constant term."""
    dunkl = dunkl_b if f.frame == "y3" else dunkl_a
    total = Fraction(0)
    for ea, ca in f.terms.items():
        for eb, cb in g.terms.items():
            h = SparsePoly.monomial(eb, g.frame)
            for pos, power in enumerate(ea):
                for _ in range(power):
                    h = dunkl(pos + 1, h, ctx)
            total += ca * cb * h.constant_term()
    return total


def test_pairing_kappa_matches_dunkl_strings_on_monomials(ctx_each_kappa):
    ctx = ctx_each_kappa
    for frame in ("x3", "y3"):
        pairs = [
            (SparsePoly.monomial(a, frame), SparsePoly.monomial(b, frame))
            for d in range(6)
            for a in combin.compositions_of_weight(d, 3)
            for b in combin.compositions_of_weight(d, 3)
        ]
        expected = [pairing_kappa_by_strings(f, g, ctx) for f, g in pairs]
        clear_memo()
        # cold: the highest degree first, so its memo is filled from nothing
        cold = [pairing_kappa(f, g, ctx) for f, g in reversed(pairs)][::-1]
        warm = [pairing_kappa(f, g, ctx) for f, g in pairs]
        assert cold == expected
        assert warm == expected


def test_pairing_kappa_matches_dunkl_strings_on_sparse_polys():
    rng = random.Random(4711)

    def sparse_poly(frame):
        terms = {
            tuple(rng.randint(0, 2) for _ in range(3)):
                Fraction(rng.randint(-9, 9), rng.randint(1, 7))
            for _ in range(rng.randint(1, 5))
        }
        return SparsePoly(3, frame, terms)

    polys = [
        (sparse_poly(frame), sparse_poly(frame)) for frame in ("x3", "y3") for _ in range(30)
    ]
    clear_memo()
    # the caches stay warm from one kappa to the next
    for kappa in KAPPAS:
        ctx = make_context(kappa, 0, 3)
        expected = [pairing_kappa_by_strings(f, g, ctx) for f, g in polys]
        assert [pairing_kappa(f, g, ctx) for f, g in polys] == expected
        assert [pairing_kappa(f, g, ctx) for f, g in polys] == expected


def test_pairing_symmetry_invariance_positivity():
    rng = random.Random(2024)
    perms = list(itertools.permutations(range(3)))
    for kappa in (Fraction(0),) + KAPPAS:
        ctx = make_context(kappa, 0, 3)
        for frame in ("x3", "y3"):
            for _ in range(4):
                terms = {
                    tuple(rng.randint(0, 2) for _ in range(3)): Fraction(
                        rng.randint(-6, 6), rng.randint(1, 6)
                    )
                    for _ in range(4)
                }
                f = SparsePoly(3, frame, terms)
                g = SparsePoly(
                    3,
                    frame,
                    {
                        tuple(rng.randint(0, 2) for _ in range(3)): Fraction(rng.randint(-6, 6))
                        for _ in range(3)
                    },
                )
                assert pairing_kappa(f, g, ctx) == pairing_kappa(g, f, ctx)
                if not f.is_zero():
                    assert pairing_kappa(f, f, ctx) > 0
                if frame == "x3":
                    for w in perms:
                        assert pairing_kappa(
                            f.apply_permutation(w), g.apply_permutation(w), ctx
                        ) == pairing_kappa(f, g, ctx)


def test_cherednik_self_adjoint(ctx):
    monos4 = list(combin.compositions_up_to(4, 3))
    for a in monos4:
        for b in monos4:
            if sum(a) != sum(b):
                continue
            fa = SparsePoly.monomial(a, "x3")
            fb = SparsePoly.monomial(b, "x3")
            for i in (1, 2, 3):
                assert pairing_kappa(cherednik_a(i, fa, ctx), fb, ctx) == pairing_kappa(
                    fa, cherednik_a(i, fb, ctx), ctx
                )
            ga = SparsePoly.monomial(a, "y3")
            gb = SparsePoly.monomial(b, "y3")
            for i in (1, 2, 3):
                assert pairing_kappa(cherednik_b(i, ga, ctx), gb, ctx) == pairing_kappa(
                    ga, cherednik_b(i, gb, ctx), ctx
                )


def test_pairing_frame_checks(ctx):
    with pytest.raises(ValueError):
        pairing_kappa(SparsePoly.one(3, "x3"), SparsePoly.one(3, "y3"), ctx)
    with pytest.raises(ValueError):
        pairing_kappa(SparsePoly.one(4, "y4"), SparsePoly.one(4, "y4"), ctx)
    with pytest.raises(ValueError):
        pairing_extended(SparsePoly.one(3, "y3"), SparsePoly.one(3, "y3"), ctx)


def test_pairing_extended_y0_examples(ctx_each_pair):
    ctx = ctx_each_pair
    kp = ctx.kappa_prime
    y0 = SparsePoly.monomial((1, 0, 0, 0), "y4")
    y1 = SparsePoly.monomial((0, 1, 0, 0), "y4")
    assert pairing_extended(y0, y0, ctx) == 1 + 2 * kp
    assert pairing_extended(y0 * y0, y0 * y0, ctx) == 2 * (2 * kp + 1)
    assert pairing_extended(y0, y1, ctx) == 0


def pairing_extended_direct(f, g, ctx):
    """Definition-route oracle: f(D'_1, ..., D'_4) g at the origin."""
    total = Fraction(0)
    for exp, c in f.terms.items():
        h = g
        for pos, e in enumerate(exp):
            for _ in range(e):
                if h.is_zero():
                    break
                h = dunkl_prime(pos + 1, h, ctx)
        total += c * h.constant_term()
    return total


def test_pairing_extended_matches_direct_definition():
    rng = random.Random(99)
    for kappa, kp in PARAM_PAIRS:
        ctx = make_context(kappa, kp, 3)
        for _ in range(4):
            terms_f = {
                tuple(rng.randint(0, 1) for _ in range(4)): Fraction(rng.randint(-4, 4))
                for _ in range(3)
            }
            terms_g = {
                tuple(rng.randint(0, 1) for _ in range(4)): Fraction(rng.randint(-4, 4))
                for _ in range(3)
            }
            f = SparsePoly(4, "x4", terms_f)
            g = SparsePoly(4, "x4", terms_g)
            assert pairing_extended(f, g, ctx) == pairing_extended_direct(f, g, ctx)
        # and on a pair with higher y0 content
        f = to_x(SparsePoly(4, "y4", {(2, 1, 0, 0): 1, (0, 0, 2, 0): Fraction(1, 3)}))
        g = to_x(SparsePoly(4, "y4", {(2, 1, 0, 0): Fraction(2), (1, 0, 0, 1): 1}))
        assert pairing_extended(f, g, ctx) == pairing_extended_direct(f, g, ctx)


def pairing_extended_by_split(f, g, ctx):
    """Reference route: the tensor split over y_0 and (y_1, y_2, y_3),
    <y_0^a f_a, y_0^b g_b> = (D0^a y_0^b at 0) * <f_a, g_b>_kappa."""
    total = Fraction(0)
    for a, fa in split_y0(f).items():
        for b, gb in split_y0(g).items():
            h = SparsePoly.monomial((b,), "y0")
            for _ in range(a):
                h = dunkl_d0(h, ctx)
            factor = h.constant_term()
            if factor:
                total += factor * pairing_kappa(fa, gb, ctx)
    return total


def test_pairing_extended_matches_tensor_split():
    rng = random.Random(8128)

    def exponent(degree):
        # y0 degree up to 4, the rest spread over y1..y3
        e = [rng.randint(0, min(4, degree)), 0, 0, 0]
        for _ in range(degree - e[0]):
            e[rng.randint(1, 3)] += 1
        return tuple(e)

    def coef():
        return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 7))

    pairs = []
    for _ in range(40):
        degrees = [rng.randint(0, 6) for _ in range(rng.randint(1, 4))]
        f = SparsePoly(4, "y4", {exponent(d): coef() for d in degrees})
        # g shares f's total degrees, with its own y0 degrees: some pairs of
        # terms agree in y0 degree, some differ
        g = SparsePoly(4, "y4", {exponent(d): coef() for d in degrees + [rng.randint(0, 6)]})
        pairs.append((f, g))
    clear_memo()
    # the caches stay warm from one parameter pair to the next
    for kappa, kp in PARAM_PAIRS:
        ctx = make_context(kappa, kp, 3)
        expected = [pairing_extended_by_split(f, g, ctx) for f, g in pairs]
        assert sum(1 for v in expected if v) >= 20
        assert [pairing_extended(f, g, ctx) for f, g in pairs] == expected
        assert [pairing_extended(g, f, ctx) for f, g in pairs] == expected


def oracle_cases(rng, nvars, frame, count, max_degree):
    """Seeded (f, g) pairs, not homogeneous: g shares f's total degrees,
    spread its own way over the variables, plus one degree of its own."""

    def exponent(degree):
        e = [0] * nvars
        for _ in range(degree):
            e[rng.randrange(nvars)] += 1
        return tuple(e)

    def coef():
        return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 7))

    cases = []
    for _ in range(count):
        degrees = [rng.randint(0, max_degree) for _ in range(rng.randint(1, 4))]
        f = SparsePoly(nvars, frame, {exponent(d): coef() for d in degrees})
        extra = [rng.randint(0, max_degree)]
        g = SparsePoly(nvars, frame, {exponent(d): coef() for d in degrees * 2 + extra})
        cases.append((f, g))
    return cases


def test_integer_pairing_matches_fraction_oracle():
    rng = random.Random(1729)
    cases = {
        "x3": oracle_cases(rng, 3, "x3", 25, 5),
        "y3": oracle_cases(rng, 3, "y3", 25, 5),
        "y4": oracle_cases(rng, 4, "y4", 25, 4),
    }
    expected = {}
    for kappa, kp in ORACLE_PARAMS:
        ctx = make_context(kappa, kp, 3)
        clear_memo()
        expected[kappa, kp] = {
            frame: [pairing_by_fractions(f, g, ctx) for f, g in pairs]
            for frame, pairs in cases.items()
        }
        for values in expected[kappa, kp].values():
            assert sum(1 for v in values if v) >= 12
    clear_memo()
    # the memo stays warm from one parameter pair to the next
    for kappa, kp in ORACLE_PARAMS:
        ctx = make_context(kappa, kp, 3)
        want = expected[kappa, kp]
        for frame in ("x3", "y3"):
            assert [pairing_kappa(f, g, ctx) for f, g in cases[frame]] == want[frame]
            assert [pairing_kappa(g, f, ctx) for f, g in cases[frame]] == want[frame]
        y4 = cases["y4"]
        assert [pairing_extended(f, g, ctx) for f, g in y4] == want["y4"]
        assert [pairing_extended(g, f, ctx) for f, g in y4] == want["y4"]
        assert [pairing_extended(to_x(f), g, ctx) for f, g in y4] == want["y4"]
        assert [pairing_extended(to_x(g), to_x(f), ctx) for f, g in y4] == want["y4"]


@pytest.mark.parametrize("suite", ("prop1", "prop2"))
def test_dual_route_matches_per_pair_pairings(suite):
    for kappa, kp in ((Fraction(1, 2), Fraction(2)), (Fraction(5, 7), Fraction(1, 3))):
        ctx = make_context(kappa, kp, 3)
        if suite == "prop1":
            polys = [nsjp(alpha, ctx).poly for alpha in combin.compositions_up_to(3, 3)]
            pairing = pairing_kappa
        else:
            polys = [basis_poly4(label, ctx) for label in verify.basis_labels_up_to(3)]
            pairing = pairing_extended
        # orthogonal families pair to 0 off the diagonal; mixtures of
        # elements of different degrees do not
        polys += [Fraction(2, 3) * polys[i] + polys[-1 - i] for i in range(1, 6)]
        got = list(upper_pairings(polys, ctx))
        n = len(polys)
        assert [(i, j) for i, j, _ in got] == [(i, j) for i in range(n) for j in range(i, n)]
        values = [v for _, _, v in got]
        assert values == [pairing(polys[i], polys[j], ctx) for i, j, _ in got]
        assert values == [pairing_by_fractions(polys[i], polys[j], ctx) for i, j, _ in got]
        assert sum(1 for i, j, v in got if v and i != j) >= 10


@pytest.mark.parametrize("kappa, kappa_prime", [(Fraction(1, 2), Fraction(2)),
                                                (Fraction(5, 7), Fraction(1, 3))])
def test_pairing_with_itself_takes_one_dual_vector(kappa, kappa_prime, monkeypatch):
    """pairing_kappa(f, f) and pairing_extended(f, f) build one dual vector
    and take at most one to_y, and equal the pairing of f with an equal but
    distinct copy: the degree <= 3 Jack polynomials in x3, the basis in y3,
    and the four-variable basis in y4 and in x4."""
    ctx = make_context(kappa, kappa_prime, 3)
    gammas = list(combin.compositions_up_to(3, 3))
    basis = [basis_poly4(label, ctx) for label in verify.basis_labels_up_to(3)]
    cases = [(pairing_kappa, [nsjp(a, ctx).poly for a in gammas]),
             (pairing_kappa, [basis_poly(g, ctx) for g in gammas]),
             (pairing_extended, basis + [to_x(f) for f in basis])]
    calls = {"Dual": 0, "to_y": 0}

    class CountedDual(ops.Dual):
        def __init__(self, g, ctx):
            calls["Dual"] += 1
            super().__init__(g, ctx)

    def counted_to_y(f):
        calls["to_y"] += 1
        return to_y(f)

    monkeypatch.setattr(ops, "Dual", CountedDual)
    monkeypatch.setattr(ops, "to_y", counted_to_y)
    for pairing, polys in cases:
        for f in polys:
            copy = SparsePoly(f.nvars, f.frame, dict(f.terms))
            calls.update(Dual=0, to_y=0)
            diagonal = pairing(f, f, ctx)
            assert calls == {"Dual": 1, "to_y": int(f.frame == "x4")}
            assert diagonal == pairing(f, copy, ctx)
            assert calls == {"Dual": 3, "to_y": 3 * int(f.frame == "x4")}


def test_parity_separation(ctx):
    # <y_E f(y^2), y_E' g(y^2)> = 0 whenever E != E'
    subsets = [(), (1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3)]
    rng = random.Random(17)

    def y_e(subset):
        return SparsePoly.monomial(tuple(1 if i + 1 in subset else 0 for i in range(3)), "y3")

    sq = [
        SparsePoly(3, "y3", {tuple(2 * rng.randint(0, 1) for _ in range(3)): Fraction(rng.randint(1, 5))
                             for _ in range(2)})
        for _ in range(4)
    ]
    for ea, eb in itertools.combinations(subsets, 2):
        f = y_e(ea) * sq[rng.randrange(4)]
        g = y_e(eb) * sq[rng.randrange(4)]
        assert pairing_kappa(f, g, ctx) == 0
