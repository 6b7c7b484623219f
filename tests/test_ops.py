import itertools
import random
from fractions import Fraction

import pytest
import sympy

from jack4 import combin, ops
from jack4.exact import make_context
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
from jack4.poly import SparsePoly, split_y0, substitute_linear, to_x, to_y

KAPPAS = (Fraction(1, 2), Fraction(1), Fraction(3), Fraction(5, 7))
PARAM_PAIRS = tuple(
    (k, kp) for k in (Fraction(1, 2), Fraction(1)) for kp in (Fraction(1, 2), Fraction(2))
)

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
                assert combin.dominates(alpha, beta), (alpha, beta)
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


def test_laplacian_dispatch(ctx):
    f = SparsePoly.monomial((2, 0, 0), "y3")
    assert laplacian("B", f, ctx) == laplacian_b(f, ctx)
    y0sq = SparsePoly.monomial((2,), "y0")
    assert laplacian("D0", y0sq, ctx) == d0_squared(y0sq, ctx)
    with pytest.raises(ValueError):
        laplacian("Q", f, ctx)


def test_euler():
    f = SparsePoly(3, "y3", {(2, 1, 0): 1, (0, 0, 0): 7})
    assert euler(f) == SparsePoly(3, "y3", {(2, 1, 0): 3})


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


def clear_pairing_caches():
    for name, value in vars(ops).items():
        if name.endswith("_CACHE"):
            value.clear()


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
        clear_pairing_caches()
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
    clear_pairing_caches()
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
    clear_pairing_caches()
    # the caches stay warm from one parameter pair to the next
    for kappa, kp in PARAM_PAIRS:
        ctx = make_context(kappa, kp, 3)
        expected = [pairing_extended_by_split(f, g, ctx) for f, g in pairs]
        assert sum(1 for v in expected if v) >= 20
        assert [pairing_extended(f, g, ctx) for f, g in pairs] == expected
        assert [pairing_extended(g, f, ctx) for f, g in pairs] == expected


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
