import itertools
import json
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from jack4 import combin
from jack4.ops import dunkl_a, dunkl_prime
from jack4.poly import (
    SparsePoly,
    _hadamard_forms,
    embed_y0,
    embed_y3,
    poly_from_json,
    poly_to_json,
    split_y0,
    substitute_linear,
    substitute_squares,
    to_x,
    to_y,
)


def xvar(i, nvars=3):
    return SparsePoly.variable(i, nvars, f"x{nvars}")


def test_refuses_float_coefficients():
    with pytest.raises(ValueError, match="float"):
        SparsePoly(3, "y3", {(1, 0, 0): 0.1})
    with pytest.raises(ValueError, match="float"):
        SparsePoly.constant(0.5, 3, "y3")
    with pytest.raises(ValueError, match="float"):
        SparsePoly.monomial((1, 0, 0), "y3", 2.0)
    f = SparsePoly(3, "y3", {(1, 0, 0): 3, (0, 1, 0): Fraction(1, 3), (0, 0, 1): "0.1"})
    assert f.terms == {(1, 0, 0): 3, (0, 1, 0): Fraction(1, 3), (0, 0, 1): Fraction(1, 10)}
    assert all(type(c) is Fraction for c in f.terms.values())


def random_poly(rng, nvars=3, frame="x3", max_deg=3, terms=4):
    out = {}
    for _ in range(terms):
        exp = tuple(rng.randint(0, max_deg) for _ in range(nvars))
        out[exp] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return SparsePoly(nvars, frame, out)


def to_sympy(f, symbols):
    expr = sympy.Integer(0)
    for exp, coef in f.terms.items():
        term = sympy.Rational(coef.numerator, coef.denominator)
        for s, e in zip(symbols, exp):
            term *= s**e
        expr += term
    return sympy.expand(expr)


# ---------------------------------------------------------------- construction


def test_zero_pruning_and_ordering():
    f = SparsePoly(3, "x3", {(1, 0, 0): 1, (0, 1, 0): 0, (0, 0, 0): 2})
    assert (0, 1, 0) not in f.terms
    keys = list(f.terms)
    assert keys == sorted(keys, key=combin.canonical_key, reverse=True)


def test_bad_inputs():
    with pytest.raises(ValueError):
        SparsePoly(3, "x4", {(1, 0, 0): 1})
    with pytest.raises(ValueError):
        SparsePoly(3, "x3", {(1, 0): 1})
    with pytest.raises(ValueError):
        SparsePoly(3, "x3", {(-1, 0, 0): 1})
    with pytest.raises(ValueError):
        SparsePoly(3, "nope", {})


def test_frame_mismatch_rejected():
    f = SparsePoly.one(3, "x3")
    g = SparsePoly.one(3, "y3")
    with pytest.raises(ValueError):
        f + g
    with pytest.raises(ValueError):
        f * g


# ---------------------------------------------------------------- ring ops


def test_ring_examples():
    x1, x2 = xvar(0), xvar(1)
    f = x1 + x2
    assert f + SparsePoly.zero(3, "x3") == f
    assert (x1 - x2) * (x1 + x2) == x1 * x1 - x2 * x2
    assert Fraction(1, 2) * (2 * x1) == x1
    assert (x1 + 1) - 1 == x1
    assert x1**3 == x1 * x1 * x1
    assert x1**0 == SparsePoly.one(3, "x3")


def test_ring_against_sympy():
    rng = random.Random(7)
    symbols = sympy.symbols("x1 x2 x3")
    for _ in range(8):
        f = random_poly(rng)
        g = random_poly(rng)
        assert to_sympy(f * g, symbols) == sympy.expand(to_sympy(f, symbols) * to_sympy(g, symbols))
        assert to_sympy(f + g, symbols) == to_sympy(f, symbols) + to_sympy(g, symbols)
        assert to_sympy(f - g, symbols) == to_sympy(f, symbols) - to_sympy(g, symbols)


@st.composite
def polys(draw, nvars=3, frame="x3"):
    n_terms = draw(st.integers(0, 5))
    terms = {}
    for _ in range(n_terms):
        exp = tuple(draw(st.integers(0, 3)) for _ in range(nvars))
        terms[exp] = draw(st.fractions(max_denominator=20))
    return SparsePoly(nvars, frame, terms)


@given(polys(), polys(), st.lists(st.fractions(max_denominator=10), min_size=3, max_size=3))
@settings(max_examples=60, deadline=None)
def test_evaluate_is_ring_homomorphism(f, g, point):
    assert (f + g).evaluate(point) == f.evaluate(point) + g.evaluate(point)
    assert (f * g).evaluate(point) == f.evaluate(point) * g.evaluate(point)


def test_evaluate_examples():
    assert SparsePoly.constant(5, 3, "x3").evaluate((9, 9, 9)) == 5
    x1x2 = SparsePoly.monomial((1, 1, 0), "x3")
    assert x1x2.evaluate((2, 3, 100)) == 6


# ---------------------------------------------------------------- group actions


def test_permutation_examples():
    f = SparsePoly.monomial((3, 1, 0), "x3")
    ident = (0, 1, 2)
    assert f.apply_permutation(ident) == f
    swap12 = (1, 0, 2)
    assert xvar(0).apply_permutation(swap12) == xvar(1)
    w = (1, 2, 0)  # w(1)=2, w(2)=3, w(3)=1
    assert f.apply_permutation(w) == SparsePoly.monomial((0, 3, 1), "x3")


def test_permutation_group_action():
    perms3 = list(itertools.permutations(range(3)))
    monos = [SparsePoly.monomial(e, "x3") for e in combin.compositions_up_to(3, 3)]
    for w1 in perms3:
        for w2 in perms3:
            comp = combin.compose_permutations(w1, w2)
            for f in monos:
                assert f.apply_permutation(w2).apply_permutation(w1) == f.apply_permutation(comp)
    perms4 = [(1, 0, 2, 3), (0, 2, 1, 3), (0, 1, 3, 2), (1, 2, 3, 0)]
    monos4 = [SparsePoly.monomial(e, "x4") for e in combin.compositions_up_to(3, 4)]
    for w1 in perms4:
        for w2 in perms4:
            comp = combin.compose_permutations(w1, w2)
            for f in monos4:
                assert f.apply_permutation(w2).apply_permutation(w1) == f.apply_permutation(comp)


def test_sign_change_y_frames():
    y1y2 = SparsePoly.monomial((1, 1, 0), "y3")
    assert y1y2.sign_change(1) == -y1y2
    assert y1y2.sign_change(3) == y1y2
    y0sq = SparsePoly.monomial((2,), "y0")
    assert y0sq.sign_change(0) == y0sq
    f = SparsePoly.monomial((1, 0, 0, 1), "y4")
    assert f.sign_change(0) == -f
    with pytest.raises(ValueError):
        SparsePoly.one(3, "y3").sign_change(0)


def test_sign_change_x_frame_affine():
    x1 = SparsePoly.variable(0, 4, "x4")
    total = sum(SparsePoly.variable(i, 4, "x4") for i in range(4))
    assert x1.sign_change(0) == x1 - Fraction(1, 2) * total
    # involution, and consistent with negating y0 through the coordinate change
    for exp in combin.compositions_up_to(3, 4):
        f = SparsePoly.monomial(exp, "x4")
        assert f.sign_change(0).sign_change(0) == f
        assert to_y(f.sign_change(0)) == to_y(f).sign_change(0)


# ---------------------------------------------------------------- coordinate change


def test_to_y_examples():
    total = sum(SparsePoly.variable(i, 4, "x4") for i in range(4))
    y0 = SparsePoly.monomial((1, 0, 0, 0), "y4")
    assert to_y(total) == 2 * y0
    norm_x = sum(SparsePoly.variable(i, 4, "x4") ** 2 for i in range(4))
    norm_y = SparsePoly(4, "y4", {tuple(2 if j == i else 0 for j in range(4)): 1 for i in range(4)})
    assert to_y(norm_x) == norm_y


def test_xy_point_correspondence():
    # x = (2,0,0,0) corresponds to y = (1,1,1,1)
    rng = random.Random(3)
    for _ in range(5):
        f = random_poly(rng, nvars=4, frame="x4", max_deg=2, terms=4)
        assert f.evaluate((2, 0, 0, 0)) == to_y(f).evaluate((1, 1, 1, 1))


def test_to_y_roundtrip():
    rng = random.Random(11)
    for _ in range(6):
        f = random_poly(rng, nvars=4, frame="x4", max_deg=3, terms=5)
        assert to_x(to_y(f)) == f
    g = SparsePoly.monomial((0, 2, 1, 0), "y4", Fraction(3, 7))
    assert to_y(to_x(g)) == g


def random_poly4(rng, frame, max_deg=6, terms=6):
    """Sparse, generally non-homogeneous, total degree <= max_deg."""
    out = {}
    for _ in range(rng.randint(0, terms)):
        d = rng.randint(0, max_deg)
        cuts = sorted(rng.randint(0, d) for _ in range(3))
        exp = (cuts[0], cuts[1] - cuts[0], cuts[2] - cuts[1], d - cuts[2])
        out[exp] = Fraction(rng.randint(-30, 30), rng.randint(1, 40))
    return SparsePoly(4, frame, out)


def oracle_sign_change_x4(f):
    """sigma_0 in x4 as the affine substitution x_j -> x_j - (x_1 + ... + x_4)/2."""
    forms = [
        SparsePoly(4, "x4", {tuple(int(v == m) for v in range(4)): int(m == j) - Fraction(1, 2)
                             for m in range(4)})
        for j in range(4)
    ]
    return substitute_linear(f, forms)


def oracle_dunkl_prime(i, f, ctx):
    """D'_i through sign_change(0), to_y and to_x, all by linear substitution."""
    out = dunkl_a(i, f, ctx)
    if ctx.kappa_prime:
        diff = substitute_linear(f - oracle_sign_change_x4(f), _hadamard_forms("x4", "y4"))
        acc = {}
        for exp, c in diff.terms.items():
            assert exp[0] % 2 == 1
            acc[(exp[0] - 1,) + exp[1:]] = c * ctx.kappa_prime / 2
        out = out + substitute_linear(SparsePoly(4, "y4", acc), _hadamard_forms("y4", "x4"))
    return out


def test_butterfly_matches_substitution():
    rng = random.Random(20081201)
    for _ in range(40):
        for frame, fast, dst in (("x4", to_y, "y4"), ("y4", to_x, "x4")):
            f = random_poly4(rng, frame)
            expected = substitute_linear(f, _hadamard_forms(frame, dst))
            got = fast(f)
            assert got == expected
            assert list(got.terms) == list(expected.terms)


def test_x4_sign_change_matches_affine_substitution():
    rng = random.Random(20081202)
    for _ in range(30):
        f = random_poly4(rng, "x4")
        expected = oracle_sign_change_x4(f)
        got = f.sign_change(0)
        assert got == expected
        assert list(got.terms) == list(expected.terms)


def test_dunkl_prime_matches_substitution_route(ctx_each_pair):
    rng = random.Random(20081203)
    for _ in range(6):
        f = random_poly4(rng, "x4", max_deg=4, terms=4)
        for i in (1, 2, 3, 4):
            got = dunkl_prime(i, f, ctx_each_pair)
            expected = oracle_dunkl_prime(i, f, ctx_each_pair)
            assert got == expected
            assert list(got.terms) == list(expected.terms)


def test_substitute_squares():
    assert substitute_squares(SparsePoly.one(3, "x3")) == SparsePoly.one(3, "y3")
    z1z2 = SparsePoly.monomial((1, 1, 0), "x3")
    assert substitute_squares(z1z2) == SparsePoly.monomial((2, 2, 0), "y3")


def test_substitute_linear_shape_check():
    f = SparsePoly.one(3, "x3")
    with pytest.raises(ValueError):
        substitute_linear(f, [SparsePoly.one(3, "y3")] * 2)


# ---------------------------------------------------------------- y0 split / embed


def test_split_and_embed():
    f = SparsePoly(4, "y4", {(2, 1, 0, 0): 3, (0, 0, 1, 1): Fraction(1, 2), (2, 0, 0, 0): 1})
    parts = split_y0(f)
    assert set(parts) == {0, 2}
    rebuilt = sum(embed_y3(p, y0_power=k) for k, p in parts.items())
    assert rebuilt == f
    y0cube = SparsePoly.monomial((3,), "y0")
    assert embed_y0(y0cube) == SparsePoly.monomial((3, 0, 0, 0), "y4")


# ---------------------------------------------------------------- serialization


def test_json_schema_shape():
    f = SparsePoly(3, "y3", {(2, 0, 0): Fraction(1, 3), (0, 1, 1): -2})
    data = poly_to_json(f)
    assert data["nvars"] == 3 and data["frame"] == "y3"
    assert data["terms"][0] == {"exp": [2, 0, 0], "coef": "1/3"}
    assert json.loads(json.dumps(data)) == data


@given(polys())
@settings(max_examples=60, deadline=None)
def test_json_roundtrip(f):
    assert poly_from_json(json.loads(json.dumps(poly_to_json(f)))) == f


def test_repr_readable():
    f = SparsePoly(3, "x3", {(1, 0, 0): 1, (0, 0, 0): Fraction(-1, 2)})
    assert repr(f) == "x1 - 1/2"
    assert repr(SparsePoly.zero(3, "y3")) == "0"
