import itertools
import json
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from jack4 import combin
from jack4.cli import _poly_csv_rows
from jack4.jack import nsjp, symmetric_jack
from jack4.measure import _compile
from jack4.ops import (
    cherednik_a,
    cherednik_b,
    d0_squared,
    dunkl_a,
    dunkl_b,
    dunkl_d0,
    dunkl_prime,
    euler,
    laplacian_b,
    laplacian_h,
)
from jack4.poly import (
    SparsePoly,
    embed_y0,
    embed_y3,
    poly_from_json,
    poly_to_json,
    substitute_linear,
    substitute_squares,
    to_x,
    to_y,
    x_frame,
)
from oracles import compose_permutations, hadamard_forms, split_y0


def xvar(i, nvars=3):
    return SparsePoly.variable(i, nvars, f"x{nvars}")


@pytest.mark.parametrize("bad", (1.5, 2.9, Fraction(3, 2), -1))
def test_refuses_non_integer_and_negative_exponents(bad):
    """An exponent such as 1.5 or 2.9 is refused, where it was once truncated
    to 1 or 2; a plain int is taken as it is."""
    for make in (lambda e: SparsePoly.monomial((e, 0, 0), "x3"),
                 lambda e: SparsePoly(3, "x3", {(e, 0, 0): 1})):
        with pytest.raises(ValueError, match=r"part .* of .* is (negative|not an integer)"):
            make(bad)
        assert make(2).terms == {(2, 0, 0): 1}
        assert type(next(iter(make(2).terms))[0]) is int


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
    # scalar ring ops take the same check
    for op in (
        lambda: f * 0.1,
        lambda: 0.1 * f,
        lambda: f - 0.1,
        lambda: 0.1 - f,
        lambda: f + 0.1,
        lambda: 0.1 + f,
        lambda: f * 0.0,
    ):
        with pytest.raises(ValueError, match="float"):
            op()
    assert (f * "0.1").terms == {e: c / 10 for e, c in f.terms.items()}
    assert (f - "0.1").constant_term() == Fraction(-1, 10)


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
    # inserted in ascending canonical order, the reverse of the output order
    f = SparsePoly(3, "x3", {(0, 0, 0): 2, (0, 1, 0): 0, (1, 0, 0): 1, (0, 1, 1): 3})
    assert (0, 1, 0) not in f.terms
    keys = [exp for exp, _ in f.ordered_terms()]
    assert keys == sorted(f.terms, key=combin.canonical_key, reverse=True)
    assert keys == [(0, 1, 1), (1, 0, 0), (0, 0, 0)]
    assert [tuple(t["exp"]) for t in poly_to_json(f)["terms"]] == keys
    assert repr(f) == "3*x2*x3 + x1 + 2"


def outputs(f):
    """Everything of f whose bytes can depend on term order: the terms
    mc-check sums in order, the JSON and CSV forms, repr and hash."""
    return (repr(_compile(f)), json.dumps(poly_to_json(f)),
            repr(_poly_csv_rows(f)), repr(f), hash(f))


def test_insertion_order_changes_no_output():
    rng = random.Random(5)
    for frame, nvars in (("x4", 4), ("y4", 4), ("y3", 3)):
        items = list(random_poly(rng, nvars, frame, max_deg=4, terms=8).terms.items())
        orders = [items, items[::-1]] + [rng.sample(items, len(items)) for _ in range(3)]
        built = [SparsePoly(nvars, frame, order) for order in orders]
        assert len({tuple(f.terms) for f in built}) > 1  # the orders do differ
        assert len({outputs(f) for f in built}) == 1


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
    x = SparsePoly.monomial((1,), "t")
    assert x.evaluate(["0.1"]) == Fraction(1, 10)
    with pytest.raises(ValueError, match="float"):
        x.evaluate([0.1])


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
            comp = compose_permutations(w1, w2)
            for f in monos:
                assert f.apply_permutation(w2).apply_permutation(w1) == f.apply_permutation(comp)
    perms4 = [(1, 0, 2, 3), (0, 2, 1, 3), (0, 1, 3, 2), (1, 2, 3, 0)]
    monos4 = [SparsePoly.monomial(e, "x4") for e in combin.compositions_up_to(3, 4)]
    for w1 in perms4:
        for w2 in perms4:
            comp = compose_permutations(w1, w2)
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
        diff = substitute_linear(f - oracle_sign_change_x4(f), hadamard_forms("x4", "y4"))
        acc = {}
        for exp, c in diff.terms.items():
            assert exp[0] % 2 == 1
            acc[(exp[0] - 1,) + exp[1:]] = c * ctx.kappa_prime / 2
        out = out + substitute_linear(SparsePoly(4, "y4", acc), hadamard_forms("y4", "x4"))
    return out


def test_butterfly_matches_substitution():
    rng = random.Random(20081201)
    for _ in range(40):
        for frame, fast, dst in (("x4", to_y, "y4"), ("y4", to_x, "x4")):
            f = random_poly4(rng, frame)
            expected = substitute_linear(f, hadamard_forms(frame, dst))
            got = fast(f)
            assert got == expected
            assert outputs(got) == outputs(expected)


def test_x4_sign_change_matches_affine_substitution():
    rng = random.Random(20081202)
    for _ in range(30):
        f = random_poly4(rng, "x4")
        expected = oracle_sign_change_x4(f)
        got = f.sign_change(0)
        assert got == expected
        assert outputs(got) == outputs(expected)


def test_dunkl_prime_matches_substitution_route(ctx_each_pair):
    rng = random.Random(20081203)
    for _ in range(6):
        f = random_poly4(rng, "x4", max_deg=4, terms=4)
        for i in (1, 2, 3, 4):
            got = dunkl_prime(i, f, ctx_each_pair)
            expected = oracle_dunkl_prime(i, f, ctx_each_pair)
            assert got == expected
            assert outputs(got) == outputs(expected)


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


def _json_of(nvars=3, terms=({"exp": [1, 0, 0], "coef": "1/2"},)):
    return {"nvars": nvars, "frame": x_frame(len(terms[0]["exp"])), "terms": list(terms)}


@pytest.mark.parametrize("nvars, exp", ((3.9, [1, 0, 0]), (True, [1])), ids=("3.9", "True"))
def test_json_refuses_an_nvars_that_is_not_an_int(nvars, exp):
    """3.9 was truncated to 3, and True taken as 1."""
    with pytest.raises(ValueError, match="nvars must be an int"):
        poly_from_json(_json_of(nvars, [{"exp": exp, "coef": "1/2"}]))


def test_json_refuses_an_exponent_given_twice():
    """1/2 + 1/2 on one exponent read as 1/2: the later term replaced the earlier."""
    term = {"exp": [1, 0, 0], "coef": "1/2"}
    with pytest.raises(ValueError, match="exp"):
        poly_from_json(_json_of(terms=(term, term)))


def test_json_refuses_a_float_coefficient():
    """A float coef crashed with AttributeError instead of a ValueError."""
    with pytest.raises(ValueError, match="coef"):
        poly_from_json(_json_of(terms=({"exp": [1, 0, 0], "coef": 0.5},)))


def test_repr_readable():
    f = SparsePoly(3, "x3", {(1, 0, 0): 1, (0, 0, 0): Fraction(-1, 2)})
    assert repr(f) == "x1 - 1/2"
    assert repr(SparsePoly.zero(3, "y3")) == "0"


# ---------------------------------------------------------------- trusted route


def assert_normal(f):
    """Internal producers wrap their terms as built; the validating
    constructor, fed the same terms, is their oracle."""
    assert f == SparsePoly(f.nvars, f.frame, list(f.terms.items()))
    assert all(type(c) is Fraction and c for c in f.terms.values())


FRAMES = (("x3", 3), ("x4", 4), ("y3", 3), ("y4", 4), ("y0", 1), ("t", 1))


def seeded_pairs(seed, count=3):
    rng = random.Random(seed)
    for frame, nvars in FRAMES:
        for _ in range(count):
            yield tuple(random_poly(rng, nvars, frame, max_deg=3, terms=5) for _ in range(2))


def test_ring_results_are_normal():
    for f, g in seeded_pairs(1):
        for h in (f + g, f - g, -f, f * g, f * Fraction(-2, 3), f**3, f + 1, 1 - f):
            assert_normal(h)
        for h in (f * 0, 0 * f, f + (-f), f - f, f * g - g * f):
            assert_normal(h)
            assert h.terms == {}


def test_group_actions_are_normal():
    signs = {"x4": (0,), "y4": (0, 1, 2, 3), "y3": (1, 2, 3), "y0": (0,)}
    for f, _ in seeded_pairs(2):
        for w in itertools.permutations(range(f.nvars)):
            assert_normal(f.apply_permutation(w))
        for p, q in itertools.combinations(range(f.nvars), 2):
            assert_normal(f.swap_variables(p, q))
        for i in signs.get(f.frame, ()):
            assert_normal(f.sign_change(i))


def test_coordinate_maps_are_normal():
    maps = {
        "x4": (to_y,),
        "y4": (to_x,),
        "x3": (substitute_squares,),
        "y3": (substitute_squares, embed_y3, lambda g: embed_y3(g, y0_power=2)),
        "y0": (embed_y0,),
    }
    for f, _ in seeded_pairs(3):
        for op in maps.get(f.frame, ()):
            assert_normal(op(f))


def test_operators_are_normal(ctx_each_pair):
    ctx = ctx_each_pair
    for f, _ in seeded_pairs(4, count=2):
        images = [euler(f)]
        if f.frame.startswith("x"):
            images += [op(i, f, ctx) for op in (dunkl_a, cherednik_a) for i in range(1, f.nvars + 1)]
        if f.frame == "x4":
            images += [dunkl_prime(i, f, ctx) for i in (1, 2, 3, 4)] + [laplacian_h(f, ctx)]
        if f.frame in ("y3", "y4"):
            images += [op(i, f, ctx) for op in (dunkl_b, cherednik_b) for i in (1, 2, 3)]
            images.append(laplacian_b(f, ctx))
        if f.frame in ("y0", "y4"):
            images += [dunkl_d0(f, ctx), d0_squared(f, ctx)]
        if f.frame == "y4":
            images.append(laplacian_h(f, ctx))
        for h in images:
            assert_normal(h)
    constant = euler(SparsePoly.constant(Fraction(3, 5), 3, "y3"))
    assert_normal(constant)
    assert constant.terms == {}


def test_jack_results_are_normal(ctx_each_pair):
    ctx = ctx_each_pair
    for alpha in combin.compositions_up_to(3, 3):
        assert_normal(nsjp(alpha, ctx).poly)
    for lam in combin.partitions_up_to(3, 3):
        j = symmetric_jack(lam, ctx)
        assert_normal(j)
        # the defining sum over the rearrangements cancels against j exactly
        rest = j - sum(combin.e_epsilon(alpha, -1, ctx) * nsjp(alpha, ctx).poly
                       for alpha in combin.rearrangements(lam))
        assert_normal(rest)
        assert rest.terms == {}
