import itertools
from fractions import Fraction

import pytest

import oracles
from conftest import KAPPA_PRIMES, KAPPAS, PARAM_PAIRS
from jack4 import combin, verify
from jack4.basis4 import (
    W_TABLE,
    BasisLabel,
    basis_norm,
    basis_poly,
    basis_poly4,
    decompose_label,
    gamma_norm,
    invariant_F,
    y0_power_norm,
)
from jack4.exact import make_context
from jack4.jack import jack_norm, nsjp_eval_ones, nsjp_norm, symmetric_jack
from jack4.ops import cherednik_b, dunkl_d0, pairing_extended, pairing_kappa
from jack4.poly import SparsePoly, Y0, Y3, Y4, embed_y3, to_x


def test_w_table_matches_order_preservation_rule():
    # w maps {1..k} onto E and {k+1..3} onto the complement, increasing on both
    for subset in map(frozenset, itertools.chain.from_iterable(
        itertools.combinations((1, 2, 3), r) for r in range(4)
    )):
        w = W_TABLE[subset]
        k = len(subset)
        image_first = [w[i] + 1 for i in range(k)]
        image_rest = [w[i] + 1 for i in range(k, 3)]
        assert image_first == sorted(subset)
        assert image_rest == sorted(set((1, 2, 3)) - subset)


def test_w_table_explicit_rows():
    # the four rows with nontrivial shuffles, as 1-based image tuples
    assert tuple(i + 1 for i in W_TABLE[frozenset({2})]) == (2, 1, 3)
    assert tuple(i + 1 for i in W_TABLE[frozenset({3})]) == (3, 1, 2)
    assert tuple(i + 1 for i in W_TABLE[frozenset({1, 3})]) == (1, 3, 2)
    assert tuple(i + 1 for i in W_TABLE[frozenset({2, 3})]) == (2, 3, 1)


def test_decompose_label_examples():
    d = decompose_label((1, 1, 1))
    assert d.odd_set == (1, 2, 3) and d.w == (0, 1, 2)
    assert d.alpha == (0, 0, 0)

    d = decompose_label((0, 1, 0))
    assert d.odd_set == (2,) and d.w == (1, 0, 2)
    assert d.beta == (1, 0, 0) and d.alpha == (0, 0, 0)

    d = decompose_label((3, 0, 1))
    assert d.odd_set == (1, 3) and d.w == (0, 2, 1)
    assert d.beta == (3, 1, 0) and d.alpha == (1, 0, 0)

    with pytest.raises(ValueError):
        decompose_label((1, 2))


def test_decompose_label_properties():
    for gamma in combin.compositions_up_to(6, 3):
        d = decompose_label(gamma)
        assert combin.permute_composition(d.w, d.beta) == tuple(gamma)  # gamma = w beta
        for i, b in enumerate(d.beta):
            assert (b % 2 == 1) == (i < d.k)  # beta odd exactly in the first k slots
        assert d.alpha == tuple(b // 2 for b in d.beta)


def test_basis_poly_examples(ctx):
    k = ctx.kappa
    assert basis_poly((0, 0, 0), ctx) == SparsePoly.one(3, "y3")
    assert basis_poly((1, 1, 1), ctx) == SparsePoly.monomial((1, 1, 1), "y3")
    expected = SparsePoly(3, "y3", {(2, 0, 0): 1, (0, 2, 0): k / (k + 1), (0, 0, 2): k / (k + 1)})
    assert basis_poly((2, 0, 0), ctx) == expected


def test_basis_poly_parity(ctx):
    for gamma in combin.compositions_up_to(4, 3):
        d = decompose_label(gamma)
        f = basis_poly(gamma, ctx)
        assert not f.is_zero()
        for i in (1, 2, 3):
            expected = -f if i in d.odd_set else f
            assert f.sign_change(i) == expected


def test_basis_poly4_examples(ctx):
    assert basis_poly4(BasisLabel((0, 0, 0), 1), ctx) == SparsePoly.monomial((1, 0, 0, 0), "y4")
    assert basis_poly4(BasisLabel((1, 0, 0), 2), ctx) == SparsePoly.monomial((2, 1, 0, 0), "y4")
    emb = embed_y3(basis_poly((2, 0, 0), ctx))
    assert basis_poly4(BasisLabel((2, 0, 0), 0), ctx) == emb


def test_cherednik_b_eigenvalues_on_basis(ctx_each_kappa):
    # UB_{w(i)} p_gamma = 2 xi_i(alpha) p_gamma for i <= k, (2 xi_i(alpha) - 1) otherwise
    ctx = ctx_each_kappa
    for gamma in combin.compositions_up_to(6, 3):
        d = decompose_label(gamma)
        f = basis_poly(gamma, ctx)
        xi = combin.spectral_vector(d.alpha, ctx)
        for i in (1, 2, 3):
            ev = 2 * xi[i - 1] if i <= d.k else 2 * xi[i - 1] - 1
            assert cherednik_b(d.w[i - 1] + 1, f, ctx) == ev * f, (gamma, i)


def test_y0_power_norm(ctx_each_pair):
    ctx = ctx_each_pair
    kp = ctx.kappa_prime
    assert y0_power_norm(0, ctx) == 1
    assert y0_power_norm(1, ctx) == 2 * kp + 1
    assert y0_power_norm(2, ctx) == 4 * (kp + Fraction(1, 2))
    # oracle: iterate D0 against itself
    for n in range(7):
        g = SparsePoly.monomial((n,), Y0)
        for _ in range(n):
            g = dunkl_d0(g, ctx)
        assert g.constant_term() == y0_power_norm(n, ctx)


def test_gamma_norm_examples(ctx_each_pair):
    ctx = ctx_each_pair
    k = ctx.kappa
    assert basis_norm(BasisLabel((0, 0, 0), 0), ctx) == 1
    assert basis_norm(BasisLabel((1, 0, 0), 0), ctx) == 4 * k + 1
    assert basis_norm(BasisLabel((0, 0, 0), 1), ctx) == 2 * ctx.kappa_prime + 1
    y1 = SparsePoly.variable(0, 3, "y3")
    assert pairing_kappa(y1, y1, ctx) == gamma_norm((1, 0, 0), ctx)


def test_kappa_prime_free_values_are_shared(ctx):
    # gamma_norm, j_lambda and F^s_lambda depend on kappa only:
    # one memo entry serves every kappa_prime
    other = make_context(ctx.kappa, ctx.kappa_prime + 1, 3)
    assert gamma_norm((1, 0, 2), other) is gamma_norm((1, 0, 2), ctx)
    assert symmetric_jack((2, 1, 0), other) is symmetric_jack((2, 1, 0), ctx)
    for s in (0, 1):
        assert invariant_F((2, 1, 0), s, other) is invariant_F([2, 1, 0], s, ctx)
    assert invariant_F((2, 1, 0), 0, ctx) is not invariant_F((2, 1, 0), 1, ctx)


def test_basis_norm_against_pairing_sample(ctx_each_pair):
    ctx = ctx_each_pair
    labels = [
        BasisLabel((2, 0, 0), 1),
        BasisLabel((0, 1, 0), 2),
        BasisLabel((1, 2, 0), 0),
        BasisLabel((0, 0, 3), 1),
    ]
    for lab in labels:
        f = basis_poly4(lab, ctx)
        assert pairing_extended(f, f, ctx) == basis_norm(lab, ctx)


@pytest.mark.parametrize("kappa, kappa_prime",
                         [*itertools.product(KAPPAS, KAPPA_PRIMES), (Fraction(5, 7), Fraction(1, 3))])
def test_norms_match_the_fraction_oracles(kappa, kappa_prime):
    """The integer closed-form norms equal the Fraction products they
    replaced, on every label of degree <= 6."""
    ctx = make_context(kappa, kappa_prime, 3)
    for gamma in combin.compositions_up_to(6, 3):
        assert gamma_norm(gamma, ctx) == oracles.gamma_norm(gamma, ctx), gamma
    for n in range(7):
        assert y0_power_norm(n, ctx) == oracles.y0_power_norm(n, ctx), n
    for label in verify.basis_labels_up_to(6):
        assert basis_norm(label, ctx) == (oracles.gamma_norm(label.gamma, ctx)
                                          * oracles.y0_power_norm(label.n, ctx)), label
    for nvars in (2, 3, 4):
        ctx = make_context(kappa, kappa_prime, nvars)
        for alpha in combin.compositions_up_to(6, nvars):
            assert nsjp_norm(alpha, ctx) == oracles.nsjp_norm(alpha, ctx), alpha
        for lam in combin.partitions_up_to(6, nvars):
            assert jack_norm(lam, ctx) == oracles.jack_norm(lam, ctx), lam


@pytest.mark.parametrize("call", [
    lambda ctx: y0_power_norm(-1, ctx),
    lambda ctx: y0_power_norm(1.5, ctx),
    lambda ctx: basis_norm(BasisLabel((1, 0, 0), -2), ctx),
    lambda ctx: basis_norm(BasisLabel((-1, 0, 0), 0), ctx),
    lambda ctx: gamma_norm((1.0, 0, 0), ctx),  # equal to a memoized key
    lambda ctx: nsjp_norm((-1, 0, 0), ctx),
    lambda ctx: nsjp_norm((1.5, 0, 0), ctx),
    lambda ctx: nsjp_eval_ones((-1, 0, 0), ctx),
    lambda ctx: nsjp_eval_ones((1.5, 0, 0), ctx),
    lambda ctx: jack_norm((1, 0, -1), ctx),
], ids=["y0-negative", "y0-float", "basis-n", "basis-gamma", "gamma-float", "nsjp-negative",
        "nsjp-float", "eval-ones-negative", "eval-ones-float", "jack-negative"])
def test_norms_refuse_bad_labels(ctx, call):
    """A negative or non-integer part is refused with ValueError, not read as
    some other label."""
    gamma_norm((1, 0, 0), ctx)
    with pytest.raises(ValueError, match=r"part .* of .* is (negative|not an integer)"):
        call(ctx)


@pytest.mark.parametrize("kappa, kappa_prime", [*PARAM_PAIRS, (Fraction(5, 7), Fraction(1, 3))])
def test_extended_pairing_factors_as_a1_times_d3(kappa, kappa_prime):
    """<f y_0^n, g y_0^m> = delta_nm <y_0^n, y_0^n> <f, g>_kappa for y3
    polynomials f and g: every monomial of degree <= 2, basis elements of
    degree 3, and a mixture of degrees 0, 1 and 3."""
    ctx = make_context(kappa, kappa_prime, 3)
    factors = [SparsePoly.monomial(e, Y3) for e in combin.compositions_up_to(2, 3)]
    factors += [basis_poly(g, ctx) for g in ((3, 0, 0), (1, 1, 1), (0, 2, 1))]
    factors.append(factors[-1] + Fraction(2, 3) * factors[4] + factors[0])
    a1 = [pairing_extended(*[SparsePoly.monomial((n, 0, 0, 0), Y4)] * 2, ctx) for n in range(3)]
    elements = [(f, n) for f in factors for n in range(3)]
    for (f, n), (g, m) in itertools.combinations_with_replacement(elements, 2):
        expected = a1[n] * pairing_kappa(f, g, ctx) if n == m else 0
        assert pairing_extended(embed_y3(f, n), embed_y3(g, m), ctx) == expected, (f, n, g, m)


def test_basis_orthogonality_sample(ctx):
    labels = [BasisLabel(g, n) for g in combin.compositions_up_to(3, 3) for n in (0, 1)]
    polys = {lab: basis_poly4(lab, ctx) for lab in labels}
    for a, b in itertools.combinations(labels, 2):
        assert pairing_extended(polys[a], polys[b], ctx) == 0, (a, b)


def test_invariant_F_zero(ctx_each_kappa):
    ctx = ctx_each_kappa
    rec0 = invariant_F((0, 0, 0), 0, ctx)
    assert rec0.poly == SparsePoly.one(3, "y3")
    assert rec0.a_lambda == 1
    assert rec0.formula_norm == 1 and rec0.pairing_norm == 1

    rec1 = invariant_F((0, 0, 0), 1, ctx)
    k = ctx.kappa
    assert rec1.poly == SparsePoly.monomial((1, 1, 1), "y3")
    assert rec1.pairing_norm == (2 * k + 1) * (4 * k + 1)
    assert rec1.pairing_norm == 8 * rec1.formula_norm  # the displayed form is short by 2^3


def test_invariant_F_lambda_one(ctx_each_kappa):
    ctx = ctx_each_kappa
    k = ctx.kappa
    rec = invariant_F((1, 0, 0), 0, ctx)
    expected = SparsePoly(3, "y3", {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1})
    assert rec.poly == expected
    assert rec.a_lambda == 3
    assert rec.formula_norm == 4 * (2 * k + Fraction(1, 2)) * 3
    assert rec.pairing_norm == rec.formula_norm  # the even family's display is consistent


def test_invariant_F_s4_invariance(ctx):
    # generators of the symmetric-group action in the x frame fix F^s_lambda
    for lam, s in [((1, 0, 0), 0), ((1, 1, 0), 0), ((0, 0, 0), 1), ((1, 0, 0), 1)]:
        f = to_x(embed_y3(invariant_F(lam, s, ctx).poly))
        for swap in ((1, 0, 2, 3), (0, 2, 1, 3), (0, 1, 3, 2)):
            assert f.apply_permutation(swap) == f


def test_invariant_F_mutual_orthogonality(ctx):
    recs = [
        invariant_F(lam, s, ctx)
        for lam in combin.partitions_up_to(2, 3)
        for s in (0, 1)
    ]
    for ra, rb in itertools.combinations(recs, 2):
        assert pairing_kappa(ra.poly, rb.poly, ctx) == 0


def test_invariant_F_validation(ctx):
    with pytest.raises(ValueError):
        invariant_F((1, 0), 0, ctx)
    with pytest.raises(ValueError):
        invariant_F((1, 0, 0), 2, ctx)
