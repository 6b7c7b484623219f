import itertools
import re
from fractions import Fraction

import pytest

from jack4 import combin
from jack4.exact import make_context
import oracles
from oracles import compose_permutations, dominates, inverse_permutation

KAPPAS = (Fraction(1, 2), Fraction(1), Fraction(3), Fraction(5, 7))


def brute_leg_set(alpha, i, j):
    """The leg as a set of nodes, straight from its verbal description:
    {(l, j): l > i, j <= a_l <= a_i} union {(l, j-1): l < i, j-1 <= a_l < a_i}."""
    ai = alpha[i - 1]
    below = {(l, j) for l in range(i + 1, len(alpha) + 1) if j <= alpha[l - 1] <= ai}
    above = {(l, j - 1) for l in range(1, i) if j - 1 <= alpha[l - 1] < ai}
    return below | above


def test_weight_and_length():
    assert combin.weight((2, 0, 3)) == 5
    assert combin.comp_length((0, 0, 0)) == 0
    assert combin.comp_length((0, 2, 0)) == 2


def test_ranks_hand_counted():
    assert combin.ranks((2, 6, 4)) == (3, 1, 2)
    assert combin.rank((2, 6, 4), 1) == 3
    assert combin.rank((2, 6, 4), 2) == 1
    assert combin.ranks((0, 0, 0)) == (1, 2, 3)
    with pytest.raises(IndexError):
        combin.rank((1, 0), 3)


def test_ranks_are_permutations():
    for alpha in combin.compositions_up_to(5, 3):
        assert sorted(combin.ranks(alpha)) == [1, 2, 3]
    for lam in combin.partitions_up_to(5, 3):
        assert combin.ranks(lam) == (1, 2, 3)


def test_sort_to_partition():
    part, w = combin.sort_to_partition((1, 3, 0))
    assert part == (3, 1, 0)
    assert w == (1, 0, 2)  # w(1)=2, w(2)=1, w(3)=3 in 1-based terms
    assert combin.permute_composition(w, (1, 3, 0)) == part

    part, w = combin.sort_to_partition((0, 0, 0))
    assert part == (0, 0, 0) and w == (0, 1, 2)

    part, w = combin.sort_to_partition((2, 6, 4))
    assert part == (6, 4, 2)
    assert w == (2, 0, 1)  # the rank map (3, 1, 2), 1-based
    assert combin.permute_composition(w, (2, 6, 4)) == part


def test_sort_permutation_is_rank_map():
    for alpha in combin.compositions_up_to(5, 3):
        part, w = combin.sort_to_partition(alpha)
        assert combin.permute_composition(w, alpha) == part
        r = combin.ranks(alpha)
        assert w == tuple(ri - 1 for ri in r)
        # equivalently, the inverse of w sends each rank slot to its position
        assert combin.ranks(alpha)[inverse_permutation(w)[0]] == 1


def test_dominates_examples():
    assert dominates((2, 6, 4), (5, 4, 3))
    assert dominates((5, 4, 3), (3, 4, 5))
    assert dominates((1, 0, 0), (0, 1, 0))
    assert not dominates((0, 1, 0), (1, 0, 0))
    assert not dominates((1, 0, 0), (1, 0, 0))
    assert not dominates((2, 0, 0), (1, 0, 0))  # different weights
    with pytest.raises(ValueError):
        dominates((1, 0), (1, 0, 0))


def test_dominates_strict_partial_order():
    for n in range(7):
        comps = combin.compositions_of_weight(n, 3)
        for a in comps:
            assert not dominates(a, a)
        for a, b in itertools.permutations(comps, 2):
            if dominates(a, b):
                assert not dominates(b, a)
        for a, b, c in itertools.permutations(comps, 3):
            if dominates(a, b) and dominates(b, c):
                assert dominates(a, c)


def test_canonical_key_refines_dominance():
    for n in range(7):
        comps = combin.compositions_of_weight(n, 3)
        for a, b in itertools.permutations(comps, 2):
            if dominates(a, b):
                assert combin.canonical_key(a) > combin.canonical_key(b)


def test_spectral_vector_values(ctx_each_kappa):
    ctx = ctx_each_kappa
    k = ctx.kappa
    assert combin.spectral_vector((0, 0, 0), ctx) == (2 * k + 1, k + 1, 1)
    assert combin.spectral_vector((2, 6, 4), ctx) == (3, 2 * k + 7, k + 5)
    # ranks of (0,0,1) are (2,3,1), so xi = (k+1, 1, 2k+2)
    assert combin.spectral_vector((0, 0, 1), ctx) == (k + 1, 1, 2 * k + 2)


def test_spectral_vector_injective(ctx_each_kappa):
    seen = {}
    for alpha in combin.compositions_up_to(6, 3):
        xi = combin.spectral_vector(alpha, ctx_each_kappa)
        assert xi not in seen, f"{alpha} and {seen[xi]} share a spectral vector"
        seen[xi] = alpha


def test_spectral_vector_length_check():
    ctx = make_context(1, 0, 3)
    with pytest.raises(ValueError):
        combin.spectral_vector((1, 0), ctx)


def test_leg_length_examples():
    assert combin.leg_length((2, 1, 0), 1, 1) == 1
    assert combin.leg_length((2, 1, 0), 1, 2) == 0
    assert combin.leg_length((0, 0, 1), 3, 1) == 2
    with pytest.raises(ValueError):
        combin.leg_length((2, 1, 0), 1, 3)
    with pytest.raises(ValueError):
        combin.leg_length((2, 1, 0), 3, 1)


def test_leg_length_against_set_oracle():
    for alpha in combin.compositions_up_to(6, 3):
        for i in range(1, combin.comp_length(alpha) + 1):
            for j in range(1, alpha[i - 1] + 1):
                assert combin.leg_length(alpha, i, j) == len(brute_leg_set(alpha, i, j))


@pytest.mark.parametrize("kappa", KAPPAS)
@pytest.mark.parametrize("t", [Fraction(1), Fraction(3, 2), Fraction(7, 5)])
def test_hook_product_frozen(kappa, t):
    ctx = make_context(kappa, 0, 3)
    k = ctx.kappa
    assert combin.hook_product((0, 0, 0), t, ctx) == 1
    assert combin.hook_product((2, 1, 0), t, ctx) == t * t * (t + k + 1)
    assert combin.hook_product((0, 0, 1), t, ctx) == t + 2 * k


@pytest.mark.parametrize("kappa", KAPPAS)
def test_gen_pochhammer_frozen(kappa):
    ctx = make_context(kappa, 0, 3)
    k = ctx.kappa
    t = Fraction(7, 3)
    assert combin.gen_pochhammer((0, 0, 0), t, ctx) == 1
    assert combin.gen_pochhammer((2, 1, 0), t, ctx) == t * (t + 1) * (t - k)
    assert combin.gen_pochhammer((1, 0, 0), 3 * k + 1, ctx) == 3 * k + 1
    with pytest.raises(ValueError):
        combin.gen_pochhammer((1, 2, 0), t, ctx)


def test_rising_factorial():
    assert combin.rising_factorial(Fraction(1, 2), 3) == Fraction(1, 2) * Fraction(3, 2) * Fraction(5, 2)
    assert combin.rising_factorial(5, 0) == 1


@pytest.mark.parametrize("kappa", KAPPAS)
def test_e_epsilon_frozen(kappa):
    ctx2 = make_context(kappa, 0, 2)
    k = ctx2.kappa
    assert combin.e_epsilon((3, 1), 1, ctx2) == 1  # partitions give empty products
    assert combin.e_epsilon((0, 1), -1, ctx2) == 1 / (k + 1)
    ctx3 = make_context(kappa, 0, 3)
    assert combin.e_epsilon((0, 0, 1), 1, ctx3) == (3 * k + 1) / (k + 1)


@pytest.mark.parametrize("kappa", KAPPAS + (Fraction(0), Fraction(11, 3)))
def test_closed_forms_match_the_fraction_oracles(kappa):
    # the integer closed forms equal the Fraction products they replace,
    # on every composition of weight <= 6 in 2, 3 and 4 variables
    k = kappa
    ts = (1, k + 1, 3 * k + 1, 2 * k + Fraction(1, 2), Fraction(5, 3))
    for nvars in (2, 3, 4):
        ctx = make_context(k, 0, nvars)
        for alpha in combin.compositions_up_to(6, nvars):
            plus, _ = combin.sort_to_partition(alpha)
            assert combin.spectral_vector(alpha, ctx) == oracles.spectral_vector(alpha, ctx)
            for eps in (1, -1):
                assert combin.e_epsilon(alpha, eps, ctx) == oracles.e_epsilon(alpha, eps, ctx)
            for t in ts:
                assert combin.hook_product(alpha, t, ctx) == oracles.hook_product(alpha, t, ctx)
                assert combin.gen_pochhammer(plus, t, ctx) == oracles.gen_pochhammer(plus, t, ctx)
    for t in ts + (Fraction(-7, 2),):
        for n in range(7):
            assert combin.rising_factorial(t, n) == oracles.rising_factorial(t, n)


def test_closed_forms_refuse_floats():
    ctx = make_context(Fraction(1, 2), 0, 3)
    calls = (
        lambda: combin.rising_factorial(0.1, 2),
        lambda: combin.hook_product((2, 1, 0), 0.1, ctx),
        lambda: combin.gen_pochhammer((2, 1, 0), 0.1, ctx),
    )
    for call in calls:
        with pytest.raises(ValueError, match="float"):
            call()
    # an exact decimal string is still welcome
    assert combin.rising_factorial("0.1", 2) == Fraction(11, 100)
    assert combin.hook_product((1, 0, 0), "0.1", ctx) == Fraction(1, 10)


@pytest.mark.parametrize("kappa", KAPPAS)
def test_hook_symmetrization_identities(kappa):
    # h(a, k+1) = E_1(a) h(a+, k+1) and h(a+, 1) = h(a, 1) E_{-1}(a)
    ctx = make_context(kappa, 0, 3)
    k = ctx.kappa
    for alpha in combin.compositions_up_to(6, 3):
        plus, _ = combin.sort_to_partition(alpha)
        assert combin.hook_product(alpha, k + 1, ctx) == combin.e_epsilon(
            alpha, 1, ctx
        ) * combin.hook_product(plus, k + 1, ctx)
        assert combin.hook_product(plus, 1, ctx) == combin.hook_product(
            alpha, 1, ctx
        ) * combin.e_epsilon(alpha, -1, ctx)


def test_orbit_count():
    assert combin.orbit_count((1, 0, 0)) == 3
    assert combin.orbit_count((0, 0, 0)) == 1
    assert combin.orbit_count((2, 1, 0)) == 6
    for lam in combin.partitions_up_to(6, 3):
        assert combin.orbit_count(lam) == len(set(itertools.permutations(lam)))


def test_compositions_of_weight():
    comps = combin.compositions_of_weight(2, 3)
    assert len(comps) == 6
    keys = [combin.canonical_key(c) for c in comps]
    assert keys == sorted(keys, reverse=True)
    assert set(comps) == set(itertools.product(range(3), repeat=3)) & {
        c for c in itertools.product(range(3), repeat=3) if sum(c) == 2
    }


def test_rearrangements():
    assert set(combin.rearrangements((1, 0, 0))) == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}
    assert len(combin.rearrangements((2, 1, 0))) == 6


def test_permutation_utilities():
    w = (1, 2, 0)  # w(1)=2, w(2)=3, w(3)=1
    assert combin.permute_composition(w, (3, 1, 0)) == (0, 3, 1)
    assert inverse_permutation(w) == (2, 0, 1)
    w2 = (1, 0, 2)
    composed = compose_permutations(w, w2)
    a = (5, 7, 11)
    assert combin.permute_composition(composed, a) == combin.permute_composition(
        w, combin.permute_composition(w2, a)
    )


def _entries():
    """Each public entry that takes integer parts, with a call that puts
    ``part`` in the first place of its label and a valid label otherwise."""
    from jack4.basis4 import BasisLabel, decompose_label, invariant_F
    from jack4.hermite_cs import hermite_basis
    from jack4.jack import jack_norm, nsjp, symmetric_jack

    ctx = make_context(Fraction(1, 2), Fraction(2), 3)
    ctx4 = make_context(Fraction(1, 2), 0, 4)
    return {
        "nsjp": lambda part: nsjp((part, 0, 0, 0), ctx4).poly,
        "symmetric_jack": lambda part: symmetric_jack((part, 0, 0), ctx),
        "jack_norm": lambda part: jack_norm((part, 1, 0), ctx),
        "decompose_label": lambda part: decompose_label((part, 0, 2)),
        "invariant_F": lambda part: invariant_F((part, 0, 0), 1, ctx).poly,
        "hermite_basis gamma": lambda part: hermite_basis(BasisLabel((part, 0, 1), 1), ctx).poly,
        "hermite_basis n": lambda part: hermite_basis(BasisLabel((1, 0, 1), part), ctx).poly,
    }


@pytest.mark.parametrize("entry", list(_entries()))
def test_non_integer_parts_are_refused(entry):
    """A float or a non-integer Fraction part raises ValueError naming it,
    where it was once truncated; an int part is taken as it is."""
    call = _entries()[entry]
    for bad in (1.7, 1.0, Fraction(3, 2)):
        with pytest.raises(ValueError, match=re.escape(f"part {bad!r} of ")):
            call(bad)
    assert call(2) == call(True + 1)
    assert combin.as_parts([2, True, 0]) == (2, 1, 0)
    assert combin.as_parts(iter((3, 0))) == (3, 0)


@pytest.mark.parametrize("entry", list(_entries()))
def test_negative_parts_are_refused(entry):
    """A negative part raises ValueError naming it, at the same entries."""
    with pytest.raises(ValueError, match=re.escape("part -1 of ") + ".* is negative"):
        _entries()[entry](-1)
    with pytest.raises(ValueError, match="is negative"):
        combin.as_parts([2, -3, 0])
