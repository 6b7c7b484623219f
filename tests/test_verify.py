"""The Gram checks of the prop1 and prop2 suites: the block-diagonal integer
route against the route that pairs every element with every other, the
suites against the routes they replaced, and the dual vectors they keep
across kappa_prime; the identities and spectrum suites against the series
routes they replaced."""

from fractions import Fraction

import pytest

from conftest import PARAM_PAIRS
from jack4 import combin, hermite_cs, ops, verify
from jack4.basis4 import BasisLabel, basis_norm, basis_poly
from jack4.exact import format_rational, make_context
from jack4.jack import NsjpRecord, nsjp
from jack4.ops import Dual, pairing_extended
from jack4.poly import SparsePoly, Y4, embed_y3
from oracles import (gram_by_every_pair, identities_by_sandwich, prop1_by_polys, prop2_in_y4,
                     spectrum_in_y4)

PARAMS = ((Fraction(1, 2), Fraction(2)), (Fraction(5, 7), Fraction(1, 3)))
DEGREE = 4
OLD_ROUTES = {"prop1": prop1_by_polys, "prop2": prop2_in_y4}


def family(suite, ctx):
    """The suite's elements of degree <= DEGREE as (polynomial paired by a
    dual vector, y_0 degree n) with their norms and block keys, the degree
    on every component of the root system: (0, |alpha|) for prop1, whose
    elements carry no y_0, and (n, |gamma|) for prop2."""
    if suite == "prop1":
        records = [nsjp(a, ctx) for a in combin.compositions_up_to(DEGREE, 3)]
        return ([(r.poly, 0) for r in records], [r.norm for r in records],
                [(0, combin.weight(r.label)) for r in records])
    labels = verify.basis_labels_up_to(DEGREE)
    norms = [basis_norm(label, ctx) for label in labels]
    return ([(basis_poly(label.gamma, ctx), label.n) for label in labels], norms,
            [(label.n, combin.weight(label.gamma)) for label in labels])


def with_mixtures(elements, norms, keys):
    """The family with mixtures of elements of different degrees, which pair
    nonzero across blocks, and the zero polynomial; none has one block key."""
    mixtures = [(Fraction(2, 3) * elements[i][0] + elements[-1 - i][0], elements[i][1])
                for i in range(1, 6)]
    f = elements[0][0]
    mixtures.insert(2, (SparsePoly.zero(f.nvars, f.frame), 0))
    return (elements + mixtures, norms + [Fraction(1)] * len(mixtures),
            keys + [None] * len(mixtures))


def describe(i, j, v, e):
    return f"({i}, {j}): {format_rational(v)}, expected {format_rational(e)}"


def whole(f, n):
    """The element f y_0^n as one polynomial: f itself in an x frame."""
    return embed_y3(f, y0_power=n) if f.frame == "y3" else f


@pytest.mark.parametrize("kappa, kappa_prime", PARAMS)
@pytest.mark.parametrize("suite", ("prop1", "prop2"))
def test_block_route_pairs_only_within_blocks(suite, kappa, kappa_prime):
    """The block route gives the every-pair report, on the orthogonal family
    and with mixtures that fail; it pairs exactly the pairs of equal y_0
    degree that share one block key or have an element without one."""
    ctx = make_context(kappa, kappa_prime, 3)
    paired = []

    class CountedDual(Dual):
        def ratio(self, f):
            paired.append((f.index, self.index))
            return super().ratio(f)

    orthogonal = family(suite, ctx)
    for elements, norms, keys in (orthogonal, with_mixtures(*orthogonal)):
        n = len(elements)
        paired.clear()
        duals = [CountedDual(f, ctx) for f, _ in elements]
        for i, dual in enumerate(duals):
            dual.index = i
        ns = [m for _, m in elements]
        y0 = None
        if suite == "prop2":
            powers = [SparsePoly.monomial((m, 0, 0, 0), Y4) for m in range(DEGREE + 1)]
            y0 = [(m, pairing_extended(powers[m], powers[m], ctx).as_integer_ratio()) for m in ns]
        reports = []
        for route in ("block", "every"):
            rep = verify.SuiteReport("gram", {}, DEGREE)
            if route == "block":
                verify.check_gram(rep, duals, norms, describe, y0)
            else:
                gram_by_every_pair(rep, [whole(f, m) for f, m in elements], norms, ctx, describe)
            reports.append((rep.checked, rep.failures, rep.first_counterexample))
        assert reports[0] == reports[1]
        assert reports[0][0] == n * (n + 1) // 2
        assert (reports[0][1] == 0) == (elements is orthogonal[0])  # the mixtures fail
        assert paired == [(i, j) for i in range(n) for j in range(i, n) if ns[i] == ns[j] and (
            keys[i] is None or keys[j] is None or keys[i] == keys[j])]


@pytest.mark.parametrize("kappa, kappa_prime", PARAMS)
@pytest.mark.parametrize("suite", ("prop1", "prop2"))
def test_suites_match_the_routes_they_replaced(suite, kappa, kappa_prime):
    """prop1 with kept dual vectors and integer Gram entries, and prop2 as the
    D3 Gram times the A1 factor, give the reports of fresh dual vectors with
    Fraction entries and of the y4 Gram."""
    ctx = make_context(kappa, kappa_prime, 3)
    for degree in (0, 3, 5):
        assert (verify.run_suite(suite, ctx, degree).to_json()
                == OLD_ROUTES[suite](ctx, degree).to_json())


@pytest.mark.parametrize("kappa, kappa_prime", PARAM_PAIRS + ((2, 0),),
                         ids=lambda v: format_rational(Fraction(v)))
def test_identities_and_spectrum_match_the_series_routes(kappa, kappa_prime):
    """The identities by the Hadamard lemma give the names, counts and
    failing labels of the series sandwich, and the spectrum on the A1 x D3
    factors gives the report of the y4 products, at every degree <= 6."""
    ctx = make_context(kappa, kappa_prime, 3)
    for degree in range(7):
        assert ([(r.name, r.checked, r.failures)
                 for r in hermite_cs.operator_identities_check(ctx, degree)]
                == [(r.name, r.checked, r.failures) for r in identities_by_sandwich(ctx, degree)])
        assert verify.suite_spectrum(ctx, degree).to_json() == spectrum_in_y4(ctx, degree).to_json()


@pytest.mark.parametrize("suite", ("prop1", "prop2"))
def test_wrong_norm_fails_alike_on_both_routes(suite, monkeypatch):
    """A wrong expected norm for one label fails the suite the same way
    through the integer block route and through the route it replaced."""
    ctx = make_context(Fraction(5, 7), Fraction(1, 3), 3)
    if suite == "prop1":
        norm = nsjp((0, 2, 1), ctx).norm + 1
        right = NsjpRecord.norm
        monkeypatch.setattr(NsjpRecord, "norm", property(
            lambda rec: norm if rec.label == (0, 2, 1) else right.fget(rec)))
    else:
        label = BasisLabel((1, 0, 1), 1)
        norm = 2 * basis_norm(label, ctx)
        monkeypatch.setattr(verify, "basis_norm",
                            lambda lab, ctx: norm if lab == label else basis_norm(lab, ctx))
    reports = [(rep.checked, rep.failures, rep.first_counterexample)
               for rep in (verify.run_suite(suite, ctx, DEGREE), OLD_ROUTES[suite](ctx, DEGREE))]
    assert reports[0] == reports[1]
    assert reports[0][1] == 1
    assert reports[0][2].endswith(f"expected {format_rational(norm)}")


def test_kept_dual_vectors_serve_every_kappa_prime():
    """prop1 and prop2 run at (kappa, 1/2) and then at (kappa, 2), for two
    kappa, in one memo give the reports of runs that each start from an
    empty memo, as a fresh process does; the kept dual vectors are keyed by
    kappa alone."""
    points = [(k, kp) for k in (Fraction(1, 2), Fraction(5, 7)) for kp in (Fraction(1, 2), 2)]
    ops._MEMO_CACHE.clear()
    in_one = [verify.run_suite(suite, make_context(k, kp, 3), DEGREE).to_json()
              for k, kp in points for suite in ("prop1", "prop2")]
    kept = {(params, key) for params, group in ops._MEMO_CACHE.items() for key in group
            if key[0] in ("nsjp_dual", "basis_dual")}
    assert kept == {(k.as_integer_ratio(), (name, frame, 3))
                    for name, frame in (("nsjp_dual", "x3"), ("basis_dual", "y3"))
                    for k in (Fraction(1, 2), Fraction(5, 7))}
    fresh = []
    for k, kp in points:
        for suite in ("prop1", "prop2"):
            ops._MEMO_CACHE.clear()
            fresh.append(verify.run_suite(suite, make_context(k, kp, 3), DEGREE).to_json())
    assert in_one == fresh
    assert all(report["ok"] for report in fresh)
