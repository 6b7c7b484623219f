"""The block-diagonal Gram checks of the prop1 and prop2 suites against the
route that pairs every element with every other."""

from fractions import Fraction

import pytest

from jack4 import combin, verify
from jack4.basis4 import BasisLabel, basis_norm, basis_poly4
from jack4.exact import format_rational, make_context
from jack4.jack import nsjp
from jack4.poly import SparsePoly
from oracles import gram_by_every_pair

PARAMS = ((Fraction(1, 2), Fraction(2)), (Fraction(5, 7), Fraction(1, 3)))
DEGREE = 4


def family(suite, ctx):
    """The suite's elements of degree <= DEGREE with their norms and block
    keys, the degree on every component of the root system: |alpha| for
    prop1, (n, |gamma|) for prop2."""
    if suite == "prop1":
        records = [nsjp(a, ctx) for a in combin.compositions_up_to(DEGREE, 3)]
        return ([r.poly for r in records], [r.norm for r in records],
                [(combin.weight(r.label),) for r in records])
    labels = verify.basis_labels_up_to(DEGREE)
    norms = [basis_norm(label, ctx) for label in labels]
    return ([basis_poly4(label, ctx) for label in labels], norms,
            [(label.n, combin.weight(label.gamma)) for label in labels])


def with_mixtures(polys, norms, keys):
    """The family with mixtures of elements of different degrees, which pair
    nonzero across blocks, and the zero polynomial; none has one block key."""
    mixtures = [Fraction(2, 3) * polys[i] + polys[-1 - i] for i in range(1, 6)]
    mixtures.insert(2, SparsePoly.zero(polys[0].nvars, polys[0].frame))
    return polys + mixtures, norms + [Fraction(1)] * len(mixtures), keys + [None] * len(mixtures)


def describe(i, j, v, e):
    return f"({i}, {j}): {format_rational(v)}, expected {format_rational(e)}"


def both_routes(polys, norms, ctx):
    reports = []
    for route in (verify.check_gram, gram_by_every_pair):
        rep = verify.SuiteReport("gram", {}, DEGREE)
        route(rep, polys, norms, ctx, describe)
        reports.append((rep.checked, rep.failures, rep.first_counterexample))
    return reports


@pytest.mark.parametrize("kappa, kappa_prime", PARAMS)
@pytest.mark.parametrize("suite", ("prop1", "prop2"))
def test_block_route_pairs_only_within_blocks(suite, kappa, kappa_prime, monkeypatch):
    """The block route gives the every-pair report, on the orthogonal family
    and with mixtures that fail; it pairs exactly the pairs of one block or
    with an element that has no single block key."""
    ctx = make_context(kappa, kappa_prime, 3)
    paired = []

    class CountedDual(verify.Dual):
        made: list = []

        def __init__(self, g, ctx):
            super().__init__(g, ctx)
            self.index = len(self.made)
            self.made.append(self)

        def pair(self, f):
            paired.append((f.index, self.index))
            return super().pair(f)

    monkeypatch.setattr(verify, "Dual", CountedDual)
    orthogonal = family(suite, ctx)
    for polys, norms, keys in (orthogonal, with_mixtures(*orthogonal)):
        n = len(polys)
        paired.clear()
        CountedDual.made = []
        block, every = both_routes(polys, norms, ctx)  # the oracle pairs through ops.Dual
        assert block == every
        assert block[0] == n * (n + 1) // 2
        assert (block[1] == 0) == (polys is orthogonal[0])  # the mixtures fail
        assert paired == [(i, j) for i in range(n) for j in range(i, n)
                          if keys[i] is None or keys[j] is None or keys[i] == keys[j]]


@pytest.mark.parametrize("suite", ("prop1", "prop2"))
def test_wrong_norm_fails_alike_on_both_routes(suite, monkeypatch):
    """A wrong expected norm for one label fails the suite the same way
    through the block route and through the every-pair route."""
    ctx = make_context(Fraction(5, 7), Fraction(1, 3), 3)
    if suite == "prop1":
        norm = nsjp((0, 2, 1), ctx).norm + 1

        def wrong(alpha, ctx):
            rec = nsjp(alpha, ctx)
            return rec._replace(norm=norm) if rec.label == (0, 2, 1) else rec
        monkeypatch.setattr(verify, "nsjp", wrong)
    else:
        label = BasisLabel((1, 0, 1), 1)
        norm = 2 * basis_norm(label, ctx)
        monkeypatch.setattr(verify, "basis_norm",
                            lambda lab, ctx: norm if lab == label else basis_norm(lab, ctx))
    reports = []
    for route in (verify.check_gram, gram_by_every_pair):
        monkeypatch.setattr(verify, "check_gram", route)
        rep = verify.run_suite(suite, ctx, DEGREE)
        reports.append((rep.checked, rep.failures, rep.first_counterexample))
    assert reports[0] == reports[1]
    assert reports[0][1] == 1
    assert reports[0][2].endswith(f"expected {format_rational(norm)}")
