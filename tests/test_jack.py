import itertools
import sys
from fractions import Fraction

import pytest

from jack4 import combin, jack, ops
from jack4.basis4 import gamma_norm, invariant_F
from jack4.exact import make_context
from jack4.jack import (
    jack_norm,
    nsjp,
    nsjp_eval_ones,
    nsjp_norm,
    symmetric_jack,
)
from jack4.ops import cherednik_a, pairing_kappa
from jack4.poly import SparsePoly, x_frame
import oracles
from oracles import dominates, triangular_nsjp

# The conftest kappa grid.
KAPPAS = (Fraction(1, 2), Fraction(1), Fraction(3), Fraction(5, 7))


def xvar(i):
    return SparsePoly.variable(i - 1, 3, "x3")


def test_nsjp_base_cases(ctx_each_kappa):
    ctx = ctx_each_kappa
    assert nsjp((0, 0, 0), ctx).poly == SparsePoly.one(3, "x3")
    assert nsjp((0, 0, 1), ctx).poly == xvar(3)


def test_nsjp_degree_one(ctx_each_kappa):
    ctx = ctx_each_kappa
    k = ctx.kappa
    # hand solve of the degree-1 joint eigenproblem
    assert nsjp((1, 0, 0), ctx).poly == xvar(1) + (k / (k + 1)) * (xvar(2) + xvar(3))
    assert nsjp((0, 1, 0), ctx).poly == xvar(2) + (k / (2 * k + 1)) * xvar(3)


def test_nsjp_monic_and_triangular(ctx):
    for alpha in combin.compositions_up_to(5, 3):
        rec = nsjp(alpha, ctx)
        assert rec.poly.coefficient(alpha) == 1
        for beta in rec.poly.terms:
            if beta != alpha:
                assert dominates(alpha, beta)


@pytest.mark.parametrize("nvars", (2, 3, 4))
@pytest.mark.parametrize("kappa, kappa_prime", [(k, Fraction(1, 2)) for k in KAPPAS]
                         + [(Fraction(5, 7), Fraction(1, 3))])
def test_yang_baxter_nsjp_matches_triangular_solve(nvars, kappa, kappa_prime):
    """Every composition of weight <= 6, built along the Yang-Baxter graph,
    equals the triangular solve of the joint eigenproblem."""
    ops._MEMO_CACHE.clear()
    ctx = make_context(kappa, kappa_prime, nvars)
    comps = list(combin.compositions_up_to(6, nvars))
    assert [nsjp(a, ctx).poly for a in comps] == [triangular_nsjp(a, ctx) for a in comps]


def test_nsjp_eigenfunction_sample(ctx_each_kappa):
    ctx = ctx_each_kappa
    for alpha in [(2, 0, 1), (0, 3, 1), (1, 1, 2)]:
        rec = nsjp(alpha, ctx)
        for i in (1, 2, 3):
            assert cherednik_a(i, rec.poly, ctx) == rec.spectral[i - 1] * rec.poly


def cherednik_matrix(i, degree, nvars, ctx):
    """Rows of U_i on the degree-graded monomials in canonical order:
    rows[r][c] is the coefficient of monomial r in U_i of monomial c."""
    monos = combin.compositions_of_weight(degree, nvars)
    index = {m: pos for pos, m in enumerate(monos)}
    rows = [{} for _ in monos]
    for col, m in enumerate(monos):
        for exp, coef in cherednik_a(i, SparsePoly.monomial(m, x_frame(nvars)), ctx).terms.items():
            rows[index[exp]][col] = coef
    return monos, rows


def nsjp_by_matrix(alpha, ctx):
    """Reference route: back-substitution on the full U_i matrices, row k
    against every coefficient solved before it."""
    nvars = len(alpha)
    degree = sum(alpha)
    xi_alpha = combin.spectral_vector(alpha, ctx)
    monos, _ = cherednik_matrix(1, degree, nvars, ctx)
    matrices = {}
    pos = monos.index(alpha)
    coeffs = [Fraction(0)] * len(monos)
    coeffs[pos] = Fraction(1)
    for k in range(pos + 1, len(monos)):
        xi = combin.spectral_vector(monos[k], ctx)
        sel = next(i for i in range(nvars) if xi[i] != xi_alpha[i]) + 1
        if sel not in matrices:
            matrices[sel] = cherednik_matrix(sel, degree, nvars, ctx)[1]
        acc = sum(
            (entry * coeffs[col] for col, entry in matrices[sel][k].items() if pos <= col < k),
            Fraction(0),
        )
        coeffs[k] = acc / (xi_alpha[sel - 1] - xi[sel - 1])
    return SparsePoly(nvars, x_frame(nvars), dict(zip(monos, coeffs)))


def test_nsjp_matches_matrix_solve(ctx_each_kappa):
    ctx = ctx_each_kappa
    for alpha in combin.compositions_up_to(5, 3):
        assert nsjp(alpha, ctx).poly == nsjp_by_matrix(alpha, ctx), alpha


def clear_jack4_caches():
    """Empty every ``*_CACHE`` dict and every ``cache_clear``-able object of
    jack4, by the rule of ``perfbench/workloads.clear_caches``."""
    for name, module in list(sys.modules.items()):
        if name != "jack4" and not name.startswith("jack4."):
            continue
        for attr, value in vars(module).items():
            if attr.endswith("_CACHE") and isinstance(value, dict):
                value.clear()
            elif callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def test_cache_reset_reaches_the_memo(ctx):
    first = nsjp((2, 1, 0), ctx)
    norm = gamma_norm((1, 0, 2), ctx)
    params = ctx.kappa.as_integer_ratio()
    key, f_key = ("gamma_norm", "y3", 3), ("invariant_F", "y3", 3)
    assert ops._MEMO_CACHE[params][key][(1, 0, 2)] is norm
    record = invariant_F((1, 1, 0), 1, ctx)
    assert ops._MEMO_CACHE[params][f_key][(1, 1, 0), 1] is record
    clear_jack4_caches()
    assert not ops._MEMO_CACHE
    second = nsjp((2, 1, 0), ctx)
    assert second is not first
    assert second == first
    assert gamma_norm((1, 0, 2), ctx) == norm
    assert ops._MEMO_CACHE[params][key] == {(1, 0, 2): norm}
    again = invariant_F((1, 1, 0), 1, ctx)
    assert again is not record and again == record
    assert ops._MEMO_CACHE[params][f_key] == {((1, 1, 0), 1): again}


def test_yang_baxter_steps_do_not_call_nsjp_again(monkeypatch):
    """The per-layer tracer counts nsjp requests by rebinding the module name
    jack.nsjp to a counting wrapper.  A cold zeta_(0,0,3) is one request: its
    seven ancestors along the Yang-Baxter graph come from the memo entry, not
    through that name."""
    ops._MEMO_CACHE.clear()
    calls = []
    build = jack.nsjp

    def counting(alpha, ctx):
        calls.append(alpha)
        return build(alpha, ctx)

    monkeypatch.setattr(jack, "nsjp", counting)
    record = jack.nsjp((0, 0, 3), make_context(Fraction(1, 2), 0, 3))
    assert calls == [(0, 0, 3)]
    assert record.poly.terms[0, 0, 3] == 1 and len(record.poly.terms) > 1


@pytest.mark.parametrize("nvars", (3, 4))
@pytest.mark.parametrize("kappa", KAPPAS, ids=str)
def test_yang_baxter_divisor_from_ranks_matches_the_spectral_vectors(nvars, kappa):
    """Every transposition step with |alpha| <= 6 takes its scale from the
    ranks of the parent beta in integers.  It equals -kappa over
    xi_i(beta) - xi_{i+1}(beta) read from the spectral vector, the route it
    replaced, and every record reads spectral and norm as the closed forms."""
    ctx = make_context(kappa, 0, nvars)
    steps = 0
    for alpha in combin.compositions_up_to(6, nvars):
        rec = nsjp(alpha, ctx)
        assert rec.spectral == combin.spectral_vector(alpha, ctx), alpha
        assert rec.norm == nsjp_norm(alpha, ctx), alpha
        if alpha[-1] or not any(alpha):
            continue
        i = max(p for p, a in enumerate(alpha) if a)
        beta = alpha[:i] + (0, alpha[i]) + alpha[i + 2:]
        xi = combin.spectral_vector(beta, ctx)
        assert jack._transposition_scale(beta, i, ctx) == -ctx.kappa / (xi[i] - xi[i + 1]), beta
        steps += 1
    assert steps == {3: 27, 4: 83}[nvars]  # the compositions of 1..6 in N - 1 parts


def test_yang_baxter_steps_build_no_spectral_vector_or_norm(monkeypatch):
    """A cold zeta_(0,0,3) and its seven ancestors compute no spectral vector
    and no norm; each is computed when its field is first read, and kept."""
    ops._MEMO_CACHE.clear()
    ctx = make_context(Fraction(1, 2), 0, 3)
    calls = []
    for owner, name in ((combin, "spectral_vector"), (jack, "nsjp_norm")):
        def counting(*args, f=getattr(owner, name), name=name):
            calls.append(name)
            return f(*args)
        monkeypatch.setattr(owner, name, counting)
    record = nsjp((0, 0, 3), ctx)
    assert calls == []
    for _ in range(2):
        assert record.spectral == (ctx.kappa + 1, 1, 2 * ctx.kappa + 4)
        assert record.norm == oracles.nsjp_norm((0, 0, 3), ctx)
    assert calls == ["spectral_vector", "nsjp_norm"]


def test_nsjp_validation():
    ctx = make_context(Fraction(1, 2), 0, 3)
    with pytest.raises(ValueError):
        nsjp((1, 0), ctx)
    ctx0 = make_context(0, 0, 3)
    with pytest.raises(ValueError):
        nsjp((1, 0, 0), ctx0)


def test_nsjp_cache_returns_same_record(ctx):
    assert nsjp((2, 1, 0), ctx) is nsjp((2, 1, 0), ctx)


def test_nsjp_norm_values(ctx_each_kappa):
    ctx = ctx_each_kappa
    k = ctx.kappa
    assert nsjp_norm((0, 0, 0), ctx) == 1
    assert nsjp_norm((0, 0, 1), ctx) == 2 * k + 1
    assert nsjp_norm((1, 0, 0), ctx) == (3 * k + 1) / (k + 1)
    # cross-check against the pairing for a couple of labels
    for alpha in [(1, 0, 0), (0, 2, 0), (1, 1, 0)]:
        rec = nsjp(alpha, ctx)
        assert pairing_kappa(rec.poly, rec.poly, ctx) == rec.norm


def test_nsjp_orthogonality_sample(ctx):
    labels = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 0, 0), (1, 1, 0)]
    for a, b in itertools.combinations(labels, 2):
        if sum(a) != sum(b):
            continue
        assert pairing_kappa(nsjp(a, ctx).poly, nsjp(b, ctx).poly, ctx) == 0


def test_symmetric_jack_values(ctx_each_kappa):
    ctx = ctx_each_kappa
    assert symmetric_jack((0, 0, 0), ctx) == SparsePoly.one(3, "x3")
    assert symmetric_jack((1, 0, 0), ctx) == xvar(1) + xvar(2) + xvar(3)
    with pytest.raises(ValueError):
        symmetric_jack((1, 2, 0), ctx)


def test_symmetric_jack_invariance(ctx):
    for lam in combin.partitions_up_to(4, 3):
        j = symmetric_jack(lam, ctx)
        assert j.coefficient(lam) == 1
        for swap in ((1, 0, 2), (0, 2, 1)):
            assert j.apply_permutation(swap) == j


def test_jack_norm_values(ctx_each_kappa):
    ctx = ctx_each_kappa
    assert jack_norm((0, 0, 0), ctx) == 1
    assert jack_norm((1, 0, 0), ctx) == 3  # kappa-independent
    # direct pairing agreement
    for lam in [(1, 1, 0), (2, 0, 0)]:
        j = symmetric_jack(lam, ctx)
        assert pairing_kappa(j, j, ctx) == jack_norm(lam, ctx)


def test_eval_ones(ctx_each_kappa):
    ctx = ctx_each_kappa
    k = ctx.kappa
    assert nsjp_eval_ones((0, 0, 0), ctx) == 1
    assert nsjp_eval_ones((0, 0, 1), ctx) == 1
    assert nsjp_eval_ones((1, 0, 0), ctx) == (3 * k + 1) / (k + 1)
    for alpha in [(2, 1, 0), (0, 1, 2), (3, 0, 0)]:
        assert nsjp(alpha, ctx).poly.evaluate((1, 1, 1)) == nsjp_eval_ones(alpha, ctx)
