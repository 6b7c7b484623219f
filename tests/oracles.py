"""Test-only reference routes.

Each function here is a slow, direct route that a fast path of jack4 is
compared against exactly: permutation algebra for the group actions, the
dominance order that the canonical order refines, the Fraction products of
the closed forms and of the norms built from them for their integer
versions, the linear forms of the half-Hadamard change for the butterflies,
the y0 split for the tensor form of the extended pairing, the Fraction
kernel of the operators for their integer images, the eight D'_i of the
x4 Laplacian for its two sign terms, and the Fraction
recursion of the monomial pairing for the integer pairing and its dual
vectors, the visit of every pair for the block-diagonal Gram checks, the
Fraction Gram entries of fresh dual vectors for the integer ones of kept
dual vectors, the y4 Gram of the prop2 family for its A1 x D3
factorization, the triangular eigen-solve for the Yang-Baxter construction
of the nonsymmetric Jacks, the signed exp(+-Delta/2) series and the
conjugation sandwich for the Hadamard-lemma route of the identities, the y4
products of the spectrum for its A1 x D3 factors, and the row-major Monte
Carlo batches for the column-major ones.
"""

from __future__ import annotations

import math
from fractions import Fraction

from jack4 import combin, hermite_cs, verify
from jack4.basis4 import basis_poly4, decompose_label
from jack4.combin import comp_length, is_partition, leg_length, ranks, weight
from jack4.exact import format_rational
from jack4.measure import _BATCH, _as_x_frame, normalization_constant
from jack4.ops import (Dual, _apply, _image, _memo, _quotient, _reflect, _roots, _weights, d0_squared,
                       dunkl_a, dunkl_b, dunkl_d0, dunkl_prime, euler, laplacian, laplacian_b)
from jack4.poly import _HADAMARD, Y0, Y3, Y4, SparsePoly, _accumulate, is_x_frame, x_frame

# ---------------------------------------------------------------------- permutations


def inverse_permutation(w) -> tuple[int, ...]:
    out = [0] * len(w)
    for i, wi in enumerate(w):
        out[wi] = i
    return tuple(out)


def compose_permutations(w1, w2) -> tuple[int, ...]:
    """w1 after w2, so that (w1 w2) alpha = w1 (w2 alpha)."""
    return tuple(w1[w2[i]] for i in range(len(w2)))


# ---------------------------------------------------------------------- dominance


def partial_dominates(a, b) -> bool:
    """a > b in the prefix-sum order: a != b and all partial sums of a >= those of b."""
    if len(a) != len(b):
        raise ValueError("length mismatch")
    if tuple(a) == tuple(b):
        return False
    sa = sb = 0
    for x, y in zip(a, b):
        sa += x
        sb += y
        if sa < sb:
            return False
    return True


def dominates(a, b) -> bool:
    """The strict order used for triangularity: |a| = |b| and either a+ > b+
    in the prefix-sum order, or a+ = b+ and a > b."""
    if len(a) != len(b):
        raise ValueError("length mismatch")
    if weight(a) != weight(b):
        return False
    ap = tuple(sorted(a, reverse=True))
    bp = tuple(sorted(b, reverse=True))
    if ap != bp:
        return partial_dominates(ap, bp)
    return partial_dominates(a, b)


# ---------------------------------------------------------------------- closed forms


def spectral_vector(alpha, ctx) -> tuple[Fraction, ...]:
    """xi_i(alpha) = (N - r(alpha, i)) kappa + alpha_i + 1, in Fractions."""
    n = len(alpha)
    r = ranks(alpha)
    return tuple(Fraction(n - r[i]) * ctx.kappa + alpha[i] + 1 for i in range(n))


def hook_product(alpha, t, ctx) -> Fraction:
    """h(alpha, t) = prod over nodes (i, j) of alpha_i - j + t + kappa L(alpha; i, j),
    one Fraction product per node."""
    t = Fraction(t)
    out = Fraction(1)
    for i in range(1, comp_length(alpha) + 1):
        for j in range(1, alpha[i - 1] + 1):
            out *= alpha[i - 1] - j + t + ctx.kappa * leg_length(alpha, i, j)
    return out


def rising_factorial(t, n: int) -> Fraction:
    """(t)_n = t (t+1) ... (t+n-1), one Fraction product per factor."""
    t = Fraction(t)
    out = Fraction(1)
    for j in range(n):
        out *= t + j
    return out


def gen_pochhammer(lam, t, ctx) -> Fraction:
    """(t)_lambda = prod_i (t - (i-1) kappa)_{lambda_i}, in Fractions."""
    if not is_partition(lam):
        raise ValueError(f"{tuple(lam)} is not a partition")
    t = Fraction(t)
    out = Fraction(1)
    for i, part in enumerate(lam):
        out *= rising_factorial(t - i * ctx.kappa, part)
    return out


def e_epsilon(alpha, eps: int, ctx) -> Fraction:
    """E_eps(alpha) = prod over i < j with alpha_i < alpha_j of
    1 + eps kappa / ((r_i - r_j) kappa + alpha_j - alpha_i), in Fractions."""
    if eps not in (1, -1):
        raise ValueError("eps must be +1 or -1")
    r = ranks(alpha)
    out = Fraction(1)
    for i in range(len(alpha)):
        for j in range(i + 1, len(alpha)):
            if alpha[i] < alpha[j]:
                denom = Fraction(r[i] - r[j]) * ctx.kappa + alpha[j] - alpha[i]
                out *= 1 + Fraction(eps) * ctx.kappa / denom
    return out


def nsjp_norm(alpha, ctx) -> Fraction:
    """(N kappa + 1)_{alpha+} h(alpha, 1) / h(alpha, kappa + 1), a Fraction per factor."""
    plus = tuple(sorted(alpha, reverse=True))
    top = gen_pochhammer(plus, len(alpha) * ctx.kappa + 1, ctx)
    return top * hook_product(alpha, 1, ctx) / hook_product(alpha, ctx.kappa + 1, ctx)


def jack_norm(lam, ctx) -> Fraction:
    """#{alpha: alpha+ = lambda} (N kappa + 1)_lambda h(lambda, 1)
    / (E_1(lambda reversed) h(lambda, kappa + 1)), a Fraction per factor."""
    value = combin.orbit_count(lam) * gen_pochhammer(lam, len(lam) * ctx.kappa + 1, ctx)
    value *= hook_product(lam, 1, ctx)
    value /= e_epsilon(lam[::-1], 1, ctx) * hook_product(lam, ctx.kappa + 1, ctx)
    return value


def y0_power_norm(n: int, ctx) -> Fraction:
    """2^{2m} m! (kappa'+1/2)_m for n = 2m, 2^{2m+1} m! (kappa'+1/2)_{m+1} for
    n = 2m+1, a Fraction per factor."""
    m, odd = divmod(n, 2)
    value = Fraction(2) ** (2 * m + odd) * rising_factorial(ctx.kappa_prime + Fraction(1, 2),
                                                             m + odd)
    for j in range(1, m + 1):
        value *= j
    return value


def gamma_norm(gamma, ctx) -> Fraction:
    """2^{|beta|} (3 kappa + 1)_{alpha+} (2 kappa + 1/2)_{(beta-alpha)+}
    h(alpha, 1) / h(alpha, kappa + 1), a Fraction per factor."""
    d = decompose_label(gamma)
    alpha_plus = tuple(sorted(d.alpha, reverse=True))
    diff_plus = tuple(sorted((b - a for b, a in zip(d.beta, d.alpha)), reverse=True))
    value = Fraction(2) ** weight(d.beta)
    value *= gen_pochhammer(alpha_plus, 3 * ctx.kappa + 1, ctx)
    value *= gen_pochhammer(diff_plus, 2 * ctx.kappa + Fraction(1, 2), ctx)
    value *= hook_product(d.alpha, 1, ctx)
    return value / hook_product(d.alpha, ctx.kappa + 1, ctx)


# ---------------------------------------------------------------------- coordinates


def hadamard_forms(src_frame: str, dst_frame: str) -> list[SparsePoly]:
    """The half-Hadamard change as linear forms in ``dst_frame``, one per
    variable of ``src_frame``, for ``poly.substitute_linear``."""
    half = Fraction(1, 2)
    forms = []
    for j in range(4):
        terms = {}
        for i in range(4):
            exp = tuple(1 if v == i else 0 for v in range(4))
            terms[exp] = half * _HADAMARD[i][j]
        forms.append(SparsePoly(4, dst_frame, terms))
    return forms


def split_y0(f: SparsePoly) -> dict[int, SparsePoly]:
    """Decompose a y4 polynomial as sum_k y_0^k f_k(y_1, y_2, y_3)."""
    if f.frame != "y4":
        raise ValueError("split_y0 expects the y4 frame")
    parts: dict[int, dict] = {}
    for exp, coef in f.terms.items():
        parts.setdefault(exp[0], {})[exp[1:]] = coef
    return {k: SparsePoly(3, "y3", terms) for k, terms in parts.items()}


# ---------------------------------------------------------------------- operators


def _fraction_kernel(p, exp, c, rows, ctx, acc) -> dict:
    """Add c * D_{e_p} v^exp to acc, over the root table rows, with the
    Fraction weights (1, kappa, kappa'); returns acc."""
    if exp[p]:
        _accumulate(acc, exp[:p] + (exp[p] - 1,) + exp[p + 1:], c * exp[p])
    for q, s in rows[p]:
        w = ctx.kappa_prime if q is None else ctx.kappa
        for e2, sign in _quotient(exp, p, q, s):
            _accumulate(acc, e2, c * w * sign)
    return acc


def fraction_operator(op, f: SparsePoly, ctx) -> SparsePoly:
    """op f for op = ("D", p), ("U", p) or ("L", positions) of ``jack4.ops``,
    term by term in Fractions: D_p from the kernel, U_p f = D_p(v_p f) - kappa *
    (sum of s_alpha f over the roots (q, s) of row p with q < p), and
    L = sum of D_p^2 over the positions."""
    (kind, arg), rows = op, _roots(f.frame)[0]
    acc: dict = {}
    for exp, c in f.terms.items():
        if kind == "D":
            _fraction_kernel(arg, exp, c, rows, ctx, acc)
        elif kind == "L":
            for p in arg:
                for e2, c2 in _fraction_kernel(p, exp, c, rows, ctx, {}).items():
                    _fraction_kernel(p, e2, c2, rows, ctx, acc)
        else:  # "U"
            _fraction_kernel(arg, exp[:arg] + (exp[arg] + 1,) + exp[arg + 1:], c, rows, ctx, acc)
            for q, s in rows[arg]:
                if q is not None and q < arg:
                    e2, sign = _reflect(exp, arg, q, s)
                    _accumulate(acc, e2, -sign * ctx.kappa * c)
    return SparsePoly(f.nvars, f.frame, acc)


def laplacian_h_by_dunkl_prime(f: SparsePoly, ctx) -> SparsePoly:
    """Delta_h f = sum_i D'_i D'_i f on x4 by the definition, eight
    ``dunkl_prime`` calls and so eight sign terms."""
    out = SparsePoly.zero(4, "x4")
    for i in (1, 2, 3, 4):
        out = out + dunkl_prime(i, dunkl_prime(i, f, ctx), ctx)
    return out


# ---------------------------------------------------------------------- pairings


def _dunkl_at(frame: str, p: int):
    """The Dunkl operator along the coordinate at position p of a frame."""
    if is_x_frame(frame):
        return lambda f, ctx: dunkl_a(p + 1, f, ctx)
    if frame == "y3":
        return lambda f, ctx: dunkl_b(p + 1, f, ctx)
    if frame == "y4":
        return dunkl_d0 if p == 0 else (lambda f, ctx: dunkl_b(p, f, ctx))
    raise ValueError(f"no pairing oracle in frame {frame!r}")


# Positions of the irreducible components of the root system, where there is
# more than one: y_0 and (y_1, y_2, y_3) in y4.
_COMPONENTS = {"y4": (slice(0, 1), slice(1, 4))}


def pairing_by_fractions(f: SparsePoly, g: SparsePoly, ctx) -> Fraction:
    """<f, g> = f(D) g at the origin, in the frame of f and g (an x frame, y3
    or y4), by the Fraction recursion

        <v^a, v^b> = <v^(a - e_p), D_{e_p} v^b>,   p the first position with a_p > 0,

    memoized within the call, over the monomials whose degrees agree on every
    component of the root system.  The images D_{e_p} v^b come from the
    public operators."""
    frame, nvars = f.frame, f.nvars
    if g.frame != frame or g.nvars != nvars:
        raise ValueError("pairing needs matching frames")
    blocks = _COMPONENTS.get(frame, (slice(0, nvars),))
    dunkl = [_dunkl_at(frame, p) for p in range(nvars)]
    images: dict = {}
    pairs: dict = {}

    def image(p, b):
        if (p, b) not in images:
            images[p, b] = dunkl[p](SparsePoly.monomial(b, frame), ctx).terms
        return images[p, b]

    def monomial_pairing(a, b):
        if (a, b) not in pairs:
            p = next((q for q, e in enumerate(a) if e), None)
            if p is None:
                value = Fraction(1)
            else:
                lower = a[:p] + (a[p] - 1,) + a[p + 1:]
                value = Fraction(0)
                for c, coef in image(p, b).items():
                    value += coef * monomial_pairing(lower, c)
            pairs[a, b] = value
        return pairs[a, b]

    def degrees(exp):
        return tuple(sum(exp[s]) for s in blocks)

    total = Fraction(0)
    for ea, ca in f.terms.items():
        for eb, cb in g.terms.items():
            if degrees(ea) == degrees(eb):
                total += ca * cb * monomial_pairing(ea, eb)
    return total


def block_gram(rep, polys: list, norms: list, ctx, describe) -> None:
    """``verify.check_gram`` as it was before the Gram entries became integer
    ratios: one dual vector per polynomial, the pairs of two elements with
    different single block keys counted in bulk, every other pair i <= j
    paired as a Fraction and recorded, in that order."""
    duals = [Dual(f, ctx) for f in polys]
    keys = [next(iter(d.by_blocks)) if len(d.by_blocks) == 1 else None for d in duals]
    blocks: dict = {}
    for j, key in enumerate(keys):
        blocks.setdefault(key, []).append(j)
    mixed = blocks.pop(None, [])
    n = len(duals)
    for i, f in enumerate(duals):
        key = keys[i]
        js = range(i, n) if key is None else sorted(j for j in blocks[key] + mixed if j >= i)
        rep.checked += n - i - len(js)
        for j in js:
            value = duals[j].pair(f)
            expected = norms[i] if i == j else 0
            rep.record(value == expected, lambda: describe(i, j, value, expected))


def prop1_by_polys(ctx, max_degree: int):
    """``verify.suite_prop1`` with a fresh dual vector per zeta_alpha and
    Fraction Gram entries (:func:`block_gram`); the records come from
    ``verify.nsjp``."""
    rep = verify.SuiteReport("prop1", verify._params(ctx), max_degree)
    comps = list(combin.compositions_up_to(max_degree, ctx.nvars_a))
    records = [verify.nsjp(alpha, ctx) for alpha in comps]
    block_gram(rep, [rec.poly for rec in records], [rec.norm for rec in records], ctx,
               lambda i, j, v, e: (f"<zeta_{comps[i]}, zeta_{comps[j]}> = "
                                   f"{format_rational(v)}, expected {format_rational(e)}"))
    return rep


def prop2_in_y4(ctx, max_degree: int):
    """``verify.suite_prop2`` by the route the A1 x D3 factorization replaced:
    :func:`block_gram` over the dual vectors of p_gamma y_0^n in y4, whose
    memo keys carry kappa_prime; the norms come from ``verify.basis_norm``."""
    rep = verify.SuiteReport("prop2", verify._params(ctx), max_degree)
    labels = verify.basis_labels_up_to(max_degree)
    polys = [basis_poly4(lab, ctx) for lab in labels]
    norms = [verify.basis_norm(lab, ctx) for lab in labels]
    block_gram(rep, polys, norms, ctx, lambda i, j, v, e: (
        f"<p_{labels[i].gamma} y0^{labels[i].n}, p_{labels[j].gamma} y0^{labels[j].n}> = "
        f"{format_rational(v)}, expected {format_rational(e)}"))
    return rep


def upper_pairings(polys: list, ctx):
    """(i, j, <polys[i], polys[j]>) for i <= j, in that order, through one
    dual vector per element: each element is scaled to integers once, and
    each pairing is one integer dot product (see :class:`jack4.ops.Dual`).
    The polynomials share an x frame or y3 (the kappa pairing) or y4 (the
    extended pairing)."""
    duals = [Dual(f, ctx) for f in polys]
    for i, f in enumerate(duals):
        for j in range(i, len(duals)):
            yield i, j, duals[j].pair(f)


def gram_by_every_pair(rep, polys: list, norms: list, ctx, describe) -> None:
    """``verify.check_gram`` with every pair i <= j paired and recorded, in
    that order, through :func:`upper_pairings`."""
    for i, j, value in upper_pairings(polys, ctx):
        expected = norms[i] if i == j else 0
        rep.record(value == expected, lambda: describe(i, j, value, expected))


# ---------------------------------------------------------------------- nonsymmetric Jacks


def triangular_nsjp(alpha, ctx) -> SparsePoly:
    """zeta_alpha by back-substitution in the canonical order.

    The solve runs on the eigen-equation of U_1 and, whenever a lower
    monomial shares the same U_1 eigenvalue, falls back to the first U_i
    that separates it (the joint spectrum is simple for kappa > 0).  For
    each U_i it uses, it keeps U_i applied to the part solved so far, from
    the memoized integer images Q U_i on monomials: each solved value is
    divided by Q once before it enters them.  It neither reads nor writes
    the "nsjp" memo entry, so it never returns a polynomial that
    ``jack.nsjp`` built.
    """
    alpha = tuple(int(a) for a in alpha)
    nvars = len(alpha)
    frame = x_frame(nvars)
    scale = _weights(frame, ctx)[0]  # the memo holds Q U_i
    xi_alpha = combin.spectral_vector(alpha, ctx)
    monos = combin.compositions_of_weight(combin.weight(alpha), nvars)
    coeffs = {alpha: Fraction(1)}
    running: dict = {}  # sel -> terms of U_sel applied to the part solved so far
    for m in monos[monos.index(alpha) + 1:]:
        xi = combin.spectral_vector(m, ctx)
        sel = next((i for i in range(nvars) if xi[i] != xi_alpha[i]), None)
        if sel is None:
            raise ArithmeticError(f"spectral vectors of {alpha} and {m} collide")
        if sel not in running:
            solved = SparsePoly._of(nvars, frame, dict(coeffs))  # coeffs keeps growing
            running[sel] = dict(_apply(("U", sel), solved, ctx).terms)
        value = running[sel].get(m, 0) / (xi_alpha[sel] - xi[sel])
        if value:
            coeffs[m] = value
            value /= scale
            for i, acc in running.items():
                for exp, c in _memo(("U", i), frame, nvars, ctx, _image)[m].items():
                    _accumulate(acc, exp, value * c)
    return SparsePoly._of(nvars, frame, coeffs)


# ---------------------------------------------------------------------- exp(+-Delta/2)


def exp_series(kind: str, f: SparsePoly, ctx, sign: int) -> SparsePoly:
    """exp(sign * Delta / 2) f for sign = +-1, as the terminating series
    sum (sign/2)^n / n! Delta^n f of the Laplacian of the given kind."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    out = f
    term = laplacian(kind, f, ctx)
    n = 1
    while not term.is_zero():
        out = out + term * (Fraction(sign, 2) ** n / math.factorial(n))
        term = laplacian(kind, term, ctx)
        n += 1
    return out


def identities_by_sandwich(ctx, max_degree: int) -> list:
    """``hermite_cs.operator_identities_check`` by the route the Hadamard
    lemma replaced: each conjugation exp(-Delta/2) A exp(Delta/2) f expanded
    through :func:`exp_series` on every monomial f and compared with its
    right-hand side."""
    y3 = [(f"monomial {e}", SparsePoly.monomial(e, Y3))
          for e in combin.compositions_up_to(max_degree, 3)]
    y0 = [(f"y0^{m}", SparsePoly.monomial((m,), Y0)) for m in range(max_degree + 1)]
    y4 = [(f"monomial {e}", SparsePoly.monomial(e, Y4))
          for e in combin.compositions_up_to(max_degree, 4)]

    def conjugate(kind, op, f):
        return exp_series(kind, op(exp_series(kind, f, ctx, 1)), ctx, -1)

    def sum_b(g):
        return hermite_cs._sum_cherednik_b(g, ctx)

    def d0y0(g):
        return hermite_cs._d0y0_minus_sigma(g, ctx)

    identity = hermite_cs._identity
    return [
        identity("cherednik-sum-conjugation", y3, lambda f: (
            conjugate("B", sum_b, f)
            == -laplacian_b(f, ctx) + euler(f) + (6 * ctx.kappa + 3) * f)),
        identity("d0y0-conjugation", y0, lambda f: (
            conjugate("D0", d0y0, f)
            == -d0_squared(f, ctx) + euler(f) + (ctx.kappa_prime + 1) * f)),
        identity("d0-squared-decomposition", y0,
                 lambda f: d0_squared(f, ctx) == hermite_cs._d0sq_termwise(f, ctx)),
        identity("d0y0-eigenvalue", y0, lambda f: (
            d0y0(f) == (f.degree() + 1 + ctx.kappa_prime) * f)),
        identity("hamiltonian-conjugation", y4, lambda f: (
            hermite_cs.conjugated_hamiltonian(f, ctx)
            == conjugate("H", lambda g: sum_b(g) + d0y0(g) - 2 * g, f))),
    ]


def spectrum_in_y4(ctx, max_degree: int):
    """``verify.suite_spectrum`` by the route the A1 x D3 factors replaced:
    the conjugated Hamiltonian on each y4 product of ``hermite_basis``, whose
    series runs once per (gamma, n)."""
    rep = verify.SuiteReport("spectrum", verify._params(ctx), max_degree)
    by_degree: dict = {}
    for lab in verify.basis_labels_up_to(max_degree):
        rec = hermite_cs.hermite_basis(lab, ctx)
        image = hermite_cs.conjugated_hamiltonian(rec.poly, ctx)
        rep.record(image == rec.energy * rec.poly,
                   lambda l=lab: f"spectrum fails at gamma={l.gamma}, n={l.n}")
        by_degree.setdefault(weight(lab.gamma) + lab.n, set()).add(rec.energy)
    for degree, energies in sorted(by_degree.items()):
        rep.record(len(energies) == 1,
                   lambda d=degree: f"energy not constant across labels of degree {d}")
    return rep


# ---------------------------------------------------------------------- Monte Carlo


def _row_major_compile(f):
    """f's exponents as an int64 array and its coefficients as floats, in
    canonical order."""
    import numpy as np

    terms = f.ordered_terms()
    exps = np.array([e for e, _ in terms], dtype=np.int64)
    coefs = np.array([float(c) for _, c in terms])
    return exps, coefs


def _row_major_eval(compiled, x):
    """f at the rows of x, one np.full term at a time, with strided powers."""
    import numpy as np

    exps, coefs = compiled
    out = np.zeros(x.shape[0])
    for exp, coef in zip(exps, coefs):
        term = np.full(x.shape[0], coef)
        for v in range(4):
            if exp[v]:
                term *= x[:, v] ** exp[v]
        out += term
    return out


def _row_major_weighted_product(weight, cf, cg, x):
    if cg is cf:
        v = _row_major_eval(cf, x)
        return weight * v * v
    return weight * _row_major_eval(cf, x) * _row_major_eval(cg, x)


def row_major_mc_inner_products(pairs, cfg) -> list[tuple[float, float]]:
    """``measure.mc_inner_products`` with each batch held as an (m, 4) array
    of points: one draw per batch, out-of-place weights, and sums of unscaled
    values, whose squares underflow to 0 once the weight is tiny."""
    import numpy as np

    compiled = []
    for f, g in pairs:
        cf = _row_major_compile(_as_x_frame(f))
        compiled.append((cf, cf if g is f else _row_major_compile(_as_x_frame(g))))
    c = normalization_constant(cfg.kappa, cfg.kappa_prime)
    roots = [(i, j) for i in range(4) for j in range(i + 1, 4)]

    total = [0.0] * len(compiled)
    total_sq = [0.0] * len(compiled)
    done = 0
    batch_index = 0
    while done < cfg.samples:
        m = min(_BATCH, cfg.samples - done)
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=cfg.seed, spawn_key=(batch_index,))
        )
        x = rng.standard_normal((m, 4))
        weight = np.full(m, c)
        if cfg.kappa:
            for i, j in roots:
                weight *= np.abs(x[:, i] - x[:, j]) ** (2 * cfg.kappa)
        if cfg.kappa_prime:
            weight *= np.abs(0.5 * x.sum(axis=1)) ** (2 * cfg.kappa_prime)
        for k, (cf, cg) in enumerate(compiled):
            vals = _row_major_weighted_product(weight, cf, cg, x)
            total[k] += float(vals.sum())
            total_sq[k] += float((vals * vals).sum())
            del vals
        done += m
        batch_index += 1

    n = cfg.samples
    results = []
    for t, t_sq in zip(total, total_sq):
        mean = t / n
        variance = max(0.0, (t_sq - n * mean * mean) / (n - 1))
        results.append((mean, math.sqrt(variance / n)))
    return results
