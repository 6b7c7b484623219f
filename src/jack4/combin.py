"""Compositions, partitions, the canonical order, ranks and spectral vectors,
Ferrers-diagram leg lengths and hook products, generalized Pochhammer symbols,
and the symmetrization coefficients attached to rearrangements.

The closed forms run in integers.  Each of their factors is affine in kappa:
with kappa = p/q and t = t_n/t_d, the factor a + t + kappa L is the integer
a t_d q + t_n q + p L t_d over t_d q, and a factor 1 + eps kappa / (c kappa + a)
of E_eps is (c p + a q + eps p) / (c p + a q).  :func:`hook_product`,
:func:`rising_factorial`, :func:`gen_pochhammer`, :func:`e_epsilon` and
:func:`spectral_vector` multiply the integer numerators and denominators and
build one Fraction at the end; the norms take the pairs of ``_hook`` and
``_pochhammer`` to :func:`ratio`.  ``t`` may be an int, a Fraction or an
exact string; a binary float raises ValueError.

A composition is a tuple of nonnegative integers.  Node and operator indices
(the ``i`` of ``rank`` and the ``(i, j)`` of ``leg_length``) are 1-based, as
in the usual special-functions notation.  Permutations are 0-based tuples
``w`` with ``w[i]`` the image of position ``i``; they act on compositions by
``(w a)[w[i]] = a[i]``.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from math import factorial, prod
from operator import index

from .exact import ParamContext, Rat, as_rational

Composition = tuple[int, ...]


def as_parts(values) -> Composition:
    """values as a tuple of nonnegative ints; a part such as -1, 1.7 or
    Fraction(3, 2) raises ValueError instead of being taken or truncated."""
    values = tuple(values)
    try:
        parts = tuple(map(index, values))
    except TypeError:
        bad = next(v for v in values if not hasattr(v, "__index__"))
        raise ValueError(f"part {bad!r} of {values} is not an integer") from None
    if min(parts, default=0) < 0:
        raise ValueError(f"part {min(parts)} of {values} is negative")
    return parts


def weight(alpha) -> int:
    """Total degree |alpha|."""
    return sum(alpha)


def comp_length(alpha) -> int:
    """ell(alpha): the largest i with alpha_i > 0, or 0 for the zero composition."""
    out = 0
    for i, a in enumerate(alpha):
        if a > 0:
            out = i + 1
    return out


def is_partition(alpha) -> bool:
    return all(alpha[i] >= alpha[i + 1] for i in range(len(alpha) - 1))


def ranks(alpha) -> tuple[int, ...]:
    """All ranks r(alpha, i) = #{j: a_j > a_i} + #{j <= i: a_j = a_i}.

    The values form a permutation of 1..N; for a partition r(alpha, i) = i.
    """
    return tuple(
        sum(1 for a in alpha if a > alpha[i])
        + sum(1 for j in range(i + 1) if alpha[j] == alpha[i])
        for i in range(len(alpha))
    )


def rank(alpha, i: int) -> int:
    """r(alpha, i) for a 1-based index i."""
    if not 1 <= i <= len(alpha):
        raise IndexError(f"index {i} out of range for length {len(alpha)}")
    return ranks(alpha)[i - 1]


def permute_composition(w, alpha) -> Composition:
    """Apply w to a composition: (w alpha)_i = alpha_{w^-1(i)}."""
    out = [0] * len(alpha)
    for i, a in enumerate(alpha):
        out[w[i]] = a
    return tuple(out)


def sort_to_partition(alpha) -> tuple[Composition, tuple[int, ...]]:
    """Return (alpha+, w) with alpha+ = w alpha under the monomial action.

    Under ``permute_composition`` the sorting permutation is the rank map
    itself, w(i) = r(alpha, i): position i carries the part of rank r_i, so
    scattering alpha_i to slot r_i yields the decreasing rearrangement.
    """
    r = ranks(alpha)
    w = tuple(ri - 1 for ri in r)
    part = tuple(sorted(alpha, reverse=True))
    return part, w


def canonical_key(alpha) -> tuple:
    """Sort key for the total order refining dominance: total degree, then the
    sorted rearrangement lexicographically, then the composition itself.

    Lexicographic comparison refines prefix-sum dominance on equal-weight
    tuples, so if a dominates b (|a| = |b| and either a+ > b+ in the prefix-sum
    order, or a+ = b+ and a > b) then ``canonical_key(a) > canonical_key(b)``.
    """
    return (weight(alpha), tuple(sorted(alpha, reverse=True)), tuple(alpha))


def spectral_vector(alpha, ctx: ParamContext) -> tuple[Rat, ...]:
    """The N eigenvalue coordinates xi_i(alpha) = (N - r(alpha, i)) kappa + alpha_i + 1."""
    if len(alpha) != ctx.nvars_a:
        raise ValueError(f"composition length {len(alpha)} != context nvars {ctx.nvars_a}")
    n = len(alpha)
    r = ranks(alpha)
    p, q = ctx.kappa.as_integer_ratio()
    return tuple(Fraction((n - r[i]) * p + (alpha[i] + 1) * q, q) for i in range(n))


def leg_length(alpha, i: int, j: int) -> int:
    """L(alpha; i, j) = #{l > i: j <= a_l <= a_i} + #{l < i: j <= a_l + 1 <= a_i}
    for a node (i, j) of the Ferrers diagram, 1 <= j <= alpha_i."""
    if not (1 <= i <= len(alpha) and 1 <= j <= alpha[i - 1]):
        raise ValueError(f"node ({i}, {j}) outside the Ferrers diagram of {tuple(alpha)}")
    ai = alpha[i - 1]
    below = sum(1 for l in range(i, len(alpha)) if j <= alpha[l] <= ai)
    above = sum(1 for l in range(i - 1) if j <= alpha[l] + 1 <= ai)
    return below + above


def hook_product(alpha, t, ctx: ParamContext) -> Rat:
    """h(alpha, t): product over nodes (i, j), 1 <= j <= alpha_i, of
    alpha_i - j + t + kappa * L(alpha; i, j).  Empty product is 1."""
    return Fraction(*_hook(alpha, *as_rational(t).as_integer_ratio(),
                           *ctx.kappa.as_integer_ratio()))


def _hook(alpha, tn: int, td: int, p: int, q: int) -> tuple[int, int]:
    """h(alpha, tn/td) at kappa = p/q as an integer numerator and denominator."""
    num = den = 1
    for i in range(1, comp_length(alpha) + 1):
        for j in range(1, alpha[i - 1] + 1):
            num *= ((alpha[i - 1] - j) * td + tn) * q + p * td * leg_length(alpha, i, j)
            den *= td * q
    return num, den


def rising_factorial(t, n: int) -> Rat:
    """Ordinary Pochhammer symbol (t)_n = t (t+1) ... (t+n-1)."""
    return Fraction(*_pochhammer((n,), *as_rational(t).as_integer_ratio(), 0, 1))


def gen_pochhammer(lam, t, ctx: ParamContext) -> Rat:
    """Generalized Pochhammer symbol (t)_lambda = prod_i prod_{j=0}^{lambda_i - 1}
    (t - (i-1) kappa + j), for a partition lambda."""
    if not is_partition(lam):
        raise ValueError(f"{tuple(lam)} is not a partition")
    return Fraction(*_pochhammer(lam, *as_rational(t).as_integer_ratio(),
                                 *ctx.kappa.as_integer_ratio()))


def _pochhammer(lam, tn: int, td: int, p: int, q: int) -> tuple[int, int]:
    """(tn/td)_lambda at kappa = p/q as an integer numerator and denominator."""
    num = den = 1
    for i, part in enumerate(lam):
        for j in range(part):
            num *= (tn + j * td) * q - i * p * td
            den *= td * q
    return num, den


def e_epsilon(alpha, eps: int, ctx: ParamContext) -> Rat:
    """Symmetrization coefficient: the product over pairs i < j with
    alpha_i < alpha_j of 1 + eps*kappa / ((r_i - r_j) kappa + alpha_j - alpha_i)."""
    if eps not in (1, -1):
        raise ValueError("eps must be +1 or -1")
    r = ranks(alpha)
    p, q = ctx.kappa.as_integer_ratio()
    num = den = 1
    for i in range(len(alpha)):
        for j in range(i + 1, len(alpha)):
            if alpha[i] < alpha[j]:
                d = (r[i] - r[j]) * p + (alpha[j] - alpha[i]) * q
                num *= d + eps * p
                den *= d
    return Fraction(num, den)


def ratio(*factors) -> Rat:
    """The product of (numerator, denominator) pairs, as one Fraction."""
    nums, dens = zip(*factors)
    return Fraction(prod(nums), prod(dens))


def orbit_count(lam) -> int:
    """#{alpha: alpha+ = lam}: the multinomial N! / prod(multiplicity!)."""
    counts = Counter(lam)
    out = factorial(len(lam))
    for c in counts.values():
        out //= factorial(c)
    return out


def compositions_of_weight(n: int, nvars: int) -> list[Composition]:
    """All compositions of weight n with nvars parts, in descending canonical
    order (the order used by the triangular solver)."""
    out: list[Composition] = []

    def fill(prefix: list[int], remaining: int, slots: int) -> None:
        if slots == 1:
            out.append(tuple(prefix + [remaining]))
            return
        for a in range(remaining + 1):
            fill(prefix + [a], remaining - a, slots - 1)

    fill([], n, nvars)
    out.sort(key=canonical_key, reverse=True)
    return out


def compositions_up_to(max_weight: int, nvars: int):
    """All compositions with weight <= max_weight, degree by degree."""
    for n in range(max_weight + 1):
        yield from compositions_of_weight(n, nvars)


def partitions_of_weight(n: int, nvars: int) -> list[Composition]:
    return [c for c in compositions_of_weight(n, nvars) if is_partition(c)]


def partitions_up_to(max_weight: int, nvars: int):
    for n in range(max_weight + 1):
        yield from partitions_of_weight(n, nvars)


def rearrangements(lam) -> list[Composition]:
    """The distinct permutations {alpha: alpha+ = lam}, canonically ordered."""
    return sorted(set(itertools.permutations(lam)), key=canonical_key, reverse=True)
