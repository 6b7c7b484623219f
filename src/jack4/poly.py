"""Sparse multivariate polynomials over exact rationals.

Polynomials carry a coordinate-frame tag so that quantities written in the
x-coordinates (the natural coordinates of R^N with the permutation action)
cannot silently mix with quantities written in the y-coordinates (the
half-Hadamard orthonormal coordinates y_0..y_3).  Every fact about a frame,
its coordinate names and the components of its root system, is read from
the one table :data:`_FRAMES` through :func:`frame_spec`.

The x4 <-> y4 change of coordinates is exact.  The half-Hadamard matrix is
H2 (x) H2 with y_1 and y_2 swapped, so :func:`to_y` and :func:`to_x` run as
a fast Walsh-Hadamard transform on exponents: two stages of pairwise
binomial butterflies, a swap, and a factor 2^-deg per monomial.

Values are immutable by convention: every operation allocates a new
polynomial.  Terms are an unordered map; :meth:`SparsePoly.ordered_terms`
applies the descending canonical monomial order where order shows (repr,
JSON, CSV and the float sums of :mod:`jack4.measure`).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from . import combin
from .exact import Rat, as_rational, format_rational, parse_rational

X4 = "x4"
Y4 = "y4"
Y3 = "y3"
Y0 = "y0"

# Rows of the half-Hadamard matrix: y_i = <x, v_i> with v_i = _HADAMARD[i] / 2.
# The matrix is symmetric and orthogonal, hence an involution: x = y M as well.
# It is H2 (x) H2 with rows 1 and 2 swapped (H2 = [[1, 1], [1, -1]]), which is
# what lets :func:`to_y` and :func:`to_x` run as pairwise butterflies.
_HADAMARD = (
    (1, 1, 1, 1),
    (1, 1, -1, -1),
    (1, -1, 1, -1),
    (1, -1, -1, 1),
)


def x_frame(nvars: int) -> str:
    return f"x{nvars}"


def is_x_frame(frame: str) -> bool:
    return frame.startswith("x")


class FrameSpec(NamedTuple):
    """One row of the frame table.  ``names`` are the coordinate names by
    exponent position.  ``components`` are the irreducible components of the
    root system as (lo, hi, signs): the positions lo..hi-1 carry the roots
    v_p - s v_q for s in signs, weighted by kappa, or, for signs None, the
    one position lo carries the A1 root v_lo, weighted by kappa_prime."""

    names: tuple[str, ...]
    components: tuple


# The frames of fixed size; the x frames x{N} are built by frame_spec.  The
# S4 roots x_i - x_j of x4 are the D3 roots y_i -+ y_j of y4, and y_0 spans
# the A1 factor of the extended group.  "t" is a scratch univariate frame
# (the Laguerre argument) with no root system.
_FRAMES = {
    Y4: FrameSpec(("y0", "y1", "y2", "y3"), ((0, 1, None), (1, 4, (1, -1)))),
    Y3: FrameSpec(("y1", "y2", "y3"), ((0, 3, (1, -1)),)),
    Y0: FrameSpec(("y0",), ((0, 1, None),)),
    "t": FrameSpec(("t",), ()),
}


@lru_cache(maxsize=None)
def frame_spec(frame: str) -> FrameSpec:
    """The coordinate names and root components of a frame: a row of
    :data:`_FRAMES`, or for x{N} the type-A roots x_p - x_q of x_1..x_N."""
    spec = _FRAMES.get(frame)
    if spec is not None:
        return spec
    digits = frame[1:]
    if not (frame.startswith("x") and digits.isdigit() and frame == x_frame(int(digits))):
        raise ValueError(f"unknown frame {frame!r}")
    n = int(digits)
    return FrameSpec(tuple(f"x{i}" for i in range(1, n + 1)), ((0, n, (1,)),))


@lru_cache(maxsize=None)
def position(frame: str, name: str) -> int:
    """The exponent position of the coordinate ``name`` in a frame."""
    names = frame_spec(frame).names
    if name not in names:
        raise ValueError(f"frame {frame!r} has no coordinate {name}")
    return names.index(name)


def _check_frame(frame: str, nvars: int) -> None:
    n = len(frame_spec(frame).names)
    if nvars != n:
        raise ValueError(f"frame {frame!r} requires nvars={n}")


def var_names(frame: str) -> tuple[str, ...]:
    """Display names of the coordinates of a frame."""
    return frame_spec(frame).names


class SparsePoly:
    """A finite, unordered map ``terms`` from exponent vectors to nonzero
    Fractions.  The constructor takes terms from outside the package: ints,
    Fractions or exact strings such as "0.1", never binary floats (0.1 would
    silently become 3602879701896397/2^55); it checks the exponents, merges
    duplicates and drops zeros.  Internal results are wrapped by :meth:`_of`.
    """

    __slots__ = ("nvars", "frame", "terms")

    def __init__(self, nvars: int, frame: str, terms=None):
        _check_frame(frame, nvars)
        merged: dict[tuple[int, ...], Fraction] = {}
        items = terms.items() if isinstance(terms, dict) else (terms or ())
        for exp, coef in items:
            exp = combin.as_parts(exp)
            if len(exp) != nvars:
                raise ValueError(f"bad exponent vector {exp} for nvars={nvars}")
            _accumulate(merged, exp, as_rational(coef))
        self.nvars = nvars
        self.frame = frame
        self.terms = merged

    @classmethod
    def _of(cls, nvars: int, frame: str, terms: dict) -> "SparsePoly":
        """Wrap terms as built: nonzero Fractions on exponents valid for the
        frame.  The polynomial owns the dict; the caller must not mutate it."""
        f = object.__new__(cls)
        f.nvars, f.frame, f.terms = nvars, frame, terms
        return f

    # ------------------------------------------------------------------ constructors

    @classmethod
    def zero(cls, nvars: int, frame: str) -> "SparsePoly":
        return cls(nvars, frame)

    @classmethod
    def constant(cls, value, nvars: int, frame: str) -> "SparsePoly":
        return cls(nvars, frame, {(0,) * nvars: value})

    @classmethod
    def one(cls, nvars: int, frame: str) -> "SparsePoly":
        return cls.constant(1, nvars, frame)

    @classmethod
    def monomial(cls, exp, frame: str, coef=1) -> "SparsePoly":
        exp = tuple(exp)  # the constructor checks the parts
        return cls(len(exp), frame, {exp: coef})

    @classmethod
    def variable(cls, pos: int, nvars: int, frame: str) -> "SparsePoly":
        """The coordinate at 0-based position ``pos``."""
        exp = tuple(1 if i == pos else 0 for i in range(nvars))
        return cls(nvars, frame, {exp: Fraction(1)})

    # ------------------------------------------------------------------ queries

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=-1)

    def coefficient(self, exp) -> Rat:
        return self.terms.get(tuple(exp), Fraction(0))

    def constant_term(self) -> Rat:
        return self.terms.get((0,) * self.nvars, Fraction(0))

    def evaluate(self, point) -> Rat:
        """Exact value at a point of rationals."""
        point = [as_rational(p) for p in point]
        if len(point) != self.nvars:
            raise ValueError("point length mismatch")
        total = Fraction(0)
        for exp, coef in self.terms.items():
            v = coef
            for x, e in zip(point, exp):
                if e:
                    v *= x**e
            total += v
        return total

    # ------------------------------------------------------------------ ring ops

    def _require_same_shape(self, other: "SparsePoly") -> None:
        if self.nvars != other.nvars or self.frame != other.frame:
            raise ValueError(
                f"frame/nvars mismatch: {self.frame}/{self.nvars} vs {other.frame}/{other.nvars}"
            )

    def __add__(self, other):
        if not isinstance(other, SparsePoly):
            return self + SparsePoly.constant(other, self.nvars, self.frame)
        self._require_same_shape(other)
        terms = dict(self.terms)
        for exp, coef in other.terms.items():
            _accumulate(terms, exp, coef)
        return SparsePoly._of(self.nvars, self.frame, terms)

    def __radd__(self, other):
        return self + other

    def __neg__(self):
        return SparsePoly._of(self.nvars, self.frame, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other if isinstance(other, SparsePoly) else -as_rational(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, SparsePoly):
            c = as_rational(other)
            terms = {e: c * v for e, v in self.terms.items()} if c else {}
            return SparsePoly._of(self.nvars, self.frame, terms)
        self._require_same_shape(other)
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                _accumulate(terms, tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
        return SparsePoly._of(self.nvars, self.frame, terms)

    def __rmul__(self, other):
        return self * other

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        out = SparsePoly.one(self.nvars, self.frame)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    # ------------------------------------------------------------------ group actions

    def apply_permutation(self, w) -> "SparsePoly":
        """Monomial map x^a -> x^{w a} with (w a)_{w(i)} = a_i."""
        if sorted(w) != list(range(self.nvars)):
            raise ValueError(f"{tuple(w)} is not a permutation of {self.nvars} positions")
        return SparsePoly._of(
            self.nvars,
            self.frame,
            {combin.permute_composition(w, e): c for e, c in self.terms.items()},
        )

    def swap_variables(self, p: int, q: int) -> "SparsePoly":
        """Transpose the coordinates at 0-based positions p and q."""
        terms = {}
        for e, c in self.terms.items():
            le = list(e)
            le[p], le[q] = le[q], le[p]
            terms[tuple(le)] = c
        return SparsePoly._of(self.nvars, self.frame, terms)

    def sign_change(self, i: int) -> "SparsePoly":
        """Negate the coordinate y_i.

        In the y-frames this flips the sign of terms odd in y_i.  In an
        x-frame only i = 0 is meaningful: it is the reflection along the
        all-ones direction, x_j -> x_j - (x_1 + ... + x_4)/2, computed by
        going to y4, flipping the terms odd in y_0, and coming back.
        """
        if is_x_frame(self.frame):
            if i != 0 or self.nvars != 4:
                raise ValueError("only the y0 sign change exists in the x4 frame")
            return _hadamard_change(_hadamard_change(self, Y4).sign_change(0), X4)
        pos = position(self.frame, f"y{i}")
        return SparsePoly._of(
            self.nvars,
            self.frame,
            {e: (-c if e[pos] % 2 else c) for e, c in self.terms.items()},
        )

    # ------------------------------------------------------------------ misc

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SparsePoly)
            and self.nvars == other.nvars
            and self.frame == other.frame
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.nvars, self.frame, frozenset(self.terms.items())))

    def ordered_terms(self) -> list:
        """The terms in descending canonical monomial order, for output."""
        return sorted(self.terms.items(), key=lambda kv: combin.canonical_key(kv[0]), reverse=True)

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        names = var_names(self.frame)
        parts = []
        for exp, coef in self.ordered_terms():
            factors = [
                (names[v] if e == 1 else f"{names[v]}^{e}") for v, e in enumerate(exp) if e
            ]
            body = "*".join(factors)
            if not body:
                parts.append(format_rational(coef))
            elif coef == 1:
                parts.append(body)
            elif coef == -1:
                parts.append(f"-{body}")
            else:
                parts.append(f"{format_rational(coef)}*{body}")
        out = " + ".join(parts)
        return out.replace("+ -", "- ")


def _accumulate(acc: dict, exp, coef) -> None:
    """acc[exp] += coef, dropping the term when it cancels."""
    c = acc.pop(exp, None)
    if c is not None:
        coef += c
    if coef:
        acc[exp] = coef


def _integer_form(f: SparsePoly) -> tuple[int, dict]:
    """(den, F) with den the least common denominator of the coefficients of
    f and F = den * f as integer terms {exp: n}."""
    den = math.lcm(*(c.denominator for c in f.terms.values()))
    return den, {e: c.numerator * (den // c.denominator) for e, c in f.terms.items()}


# ---------------------------------------------------------------------- substitution


def substitute_linear(f: SparsePoly, forms: list[SparsePoly]) -> SparsePoly:
    """Substitute variable i -> forms[i]; all forms share one target frame.

    It expands products of powers of the forms, so it is slow on dense forms;
    the tests use it with the half-Hadamard forms as the reference for
    :func:`to_y`, :func:`to_x` and the x4 ``sign_change(0)``.
    """
    if len(forms) != f.nvars:
        raise ValueError("need one form per variable")
    target = forms[0]
    out = SparsePoly.zero(target.nvars, target.frame)
    powers: dict[tuple[int, int], SparsePoly] = {}

    def power(v: int, e: int) -> SparsePoly:
        key = (v, e)
        if key not in powers:
            powers[key] = forms[v] ** e
        return powers[key]

    for exp, coef in f.terms.items():
        term = SparsePoly.constant(coef, target.nvars, target.frame)
        for v, e in enumerate(exp):
            if e:
                term = term * power(v, e)
        out = out + term
    return out


@lru_cache(maxsize=None)
def _pair_weights(a: int, b: int) -> tuple:
    """The butterfly v_p^a v_q^b -> (z_p + z_q)^a (z_p - z_q)^b as the
    triples (a + b - k, k, w_k) with w_k != 0, w_k the coefficient of t^k in
    (1 + t)^a (1 - t)^b."""
    w = [1]
    for _ in range(a):
        w = [p + q for p, q in zip(w + [0], [0] + w)]
    for _ in range(b):
        w = [p - q for p, q in zip(w + [0], [0] + w)]
    return tuple((a + b - k, k, wk) for k, wk in enumerate(w) if wk)


def _hadamard_change(f: SparsePoly, dst_frame: str) -> SparsePoly:
    """f(H z / 2) in the frame ``dst_frame``, H = _HADAMARD, as a fast
    Walsh-Hadamard transform on exponents.

    With H = (H2 (x) H2) P, P swapping coordinates 1 and 2, the substitution
    is two butterfly stages -- v_p -> z_p + z_q, v_q -> z_p - z_q on the
    pairs (0, 1), (2, 3) and then (0, 2), (1, 3) -- a swap of the exponents
    of z_1 and z_2, and a factor 2^-deg per monomial.  Each stage takes its
    two pairs at once, as the product of their butterflies; the second reads
    the exponents of v_1 and v_2 swapped, so it writes z_1 and z_2 in their
    final places.  The stages run on integer numerators over a common
    denominator, so each output coefficient costs one Fraction at the end.
    """
    den, terms = _integer_form(f)
    for swap in (False, True):
        out: dict[tuple[int, ...], int] = {}
        get = out.get
        for (e0, e1, e2, e3), n in terms.items():
            if swap:
                e1, e2 = e2, e1
            right = _pair_weights(e2, e3)
            for u0, u1, w in _pair_weights(e0, e1):
                nw = n * w
                for u2, u3, v in right:
                    key = (u0, u1, u2, u3)
                    out[key] = get(key, 0) + nw * v
        terms = {e: n for e, n in out.items() if n}
    return SparsePoly._of(
        4, dst_frame, {e: Fraction(n, den << sum(e)) for e, n in terms.items()}
    )


def to_y(f: SparsePoly) -> SparsePoly:
    """Rewrite an x4 polynomial in the y-coordinates (exact linear isometry)."""
    if f.frame != X4:
        raise ValueError("to_y expects the x4 frame")
    return _hadamard_change(f, Y4)


def to_x(f: SparsePoly) -> SparsePoly:
    """Inverse of :func:`to_y`; the coordinate matrix is an involution."""
    if f.frame != Y4:
        raise ValueError("to_x expects the y4 frame")
    return _hadamard_change(f, X4)


def substitute_squares(f: SparsePoly) -> SparsePoly:
    """Realize f(y_1^2, y_2^2, y_3^2) for a three-variable polynomial."""
    if f.nvars != 3:
        raise ValueError("substitute_squares expects three variables")
    return SparsePoly._of(3, Y3, {tuple(2 * e for e in exp): c for exp, c in f.terms.items()})


# ---------------------------------------------------------------------- y0 embeddings


def embed_y3(f: SparsePoly, y0_power: int = 0) -> SparsePoly:
    """View a y3 polynomial inside y4, optionally times a power of y_0."""
    if f.frame != Y3 or y0_power < 0:
        raise ValueError("embed_y3 expects the y3 frame and a nonnegative power of y_0")
    return SparsePoly._of(4, Y4, {(y0_power,) + exp: c for exp, c in f.terms.items()})


def embed_y0(f: SparsePoly) -> SparsePoly:
    """View a univariate y0 polynomial inside y4."""
    if f.frame != Y0:
        raise ValueError("embed_y0 expects the y0 frame")
    return SparsePoly._of(4, Y4, {(exp[0], 0, 0, 0): c for exp, c in f.terms.items()})


# ---------------------------------------------------------------------- serialization


def poly_to_json(f: SparsePoly) -> dict:
    """JSON form: {"nvars", "frame", "terms": [{"exp", "coef"}...]} with terms
    in descending canonical order and coefficients as exact "p/q" strings."""
    return {
        "nvars": f.nvars,
        "frame": f.frame,
        "terms": [
            {"exp": list(exp), "coef": format_rational(coef)} for exp, coef in f.ordered_terms()
        ],
    }


def poly_from_json(data: dict) -> SparsePoly:
    """The polynomial of :func:`poly_to_json`'s form.  An ``nvars`` that is not
    an int, a ``coef`` that is not an exact string and an ``exp`` given twice
    raise ValueError rather than being truncated, dropped or crashed on."""
    nvars = data["nvars"]
    if type(nvars) is not int:
        raise ValueError(f"nvars must be an int, got {nvars!r}")
    terms = {}
    for t in data["terms"]:
        exp, coef = tuple(t["exp"]), t["coef"]
        if not isinstance(coef, str):
            raise ValueError(f"coef must be an exact string such as \"1/2\", got {coef!r}")
        if exp in terms:
            raise ValueError(f"exp {list(exp)} appears in more than one term")
        terms[exp] = parse_rational(coef)
    return SparsePoly(nvars, data["frame"], terms)
