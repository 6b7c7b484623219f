"""Sparse multivariate polynomials over exact rationals.

Polynomials carry a coordinate-frame tag so that quantities written in the
x-coordinates (the natural coordinates of R^N with the permutation action)
cannot silently mix with quantities written in the y-coordinates (the
half-Hadamard orthonormal coordinates y_0..y_3).  Frames:

* ``"x{N}"`` -- N type-A variables x_1..x_N (``"x4"``, ``"x3"``, ...);
* ``"y4"``  -- the four variables (y_0, y_1, y_2, y_3), index 0 being y_0;
* ``"y3"``  -- (y_1, y_2, y_3);
* ``"y0"``  -- the single variable y_0;
* ``"t"``   -- a scratch univariate frame (Laguerre argument).

The x4 <-> y4 change of coordinates is exact.  The half-Hadamard matrix is
H2 (x) H2 with y_1 and y_2 swapped, so :func:`to_y` and :func:`to_x` run as
a fast Walsh-Hadamard transform on exponents: two stages of pairwise
binomial butterflies, a swap, and a factor 2^-deg per monomial.

Values are immutable by convention: every operation allocates a new
polynomial, and term dictionaries are kept in descending canonical monomial
order so iteration, solving, and serialization are reproducible.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import combin
from .exact import Rat, format_rational, parse_rational

X4 = "x4"
Y4 = "y4"
Y3 = "y3"
Y0 = "y0"

_FIXED_FRAME_NVARS = {Y4: 4, Y3: 3, Y0: 1, "t": 1}

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


def _check_frame(frame: str, nvars: int) -> None:
    if is_x_frame(frame):
        if frame != f"x{nvars}":
            raise ValueError(f"frame {frame!r} inconsistent with nvars={nvars}")
    elif frame in _FIXED_FRAME_NVARS:
        if nvars != _FIXED_FRAME_NVARS[frame]:
            raise ValueError(f"frame {frame!r} requires nvars={_FIXED_FRAME_NVARS[frame]}")
    else:
        raise ValueError(f"unknown frame {frame!r}")


def var_names(frame: str, nvars: int) -> list[str]:
    """Display names of the coordinates of a frame."""
    if is_x_frame(frame):
        return [f"x{i}" for i in range(1, nvars + 1)]
    if frame == Y4:
        return ["y0", "y1", "y2", "y3"]
    if frame == Y3:
        return ["y1", "y2", "y3"]
    if frame == Y0:
        return ["y0"]
    return ["t"]


class SparsePoly:
    """A finite map from exponent vectors to nonzero rational coefficients.

    Coefficients may be ints, Fractions or exact strings such as "0.1";
    binary floats are refused, since 0.1 would silently become
    3602879701896397/2^55.
    """

    __slots__ = ("nvars", "frame", "terms")

    def __init__(self, nvars: int, frame: str, terms=None):
        _check_frame(frame, nvars)
        merged: dict[tuple[int, ...], Fraction] = {}
        items = terms.items() if isinstance(terms, dict) else (terms or ())
        for exp, coef in items:
            exp = tuple(int(e) for e in exp)
            if len(exp) != nvars or any(e < 0 for e in exp):
                raise ValueError(f"bad exponent vector {exp} for nvars={nvars}")
            if type(coef) is not Fraction:
                if isinstance(coef, float):
                    raise ValueError(f"coefficient {coef!r} is a float; pass an exact value")
                coef = Fraction(coef)
            c = merged.get(exp, Fraction(0)) + coef
            if c:
                merged[exp] = c
            else:
                merged.pop(exp, None)
        self.nvars = nvars
        self.frame = frame
        self.terms = dict(
            sorted(merged.items(), key=lambda kv: combin.canonical_key(kv[0]), reverse=True)
        )

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
        exp = tuple(int(e) for e in exp)
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
        point = [Fraction(p) for p in point]
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
            terms[exp] = terms.get(exp, Fraction(0)) + coef
        return SparsePoly(self.nvars, self.frame, terms)

    def __radd__(self, other):
        return self + other

    def __neg__(self):
        return SparsePoly(self.nvars, self.frame, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other if isinstance(other, SparsePoly) else -Fraction(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, SparsePoly):
            c = Fraction(other)
            if not c:
                return SparsePoly.zero(self.nvars, self.frame)
            return SparsePoly(self.nvars, self.frame, {e: c * v for e, v in self.terms.items()})
        self._require_same_shape(other)
        terms: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = tuple(a + b for a, b in zip(e1, e2))
                terms[exp] = terms.get(exp, Fraction(0)) + c1 * c2
        return SparsePoly(self.nvars, self.frame, terms)

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
        if len(w) != self.nvars:
            raise ValueError("permutation length mismatch")
        return SparsePoly(
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
        return SparsePoly(self.nvars, self.frame, terms)

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
        if self.frame == Y4:
            pos = i
            if not 0 <= pos <= 3:
                raise ValueError("index out of range for y4")
        elif self.frame == Y3:
            if not 1 <= i <= 3:
                raise ValueError("index out of range for y3")
            pos = i - 1
        elif self.frame == Y0:
            if i != 0:
                raise ValueError("index out of range for y0")
            pos = 0
        else:
            raise ValueError(f"sign change undefined in frame {self.frame!r}")
        return SparsePoly(
            self.nvars,
            self.frame,
            {e: (-c if e[pos] % 2 else c) for e, c in self.terms.items()},
        )

    # ------------------------------------------------------------------ misc

    def map_frame(self, frame: str) -> "SparsePoly":
        """Retag with a frame of the same variable count (no substitution)."""
        return SparsePoly(self.nvars, frame, self.terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SparsePoly)
            and self.nvars == other.nvars
            and self.frame == other.frame
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.nvars, self.frame, tuple(self.terms.items())))

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        names = var_names(self.frame, self.nvars)
        parts = []
        for exp, coef in self.terms.items():
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


# ---------------------------------------------------------------------- substitution


def substitute_linear(f: SparsePoly, forms: list[SparsePoly]) -> SparsePoly:
    """Substitute variable i -> forms[i]; all forms share one target frame.

    It expands products of powers of the forms, so it is slow on dense forms;
    the tests use it with :func:`_hadamard_forms` as the reference for
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


def _hadamard_forms(src_frame: str, dst_frame: str) -> list[SparsePoly]:
    half = Fraction(1, 2)
    forms = []
    for j in range(4):
        terms = {}
        for i in range(4):
            exp = tuple(1 if v == i else 0 for v in range(4))
            terms[exp] = half * _HADAMARD[i][j]
        forms.append(SparsePoly(4, dst_frame, terms))
    return forms


def _pair_weights(a: int, b: int) -> list[int]:
    """Coefficients of t^k in (1 + t)^a (1 - t)^b, k = 0..a+b."""
    w = [1]
    for _ in range(a):
        w = [p + q for p, q in zip(w + [0], [0] + w)]
    for _ in range(b):
        w = [p - q for p, q in zip(w + [0], [0] + w)]
    return w


def _hadamard_change(f: SparsePoly, dst_frame: str) -> SparsePoly:
    """f(H z / 2) in the frame ``dst_frame``, H = _HADAMARD, as a fast
    Walsh-Hadamard transform on exponents.

    With H = (H2 (x) H2) P, P swapping coordinates 1 and 2, the substitution
    is two butterfly stages -- v_p -> z_p + z_q, v_q -> z_p - z_q on the
    pairs (0, 1), (2, 3) and then (0, 2), (1, 3) -- a swap of the exponents
    of z_1 and z_2, and a factor 2^-deg per monomial.  The stages run on
    integer numerators over a common denominator, so each output coefficient
    costs one Fraction at the end.
    """
    den = math.lcm(*(c.denominator for c in f.terms.values()))
    terms = {e: c.numerator * (den // c.denominator) for e, c in f.terms.items()}
    weights: dict[tuple[int, int], list[int]] = {}
    for p, q in ((0, 1), (2, 3), (0, 2), (1, 3)):
        out: dict[tuple[int, ...], int] = {}
        for exp, n in terms.items():
            if not n:
                continue
            a, b = exp[p], exp[q]
            w = weights.get((a, b))
            if w is None:
                w = weights[a, b] = _pair_weights(a, b)
            e = list(exp)
            for k, wk in enumerate(w):
                if wk:
                    e[p] = a + b - k
                    e[q] = k
                    t = tuple(e)
                    out[t] = out.get(t, 0) + n * wk
        terms = out
    return SparsePoly(
        4,
        dst_frame,
        {(e[0], e[2], e[1], e[3]): Fraction(n, den << sum(e)) for e, n in terms.items() if n},
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
    return SparsePoly(3, Y3, {tuple(2 * e for e in exp): c for exp, c in f.terms.items()})


# ---------------------------------------------------------------------- y0 split


def split_y0(f: SparsePoly) -> dict[int, SparsePoly]:
    """Decompose a y4 polynomial as sum_k y_0^k f_k(y_1, y_2, y_3)."""
    if f.frame != Y4:
        raise ValueError("split_y0 expects the y4 frame")
    parts: dict[int, dict] = {}
    for exp, coef in f.terms.items():
        parts.setdefault(exp[0], {})[exp[1:]] = coef
    return {k: SparsePoly(3, Y3, terms) for k, terms in parts.items()}


def embed_y3(f: SparsePoly, y0_power: int = 0) -> SparsePoly:
    """View a y3 polynomial inside y4, optionally times a power of y_0."""
    if f.frame != Y3:
        raise ValueError("embed_y3 expects the y3 frame")
    return SparsePoly(4, Y4, {(y0_power,) + exp: c for exp, c in f.terms.items()})


def embed_y0(f: SparsePoly) -> SparsePoly:
    """View a univariate y0 polynomial inside y4."""
    if f.frame != Y0:
        raise ValueError("embed_y0 expects the y0 frame")
    return SparsePoly(4, Y4, {(exp[0], 0, 0, 0): c for exp, c in f.terms.items()})


# ---------------------------------------------------------------------- serialization


def poly_to_json(f: SparsePoly) -> dict:
    """JSON form: {"nvars", "frame", "terms": [{"exp", "coef"}...]} with terms
    in descending canonical order and coefficients as exact "p/q" strings."""
    return {
        "nvars": f.nvars,
        "frame": f.frame,
        "terms": [
            {"exp": list(exp), "coef": format_rational(coef)} for exp, coef in f.terms.items()
        ],
    }


def poly_from_json(data: dict) -> SparsePoly:
    terms = {tuple(t["exp"]): parse_rational(t["coef"]) for t in data["terms"]}
    return SparsePoly(int(data["nvars"]), data["frame"], terms)
