"""Per-layer tracing of jack4, installed from outside the package.

``Tracer.install`` wraps the public functions of each layer of ``src/jack4``
and rebinds every module-level name in the package that refers to one of
them (modules import functions by name, so ``jack.cherednik_a`` and
``verify.pairing_kappa`` are bindings of their own).  Each wrapped call is a
span with a name, a start, an end and a parent; a layer's self time is the
length of its spans minus the part covered by child spans.

Fraction arithmetic is far too frequent for one span per operation: it is
counted and timed in aggregate, and its time is taken out of the enclosing
span's self time, so the self times of all layers still add up to the
traced time.  ``uninstall`` restores every binding.
"""

from __future__ import annotations

import itertools
import json
import sys
import time
from fractions import Fraction

clock = time.perf_counter

# Layer name -> (module, public functions).  Names of the form
# "SparsePoly.<method>" are methods patched on the class.  Small helpers that
# run once per term (canonical_key, weight, is_x_frame, ...) stay unwrapped;
# their time counts as self time of the layer that calls them.
LAYERS = {
    "poly.xy": ("jack4.poly", ("to_x", "to_y", "substitute_linear")),
    "poly.ring": ("jack4.poly", tuple(f"SparsePoly.{m}" for m in (
        "__init__", "__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
        "__mul__", "__rmul__", "__pow__"))),
    "ops.kernel": ("jack4.ops", ("dunkl_a", "dunkl_b", "dunkl_d0", "dunkl_prime",
                                 "cherednik_a", "cherednik_b")),
    "ops.pairing": ("jack4.ops", ("pairing_kappa", "pairing_extended")),
    "ops.laplacian": ("jack4.ops", ("laplacian_b", "laplacian_h", "d0_squared")),
    "jack.solve": ("jack4.jack", ("nsjp", "symmetric_jack")),
    "combin": ("jack4.combin", ("hook_product", "gen_pochhammer", "rising_factorial",
                                "e_epsilon", "orbit_count", "spectral_vector",
                                "compositions_of_weight", "partitions_of_weight",
                                "rearrangements")),
    "basis4": ("jack4.basis4", ("basis_poly", "basis_poly4", "invariant_F")),
    "hermite_cs": ("jack4.hermite_cs", ("exp_half_laplacian", "hermite_basis",
                                        "conjugated_hamiltonian", "operator_identities_check",
                                        "cs_invariant_eigenfunction", "laguerre")),
    "measure.mc": ("jack4.measure", ("mc_inner_product",)),
    "verify": ("jack4.verify", ("run_suite",)),
    "cli": ("jack4.cli", ("main",)),
}

# Fraction methods counted as rational arithmetic.
RATIONAL_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                "__truediv__", "__rtruediv__", "__pow__", "__rpow__", "__neg__", "__abs__")

# Per-layer metric names, in the order they are reported.
METRICS = (
    "poly.xy_s", "poly.xy_calls", "poly.ring_s", "poly.ring_calls", "poly.terms_built",
    "exact.rational_ops", "exact.s", "ops.kernel_s", "ops.kernel_calls",
    "ops.pairing_s", "ops.pairing_calls", "ops.laplacian_s", "ops.laplacian_calls",
    "jack.solve_s", "jack.nsjp_calls", "combin.s", "basis4.s", "hermite_cs.s",
    "hermite_cs.series_calls", "measure.mc_s", "measure.samples", "verify.s",
    "verify.checks", "cli.s",
)


# Count metrics kept besides the spans.  Every call into these layers counts
# once; the functions below add their own amount per call.
CALL_COUNTS = {"poly.xy": "poly.xy_calls", "poly.ring": "poly.ring_calls",
               "ops.kernel": "ops.kernel_calls", "ops.pairing": "ops.pairing_calls",
               "ops.laplacian": "ops.laplacian_calls"}
FUNCTION_COUNTS = {
    "SparsePoly.__init__": ("poly.terms_built", lambda args, result: len(args[0].terms)),
    "nsjp": ("jack.nsjp_calls", lambda args, result: 1),
    "exp_half_laplacian": ("hermite_cs.series_calls", lambda args, result: 1),
    "mc_inner_product": ("measure.samples", lambda args, result: args[2].samples),
    "run_suite": ("verify.checks", lambda args, result: result.checked),
}


def self_time_metric(layer: str) -> str:
    return f"{layer}_s" if "." in layer else f"{layer}.s"


def unit(metric: str) -> str:
    return "s" if metric.endswith(("_s", ".s")) else "count"


class Tracer:
    """Span recorder for one process; not thread-safe (the benchmark has one thread)."""

    def __init__(self):
        self.self_s = {layer: 0.0 for layer in LAYERS}
        self.self_s["exact"] = 0.0
        self.counts = {name: 0 for name in METRICS if unit(name) == "count"}
        self.recording = False
        self.spans: list[tuple] = []  # (id, name, start, end, parent id or -1)
        self._stack: list[list] = []  # open spans: [child time, span id]
        self._ids = itertools.count()
        self._in_rational = False
        self._restore: list[tuple] = []

    # ------------------------------------------------------------------ wrappers

    def _span(self, layer: str, func: str, name: str, orig):
        stack = self._stack
        self_s = self.self_s
        spans = self.spans
        ids = self._ids
        counts = self.counts
        calls = CALL_COUNTS.get(layer)
        counter, amount = FUNCTION_COUNTS.get(func, (None, None))

        def traced(*args, **kwargs):
            frame = [0.0, next(ids)]
            stack.append(frame)
            start = clock()
            try:
                result = orig(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                length = end - start
                if stack:
                    stack[-1][0] += length
                self_s[layer] += length - frame[0]
                if self.recording:
                    spans.append((frame[1], name, start, end, stack[-1][1] if stack else -1))
            if calls:
                counts[calls] += 1
            if counter:
                counts[counter] += amount(args, result)
            return result

        traced.__wrapped__ = orig
        traced.__name__ = getattr(orig, "__name__", name)
        return traced

    def _rational(self, orig):
        stack = self._stack
        counts = self.counts
        self_s = self.self_s

        def op(*args):
            if self._in_rational:
                return orig(*args)
            self._in_rational = True
            start = clock()
            try:
                return orig(*args)
            finally:
                length = clock() - start
                self._in_rational = False
                counts["exact.rational_ops"] += 1
                self_s["exact"] += length
                if stack:
                    stack[-1][0] += length

        return op

    # ------------------------------------------------------------------ install

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every traced function and every binding of it in jack4."""
        package = [m for name, m in sys.modules.items()
                   if name == "jack4" or name.startswith("jack4.")]
        for layer, (module_name, funcs) in LAYERS.items():
            module = sys.modules[module_name]
            for func in funcs:
                if func.startswith("SparsePoly."):
                    method = func.split(".", 1)[1]
                    orig = getattr(module.SparsePoly, method)
                    self._set(module.SparsePoly, method, self._span(layer, func, func, orig))
                    continue
                orig = getattr(module, func)
                wrapped = self._span(layer, func, f"{module_name[6:]}.{func}", orig)
                for mod in package:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            self._set(mod, attr, wrapped)
        sparse_poly = sys.modules["jack4.poly"].SparsePoly
        self._set(sparse_poly, "sign_change", self._x4_sign_change(sparse_poly.sign_change))
        for op in RATIONAL_OPS:
            self._set(Fraction, op, self._rational(getattr(Fraction, op)))

    def _x4_sign_change(self, orig):
        """sign_change(0) is an x4 coordinate change; in y frames it is a term flip."""
        traced = self._span("poly.xy", "sign_change", "SparsePoly.sign_change", orig)

        def sign_change(poly, i):
            return traced(poly, i) if poly.frame.startswith("x") else orig(poly, i)

        return sign_change

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # ------------------------------------------------------------------ output

    def metrics(self, rounds: int) -> dict[str, float]:
        """Per-round means of every per-layer metric."""
        values = {name: count / rounds for name, count in self.counts.items()}
        values.update({self_time_metric(layer): seconds / rounds
                       for layer, seconds in self.self_s.items()})
        return {name: values[name] for name in METRICS}

    def write_spans(self, path: str, header: dict) -> None:
        with open(path, "w") as fh:
            json.dump({**header, "fields": ["id", "name", "start", "end", "parent"],
                       "spans": self.spans}, fh)
