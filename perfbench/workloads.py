"""The three workloads: seeded inputs, one timed round, and the checks of a round.

A round is the whole set of requests a workload makes.  Every round starts
with jack4's caches cleared, because every real ``jack4`` call and every
verify session starts cold, and the same seed always gives the same rounds.
"""

from __future__ import annotations

import contextlib
import io
import random
import sys
from fractions import Fraction

import checks
from jack4 import basis4, cli, ops, poly, verify
from jack4.basis4 import BasisLabel
from jack4.exact import make_context


def clear_caches() -> None:
    """Empty every module-level cache of jack4 (``*_CACHE`` dicts, lru caches)."""
    for name, module in list(sys.modules.items()):
        if name != "jack4" and not name.startswith("jack4."):
            continue
        for attr, value in vars(module).items():
            if attr.endswith("_CACHE") and isinstance(value, dict):
                value.clear()
            elif callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _text(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _labels(degree: int) -> list[BasisLabel]:
    """Every basis label (gamma, n) with |gamma| + n = degree."""
    return [BasisLabel(g, n) for n in range(degree + 1)
            for g in checks.compositions_of_weight(degree - n)]


# ---------------------------------------------------------------------- pairing

# The README's certification grid: four kappa values pin any rational identity
# of the degrees that occur, two kappa' values the y0 direction.
KAPPAS = (Fraction(1, 2), Fraction(1), Fraction(3), Fraction(5, 7))
KAPPA_PRIMES = (Fraction(1, 2), Fraction(2))
PAIRING_SUITES = ("prop1", "prop2", "jack", "f1-norm")
PAIRING_DEGREE = 3


class Pairing:
    """Pairing-based suites over the certification grid, through verify.run_suite.

    The monomial-pairing cache is reused heavily within each kappa.  The seed
    fixes the order in which the 32 (suite, kappa, kappa') runs are made.
    """

    def __init__(self, seed: int):
        jobs = [(suite, k, kp) for k in KAPPAS for kp in KAPPA_PRIMES for suite in PAIRING_SUITES]
        random.Random(seed).shuffle(jobs)
        self.jobs = [(suite, make_context(k, kp, 3)) for suite, k, kp in jobs]

    def run(self) -> list:
        return [verify.run_suite(suite, ctx, PAIRING_DEGREE) for suite, ctx in self.jobs]

    def check(self, reports) -> tuple[int, int, list[str]]:
        problems = []
        for (suite, _), report in zip(self.jobs, reports):
            problems += checks.suite_report(report.to_json(), suite, PAIRING_DEGREE)
        return len(self.jobs), 0, problems


# ---------------------------------------------------------------------- sweep

SWEEP_VERIFY_DEGREE = 2
SWEEP_TABLE_DEGREE = 4
SWEEP_LABEL_DEGREE = 3


def _distinct_parameters(rng: random.Random, count: int, smallest: int) -> list[Fraction]:
    """``count`` distinct rationals p/q with smallest <= p <= 12 and 1 <= q <= 12."""
    pool = sorted({Fraction(p, q) for p in range(smallest, 13) for q in range(1, 13)})
    return rng.sample(pool, count)


def cli_request(shape: dict, kappa: Fraction, kappa_prime: Fraction) -> dict:
    """The argv of one sweep request, with what its checker needs to know."""
    kind = shape["kind"]
    params = ["--kappa", _text(kappa)]
    if kind == "nsjp":
        kappa_prime = Fraction(0)
        argv = ["nsjp", "--alpha", ",".join(map(str, shape["alpha"]))] + params
    else:
        params += ["--kappa-prime", _text(kappa_prime)]
        if kind in ("basis", "hermite"):
            argv = [kind, "--gamma", ",".join(map(str, shape["gamma"])),
                    "--n", str(shape["n"])]
        elif kind in ("invariant", "eigenfunction"):
            argv = ["basis" if kind == "invariant" else "hermite",
                    "--lambda", ",".join(map(str, shape["lambda"])), "--s", str(shape["s"])]
            argv += ["--n", str(shape["n"])] if kind == "eigenfunction" else []
        elif kind == "verify":
            argv = ["verify", "--suite", shape["suite"],
                    "--max-degree", str(shape["max_degree"])]
        else:
            argv = [kind, "--max-degree", str(shape["max_degree"])]
        argv += params
    return {**shape, "argv": argv, "kappa": kappa, "kappa_prime": kappa_prime}


class Sweep:
    """A stream of small CLI requests, each with its own rational kappa > 0 and
    kappa' >= 0, so nothing keyed on kappa is reused within a round.

    The requests of a round are fixed: every verify suite twice at a low
    degree, each table twice, nsjp on every composition of weight 3, basis and
    hermite on every label with |gamma| + n = 3, and both invariant variants
    for every partition of weight 1 or 2.  The seed draws each request's
    parameters and the order.  Fixing the labels keeps the work of a round
    nearly the same from seed to seed, so that seeds do not add to the spread.
    """

    def __init__(self, seed: int):
        rng = random.Random(seed)
        shapes = [{"kind": "verify", "suite": s, "max_degree": SWEEP_VERIFY_DEGREE}
                  for s in sorted(verify.SUITES) for _ in range(2)]
        shapes += [{"kind": kind, "max_degree": SWEEP_TABLE_DEGREE}
                   for kind in ("norm-table", "spectrum") for _ in range(2)]
        shapes += [{"kind": "nsjp", "alpha": alpha}
                   for alpha in checks.compositions_of_weight(SWEEP_LABEL_DEGREE)]
        shapes += [{"kind": kind, "gamma": label.gamma, "n": label.n}
                   for kind in ("basis", "hermite") for label in _labels(SWEEP_LABEL_DEGREE)]
        for lam in checks.partitions_up_to(2)[1:]:
            for s in (0, 1):
                shapes.append({"kind": "invariant", "lambda": lam, "s": s})
                shapes.append({"kind": "eigenfunction", "lambda": lam, "s": s, "n": 1})
        rng.shuffle(shapes)
        kappas = _distinct_parameters(rng, len(shapes), 1)
        kappa_primes = _distinct_parameters(rng, len(shapes), 0)
        self.requests = [cli_request(shape, k, kp)
                         for shape, k, kp in zip(shapes, kappas, kappa_primes)]

    def run(self) -> list[tuple[int, str]]:
        return [run_cli(request["argv"]) for request in self.requests]

    def check(self, outputs) -> tuple[int, int, list[str]]:
        problems = []
        for request, (code, stdout) in zip(self.requests, outputs):
            problems += checks.cli_output(request, code, stdout)
        return len(self.requests), 0, problems


# ---------------------------------------------------------------------- xframe

XFRAME_KAPPA = Fraction(1, 2)
XFRAME_KAPPA_PRIME = Fraction(2)
XFRAME_DEGREE = 3
# laplacian_h through x4 costs about as much as everything else together at
# degree 3, so it runs one degree lower.
XFRAME_LAPLACIAN_DEGREE = 2
# mc-check runs at its default flags: kappa = 1, kappa' = 1/2.
MC_KAPPA = Fraction(1)
MC_KAPPA_PRIME = Fraction(1, 2)


class XFrame:
    """x4-frame work at fixed parameters, then ``jack4 mc-check`` at its defaults.

    For each basis element p_gamma y0^n with |gamma| + n = 3: build it in y4,
    ``to_x``, ``to_y`` back, ``sign_change(0)`` in x4, and the extended pairing
    of x4 inputs with itself and with a partner.  For each one with
    |gamma| + n = 2: ``laplacian_h`` in x4, which makes eight ``dunkl_prime``
    calls.  The seed fixes the order of the elements and the partners.
    """

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.labels = _labels(XFRAME_DEGREE)
        rng.shuffle(self.labels)
        shift = rng.randrange(1, len(self.labels))
        self.partners = [(i + shift) % len(self.labels) for i in range(len(self.labels))]
        self.laplacian_labels = _labels(XFRAME_LAPLACIAN_DEGREE)
        rng.shuffle(self.laplacian_labels)
        self.ctx = make_context(XFRAME_KAPPA, XFRAME_KAPPA_PRIME, 3)

    def run(self) -> dict:
        ctx = self.ctx
        out = {"y4": [], "x4": [], "back": [], "flipped": [], "diag": [],
               "lap_y4": [], "laplacian": []}
        for label in self.labels:
            f = basis4.basis_poly4(label, ctx)
            x = poly.to_x(f)
            out["y4"].append(f)
            out["x4"].append(x)
            out["back"].append(poly.to_y(x))
            out["flipped"].append(x.sign_change(0))
            out["diag"].append(ops.pairing_extended(x, x, ctx))
        out["off"] = [ops.pairing_extended(out["x4"][i], out["x4"][j], ctx)
                      for i, j in enumerate(self.partners)]
        for label in self.laplacian_labels:
            f = basis4.basis_poly4(label, ctx)
            out["lap_y4"].append(f)
            out["laplacian"].append(ops.laplacian_h(poly.to_x(f), ctx))
        out["mc"] = run_cli(["mc-check"])
        return out

    def check(self, out) -> tuple[int, int, list[str]]:
        ctx = self.ctx
        problems = []
        for i, f in enumerate(out["y4"]):
            problems += checks.roundtrip(f, out["back"][i])
            problems += checks.sign_change(f, out["x4"][i], out["flipped"][i])
            problems += checks.pairing_values(out["diag"][i], ops.pairing_extended(f, f, ctx),
                                              out["off"][i])
        for f, lap in zip(out["lap_y4"], out["laplacian"]):
            problems += checks.same_poly("laplacian_h through x4 and y4", poly.to_y(lap),
                                         ops.laplacian_h(f, ctx))
        code, stdout = out["mc"]
        # mc-check exits 1 at its default flags: the 3-stderr band is too narrow
        # for its heavy-tailed estimator.  It counts as failed; its exact values
        # are still checked.
        failed = int(code != 0)
        if code not in (0, 1):
            problems.append(f"mc-check exited {code}")
        else:
            problems += checks.mc_check(stdout, MC_KAPPA, MC_KAPPA_PRIME)
        # five requests per element, one off-diagonal pairing each, three per
        # laplacian element (build, to_x, laplacian_h), and mc-check
        attempted = 6 * len(self.labels) + 3 * len(self.laplacian_labels) + 1
        return attempted, failed, problems


WORKLOADS = {"pairing": Pairing, "sweep": Sweep, "xframe": XFrame}
