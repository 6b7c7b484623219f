"""The benchmark's checkers accept jack4's real output and reject a deliberately
wrong one; the tracer restores every binding it wraps.

Run from the root of the repository:  python3 -m pytest perfbench/test_checks.py
"""

from __future__ import annotations

import copy
import json
import os
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import workloads  # noqa: E402
from jack4 import basis4, ops, poly, verify  # noqa: E402
from jack4.basis4 import BasisLabel  # noqa: E402
from jack4.exact import make_context  # noqa: E402

CTX = make_context(Fraction(1, 2), Fraction(2), 3)


@pytest.mark.parametrize("suite", sorted(verify.SUITES))
def test_suite_report_counts(suite):
    report = verify.run_suite(suite, CTX, 2).to_json()
    assert checks.suite_report(report, suite, 2) == []
    assert checks.suite_report({**report, "checked": 0}, suite, 2)
    assert checks.suite_report({**report, "failures": 1, "ok": False}, suite, 2)


def test_f1_norm_scaling():
    report = verify.run_suite("f1-norm", CTX, 2).to_json()
    wrong = copy.deepcopy(report)
    wrong["details"][-1]["matched"] = "2^(2|lambda|)"
    assert checks.suite_report(wrong, "f1-norm", 2)


KAPPA, KAPPA_PRIME = Fraction(3, 2), Fraction(2, 5)


def _run(shape):
    """Run one sweep request; its real output passes the checker."""
    request = workloads.cli_request(shape, KAPPA, KAPPA_PRIME)
    code, stdout = workloads.run_cli(request["argv"])
    assert checks.cli_output(request, code, stdout) == []
    return request, json.loads(stdout)


def _rejects(request, payload):
    return checks.cli_output(request, 0, json.dumps(payload))


def test_energy_off_by_one():
    request, payload = _run({"kind": "hermite", "gamma": (2, 0, 1), "n": 1})
    payload["energy"] = str(Fraction(payload["energy"]) + 1)
    assert _rejects(request, payload)


def test_spectrum_row_off_by_one():
    request, payload = _run({"kind": "spectrum", "max_degree": 2})
    payload["rows"][3]["energy"] = str(Fraction(payload["rows"][3]["energy"]) + 1)
    assert _rejects(request, payload)
    payload["rows"].pop()
    assert _rejects(request, payload)


def test_invariant_energy_and_norms():
    request, payload = _run({"kind": "eigenfunction", "lambda": (1, 1, 0), "s": 1, "n": 1})
    payload["energy"] = str(Fraction(payload["energy"]) - 1)
    assert _rejects(request, payload)

    request, payload = _run({"kind": "invariant", "lambda": (2, 1, 0), "s": 1})
    payload["pairing_norm"] = payload["formula_norm"]
    assert _rejects(request, payload)


def test_nsjp_spectral_vector():
    request, payload = _run({"kind": "nsjp", "alpha": (0, 2, 1)})
    payload["spectral"][0] = str(Fraction(payload["spectral"][0]) + 1)
    assert _rejects(request, payload)


def test_basis_parity_pattern():
    request, payload = _run({"kind": "basis", "gamma": (1, 2, 0), "n": 1})
    payload["poly"]["terms"][0]["exp"][1] += 1
    assert _rejects(request, payload)


def test_verify_request_that_checks_nothing():
    request, payload = _run({"kind": "verify", "suite": "prop1", "max_degree": 1})
    assert _rejects(request, {**payload, "checked": 0})
    assert checks.cli_output(request, 1, "")


def test_roundtrip_that_differs():
    f = basis4.basis_poly4(BasisLabel((1, 1, 0), 1), CTX)
    back = poly.to_y(poly.to_x(f))
    assert checks.roundtrip(f, back) == []
    assert checks.roundtrip(f, back + poly.SparsePoly.monomial((0, 0, 0, 3), "y4"))
    assert checks.roundtrip(f, 2 * back)


def test_sign_change():
    for label in (BasisLabel((1, 0, 0), 1), BasisLabel((2, 0, 0), 0)):
        f = basis4.basis_poly4(label, CTX)
        x = poly.to_x(f)
        flipped = x.sign_change(0)
        assert checks.sign_change(f, x, flipped) == []
        assert checks.sign_change(f, x, -flipped)


def test_laplacian_routes():
    f = basis4.basis_poly4(BasisLabel((1, 0, 0), 1), CTX)
    via_x = poly.to_y(ops.laplacian_h(poly.to_x(f), CTX))
    via_y = ops.laplacian_h(f, CTX)
    assert checks.same_poly("laplacian", via_x, via_y) == []
    assert checks.same_poly("laplacian", via_x, via_y + 1)


def test_pairing_values():
    assert checks.pairing_values(Fraction(15), Fraction(15), 0) == []
    assert checks.pairing_values(Fraction(15), Fraction(16), 0)
    assert checks.pairing_values(Fraction(15), Fraction(15), Fraction(1, 3))


def test_mc_check_exact_values():
    code, stdout = workloads.run_cli(["mc-check", "--samples", "2000"])
    assert code in (0, 1)
    assert checks.mc_check(stdout, Fraction(1), Fraction(1, 2)) == []
    payload = json.loads(stdout)
    payload["checks"][-1]["exact"] = "21"
    assert checks.mc_check(json.dumps(payload), Fraction(1), Fraction(1, 2))


def test_expected_counts_match_the_label_ranges():
    assert checks.expected_checked("prop1", 2) == 55  # n = C(5, 3) = 10
    assert checks.expected_checked("prop2", 2) == 120  # m = C(6, 4) = 15
    assert checks.partitions_up_to(2) == [(0, 0, 0), (1, 0, 0), (2, 0, 0), (1, 1, 0)]


def test_tracer_restores_bindings_and_accounts_for_the_time():
    import time

    import tracing

    bindings = (verify.pairing_kappa, verify.cherednik_a, Fraction.__add__,
                poly.SparsePoly.__init__, poly.SparsePoly.sign_change)
    tracer = tracing.Tracer()
    workloads.clear_caches()
    tracer.install()
    try:
        start = time.perf_counter()
        verify.run_suite("jack", CTX, 2)
        wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    assert (verify.pairing_kappa, verify.cherednik_a, Fraction.__add__,
            poly.SparsePoly.__init__, poly.SparsePoly.sign_change) == bindings
    metrics = tracer.metrics(1)
    assert metrics["verify.checks"] == checks.expected_checked("jack", 2)
    assert metrics["jack.nsjp_calls"] > 0 and metrics["ops.pairing_calls"] > 0
    self_s = sum(v for k, v in metrics.items() if tracing.unit(k) == "s")
    assert 0.9 * wall <= self_s <= wall
