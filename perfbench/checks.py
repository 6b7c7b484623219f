"""Checks of jack4's outputs against facts this benchmark derives itself.

Each checker returns a list of problems; an empty list means the output is
correct.  Expected counts and closed forms are computed here from the label
ranges and the parameters, never read from stored copies of earlier output.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import comb


def compositions_of_weight(weight: int, parts: int = 3) -> list[tuple[int, ...]]:
    if parts == 1:
        return [(weight,)]
    return [(a,) + rest for a in range(weight, -1, -1)
            for rest in compositions_of_weight(weight - a, parts - 1)]


def partitions_up_to(max_weight: int, parts: int = 3) -> list[tuple[int, ...]]:
    """Partitions of weight <= max_weight into at most ``parts`` parts, padded."""
    return [c for w in range(max_weight + 1) for c in compositions_of_weight(w, parts)
            if list(c) == sorted(c, reverse=True)]


def expected_checked(suite: str, degree: int) -> int:
    """How many exact checks a suite makes over its labels up to ``degree``."""
    n = comb(degree + 3, 3)  # compositions of 3 parts with weight <= degree
    m = comb(degree + 4, 4)  # basis labels (gamma, n) with |gamma| + n <= degree
    p = len(partitions_up_to(degree))
    return {
        "prop1": n * (n + 1) // 2,
        "prop2": m * (m + 1) // 2,
        "jack": 3 * p,
        "spectrum": m + degree + 1,
        "eigen": 3 * n,
        "eval-ones": n,
        "hooks": 2 * n,
        "identities": n + 3 * (degree + 1) + m,
        "f1-norm": p,
    }[suite]


def suite_report(report: dict, suite: str, degree: int) -> list[str]:
    """A suite report in its JSON form: no failures, and every check made."""
    problems = []
    want = expected_checked(suite, degree)
    if report.get("suite") != suite or report.get("max_degree") != degree:
        problems.append(f"report names {report.get('suite')}/{report.get('max_degree')}, "
                        f"asked for {suite}/{degree}")
    if report.get("checked") != want:
        problems.append(f"{suite} at degree {degree} checked {report.get('checked')}, "
                        f"expected {want}")
    if report.get("failures") != 0 or report.get("ok") is not True:
        problems.append(f"{suite} reports {report.get('failures')} failures: "
                        f"{report.get('first_counterexample')}")
    if suite == "f1-norm":
        lams = [tuple(d["lambda"]) for d in report.get("details", [])]
        if sorted(lams) != sorted(partitions_up_to(degree)):
            problems.append(f"f1-norm adjudicated {len(lams)} partitions, "
                            f"expected {len(partitions_up_to(degree))}")
        wrong = [d for d in report.get("details", []) if d["matched"] != "2^(2|lambda|+3)"]
        if wrong:
            problems.append(f"f1-norm picked another scaling at {wrong[0]}")
    return problems


def spectral_vector(alpha, kappa: Fraction) -> list[Fraction]:
    """(N - r_i) kappa + alpha_i + 1 with r_i = #{j: a_j > a_i} + #{j <= i: a_j = a_i}."""
    n = len(alpha)
    out = []
    for i, a in enumerate(alpha):
        r = sum(1 for b in alpha if b > a) + sum(1 for b in alpha[: i + 1] if b == a)
        out.append((n - r) * kappa + a + 1)
    return out


def ground_energy(kappa: Fraction, kappa_prime: Fraction) -> Fraction:
    return 6 * kappa + kappa_prime + 2


def _poly_terms(poly: dict) -> dict:
    return {tuple(t["exp"]): Fraction(t["coef"]) for t in poly["terms"]}


def cli_output(request: dict, code: int, stdout: str) -> list[str]:
    """One CLI request of the sweep: exit code 0 and a payload that obeys
    the closed forms for its command."""
    if code != 0:
        return [f"{request['argv']} exited {code}"]
    try:
        payload = json.loads(stdout)
    except ValueError:
        return [f"{request['argv']} printed no JSON"]
    kind = request["kind"]
    k, kp = request["kappa"], request["kappa_prime"]
    problems = []
    echoed = payload["params"]["kappa"] if kind == "verify" else payload["kappa"]
    if Fraction(echoed) != k:
        problems.append(f"{kind}: kappa echoed as {echoed}, sent {k}")
    if kind == "nsjp":
        alpha = tuple(request["alpha"])
        spectral = [Fraction(v) for v in payload["spectral"]]
        if spectral != spectral_vector(alpha, k):
            problems.append(f"nsjp {alpha}: spectral vector {payload['spectral']}")
        terms = _poly_terms(payload["poly"])
        if terms.get(alpha) != 1 or any(sum(e) != sum(alpha) for e in terms):
            problems.append(f"nsjp {alpha}: not monic and homogeneous of degree {sum(alpha)}")
    elif kind == "basis":
        gamma, n = tuple(request["gamma"]), request["n"]
        terms = _poly_terms(payload["poly"])
        parity = tuple(g % 2 for g in gamma)
        if not terms or any(e[0] != n or tuple(v % 2 for v in e[1:]) != parity
                            or sum(e) != sum(gamma) + n for e in terms):
            problems.append(f"basis {gamma},{n}: terms break the parity pattern")
        if Fraction(payload["norm"]) <= 0:
            problems.append(f"basis {gamma},{n}: norm {payload['norm']} is not positive")
    elif kind == "invariant":
        lam, s = tuple(request["lambda"]), request["s"]
        terms = _poly_terms(payload["poly"])
        if not terms or any(v % 2 != s for e in terms for v in e):
            problems.append(f"F^{s}_{lam}: terms of the wrong parity")
        scale = 8 if s else 1
        if Fraction(payload["pairing_norm"]) != scale * Fraction(payload["formula_norm"]):
            problems.append(f"F^{s}_{lam}: pairing norm {payload['pairing_norm']} is not "
                            f"{scale} x formula norm {payload['formula_norm']}")
    elif kind == "hermite":
        degree = sum(request["gamma"]) + request["n"]
        if Fraction(payload["energy"]) != degree + ground_energy(k, kp):
            problems.append(f"hermite {request['gamma']},{request['n']}: "
                            f"energy {payload['energy']}")
    elif kind == "eigenfunction":
        lam, s, n = request["lambda"], request["s"], request["n"]
        want = 2 * sum(lam) + 3 * s + 2 * n + ground_energy(k, kp)
        if Fraction(payload["energy"]) != want:
            problems.append(f"eigenfunction {lam},{s},{n}: energy {payload['energy']}, "
                            f"expected {want}")
    elif kind in ("norm-table", "spectrum"):
        problems += table(payload, kind, request["max_degree"], k, kp)
    elif kind == "verify":
        problems += suite_report(payload, request["suite"], request["max_degree"])
    else:
        problems.append(f"unknown request kind {kind}")
    return problems


def table(payload: dict, kind: str, degree: int, kappa, kappa_prime) -> list[str]:
    """norm-table and spectrum: one row per label with |gamma| + n <= degree."""
    rows = payload["rows"]
    problems = []
    labels = {(tuple(r["gamma"]), r["n"]) for r in rows}
    if len(rows) != comb(degree + 4, 4) or len(labels) != len(rows):
        problems.append(f"{kind} has {len(rows)} rows, expected {comb(degree + 4, 4)}")
    for r in rows:
        if r["degree"] != sum(r["gamma"]) + r["n"] or r["degree"] > degree:
            problems.append(f"{kind}: row {r} has the wrong degree")
        elif kind == "spectrum" and Fraction(r["energy"]) != r["degree"] + ground_energy(
                kappa, kappa_prime):
            problems.append(f"spectrum: energy {r['energy']} at {r['gamma']},{r['n']}")
        elif kind == "norm-table" and Fraction(r["norm"]) <= 0:
            problems.append(f"norm-table: norm {r['norm']} at {r['gamma']},{r['n']}")
    return problems[:3]


# ---------------------------------------------------------------------- x4 frame


def roundtrip(f, back) -> list[str]:
    """to_y(to_x(f)) reproduces f term for term."""
    if back.frame != f.frame or back.terms != f.terms:
        return [f"round trip of a {len(f.terms)}-term polynomial differs"]
    return []


def sign_change(f, x, flipped) -> list[str]:
    """x4 sign_change(0) of x = to_x(f) against flipping the terms of f that
    are odd in y0.  Every term of p_gamma y0^n has y0-degree n, so the flip
    multiplies f, and hence x, by (-1)^n."""
    parities = {e[0] % 2 for e in f.terms}
    if len(parities) != 1:
        return ["sign change input is not homogeneous in y0"]
    want = {e: -c for e, c in x.terms.items()} if parities.pop() else dict(x.terms)
    if flipped.frame != x.frame or flipped.terms != want:
        return ["x4 sign_change(0) differs from the y4 flip"]
    return []


def same_poly(name: str, got, want) -> list[str]:
    if got.frame != want.frame or got.terms != want.terms:
        return [f"{name}: the two routes differ"]
    return []


def pairing_values(diag, diag_y4, off) -> list[str]:
    """Extended pairing on x4 inputs: its y4 value on the diagonal, 0 off it."""
    problems = []
    if diag != diag_y4 or diag <= 0:
        problems.append(f"x4 pairing {diag} differs from its y4 value {diag_y4}")
    if off != 0:
        problems.append(f"x4 pairing of distinct labels is {off}, not 0")
    return problems


def mc_exact_values(kappa: Fraction, kappa_prime: Fraction) -> dict[str, Fraction]:
    """Closed-form extended-pairing norms of the mc-check spot pairs."""
    return {
        "<1,1>": Fraction(1),
        "<H[y0],H[y0]>": 2 * kappa_prime + 1,
        "<H[y1],H[y1]>": 4 * kappa + 1,
        "<H[y0],H[y1]>": Fraction(0),
        "<H[y0^2],H[y0^2]>": 4 * kappa_prime + 2,
        "<H[p_200],H[p_200]>": 4 * (3 * kappa + 1) * (2 * kappa + Fraction(1, 2)) / (kappa + 1),
    }


def mc_check(stdout: str, kappa: Fraction, kappa_prime: Fraction) -> list[str]:
    """The exact side of mc-check, whatever its Monte Carlo verdict."""
    try:
        payload = json.loads(stdout)
    except ValueError:
        return ["mc-check printed no JSON"]
    problems = []
    if not payload["normalization"]["consistent"]:
        problems.append("mc-check: normalization constant disagrees with Selberg product")
    want = mc_exact_values(kappa, kappa_prime)
    got = {c["integrand"]: Fraction(c["exact"]) for c in payload["checks"]}
    if got != want:
        problems.append(f"mc-check exact values {got}, expected {want}")
    return problems
