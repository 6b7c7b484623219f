"""Command-line interface.

Subcommands::

    nsjp        construct one nonsymmetric Jack polynomial
    basis       construct one four-variable basis element p_gamma * y0^n
    hermite     its image under exp(-Delta_h/2), with the energy level
    norm-table  closed-form norms for all labels up to a total degree
    spectrum    energy levels for all labels up to a total degree
    verify      run one exact verification suite (exit 1 on any failure)
    mc-check    Monte Carlo checks of the measure-side identities

Output is JSON by default, CSV with ``--format csv``; every scalar is an
exact "p/q" string except in ``mc-check``, whose estimates are floats.
Output is byte-identical across runs with identical flags (and seed).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from fractions import Fraction

from . import combin, verify
from .basis4 import BasisLabel, basis_norm, basis_poly4, decompose_label, invariant_F
from .exact import ParamContext, format_rational, make_context, parse_rational
from .hermite_cs import (
    cs_invariant_eigenfunction,
    cs_invariant_energy,
    energy_level,
    hermite_basis,
)
from .jack import nsjp, nsjp_eval_ones
from .measure import McConfig, mc_inner_products, mc_report, normalization_constant, selberg_product
from .ops import pairing_extended
from .poly import poly_to_json, var_names
from .verify import SUITES


def _parse_rational_arg(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_label_arg(text: str) -> tuple[int, ...]:
    try:
        parts = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated label: {text!r}") from None
    if any(p < 0 for p in parts):
        raise argparse.ArgumentTypeError("label parts must be nonnegative")
    return parts


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``jack4`` argument parser, built once per process and shared by
    every ``main`` call.

    Building it (seven subcommands, each ``add_argument`` making a help
    formatter) costs far more than parsing one request, and parsing keeps
    no state on it: ``parse_args`` returns a fresh namespace, the defaults
    are immutable, and help and usage text are formatted when printed.  It
    is built on first use, not at import, and ``cache_clear`` drops it.
    """
    parser = argparse.ArgumentParser(prog="jack4", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, kappa_prime=True):
        p.add_argument("--kappa", type=_parse_rational_arg, default=Fraction(1),
                       help='reflection parameter, exact "p/q" (default 1)')
        if kappa_prime:
            p.add_argument("--kappa-prime", type=_parse_rational_arg, default=Fraction(0),
                           help='sign-change parameter, exact "p/q" (default 0)')
        p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("nsjp", help="one nonsymmetric Jack polynomial")
    p.add_argument("--alpha", type=_parse_label_arg, required=True,
                   help="composition, e.g. 1,0,0")
    p.add_argument("--nvars", type=int, default=None,
                   help="variable count (default: length of alpha)")
    common(p, kappa_prime=False)

    p = sub.add_parser("basis", help="one basis element p_gamma * y0^n, or an "
                                     "invariant family element F^s_lambda")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--gamma", type=_parse_label_arg, help="e.g. 2,0,1")
    group.add_argument("--lambda", dest="lam", type=_parse_label_arg,
                       help="partition label of the invariant family")
    p.add_argument("--n", type=int, help="power of y0, with --gamma (default 0)")
    p.add_argument("--s", type=int, choices=(0, 1),
                   help="parity sector of the invariant family, with --lambda (default 0)")
    common(p)

    p = sub.add_parser("hermite", help="weight-orthogonal image of a basis element, "
                                       "or an invariant eigenfunction")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--gamma", type=_parse_label_arg)
    group.add_argument("--lambda", dest="lam", type=_parse_label_arg)
    p.add_argument("--n", type=int)
    p.add_argument("--s", type=int, choices=(0, 1))
    common(p)

    p = sub.add_parser("norm-table", help="closed-form norms up to a total degree")
    p.add_argument("--max-degree", type=int, default=4)
    common(p)

    p = sub.add_parser("spectrum", help="energy levels up to a total degree")
    p.add_argument("--max-degree", type=int, default=4)
    common(p)

    p = sub.add_parser("verify", help="run an exact verification suite")
    p.add_argument("--suite", choices=sorted(SUITES), required=True)
    p.add_argument("--max-degree", type=int, default=4)
    common(p)

    p = sub.add_parser("mc-check", help="Monte Carlo checks against the weight measure")
    p.add_argument("--kappa", type=_parse_rational_arg, default=Fraction(1),
                   help="reflection parameter; decimals accepted")
    p.add_argument("--kappa-prime", type=_parse_rational_arg, default=Fraction(1, 2),
                   help="sign-change parameter; decimals accepted")
    p.add_argument("--samples", type=int, default=200000)
    p.add_argument("--seed", type=int, default=20080824)
    p.add_argument("--format", choices=("json", "csv"), default="json")

    return parser


def _emit(args, payload: dict, csv_rows) -> None:
    """Print payload as indented JSON, or with --format csv the header and
    rows that ``csv_rows()`` returns; a JSON request never builds the rows."""
    if args.format == "json":
        print(_json(payload))
    else:
        header, rows = csv_rows()
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        sys.stdout.write(buf.getvalue())


def _json(value, indent: str = "\n") -> str:
    """``json.dumps(value, indent=2)`` without the pure-Python encoder that
    ``indent`` selects: dicts with str keys, lists, tuples, str and int are
    written here, and every other scalar is handed to ``json.dumps``."""
    quote = json.encoder.encode_basestring_ascii
    if isinstance(value, str):
        return quote(value)
    if type(value) is int:
        return int.__repr__(value)
    inner = indent + "  "
    if isinstance(value, dict):
        items, ends = [f"{quote(k)}: {_json(v, inner)}" for k, v in value.items()], "{}"
    elif isinstance(value, (list, tuple)):
        items, ends = [_json(v, inner) for v in value], "[]"
    else:
        return json.dumps(value)
    if not items:
        return ends
    return ends[0] + inner + ("," + inner).join(items) + indent + ends[1]


def _poly_csv_rows(f) -> tuple[list[str], list[list[str]]]:
    header = [f"e_{name}" for name in var_names(f.frame)] + ["coef"]
    rows = [[str(e) for e in exp] + [format_rational(c)] for exp, c in f.ordered_terms()]
    return header, rows


def _cmd_nsjp(args) -> int:
    alpha = args.alpha
    nvars = args.nvars if args.nvars is not None else len(alpha)
    if nvars != len(alpha):
        raise ValueError(f"alpha has {len(alpha)} parts but --nvars is {nvars}")
    if args.kappa <= 0:
        raise ValueError("nsjp requires kappa > 0")
    ctx = make_context(args.kappa, 0, nvars)
    rec = nsjp(alpha, ctx)
    payload = {
        "alpha": list(alpha),
        "nvars": nvars,
        "kappa": format_rational(ctx.kappa),
        "poly": poly_to_json(rec.poly),
        "spectral": [format_rational(v) for v in rec.spectral],
        "norm": format_rational(rec.norm),
        "eval_ones": format_rational(nsjp_eval_ones(alpha, ctx)),
    }
    _emit(args, payload, lambda: _poly_csv_rows(rec.poly))
    return 0


def _make_ctx4(args) -> ParamContext:
    if args.kappa <= 0:
        raise ValueError("this command requires kappa > 0")
    return make_context(args.kappa, args.kappa_prime, 3)


def _mode_flags(args, lambda_takes_n: bool) -> tuple[int, int]:
    """--n and --s of basis and hermite, defaulting to 0; a flag that the
    --gamma or --lambda mode does not read is refused, not ignored."""
    if args.gamma is not None and args.s is not None:
        raise ValueError("--s needs --lambda")
    if args.lam is not None and args.n is not None and not lambda_takes_n:
        raise ValueError("--n needs --gamma")
    return args.n or 0, args.s or 0


def _cmd_basis(args) -> int:
    n, s = _mode_flags(args, lambda_takes_n=False)
    ctx = _make_ctx4(args)
    if args.lam is not None:
        rec = invariant_F(args.lam, s, ctx)
        payload = {
            "lambda": list(args.lam),
            "s": s,
            **verify._params(ctx),
            "poly": poly_to_json(rec.poly),
            "a_lambda": format_rational(rec.a_lambda),
            "formula_norm": format_rational(rec.formula_norm),
            "pairing_norm": format_rational(rec.pairing_norm),
        }
        _emit(args, payload, lambda: _poly_csv_rows(rec.poly))
        return 0
    if len(args.gamma) != 3 or n < 0:
        raise ValueError("--gamma needs three parts and --n must be nonnegative")
    label = BasisLabel(args.gamma, n)
    f = basis_poly4(label, ctx)
    d = decompose_label(args.gamma)
    payload = {
        "gamma": list(args.gamma),
        "n": n,
        **verify._params(ctx),
        "decomposition": {
            "odd_set": list(d.odd_set),
            "w": [i + 1 for i in d.w],
            "beta": list(d.beta),
            "alpha": list(d.alpha),
        },
        "poly": poly_to_json(f),
        "norm": format_rational(basis_norm(label, ctx)),
    }
    _emit(args, payload, lambda: _poly_csv_rows(f))
    return 0


def _cmd_hermite(args) -> int:
    n, s = _mode_flags(args, lambda_takes_n=True)
    ctx = _make_ctx4(args)
    if args.lam is not None:
        f = cs_invariant_eigenfunction(args.lam, s, n, ctx)
        payload = {
            "lambda": list(args.lam),
            "s": s,
            "n": n,
            **verify._params(ctx),
            "poly": poly_to_json(f),
            "energy": format_rational(cs_invariant_energy(args.lam, s, n, ctx)),
        }
        _emit(args, payload, lambda: _poly_csv_rows(f))
        return 0
    if len(args.gamma) != 3 or n < 0:
        raise ValueError("--gamma needs three parts and --n must be nonnegative")
    rec = hermite_basis(BasisLabel(args.gamma, n), ctx)
    payload = {
        "gamma": list(args.gamma),
        "n": n,
        **verify._params(ctx),
        "poly": poly_to_json(rec.poly),
        "energy": format_rational(rec.energy),
    }
    _emit(args, payload, lambda: _poly_csv_rows(rec.poly))
    return 0


def _label_table(args, column: str, value) -> int:
    """One row per basis label up to --max-degree, with value(label, ctx) in ``column``."""
    ctx = _make_ctx4(args)
    rows = [
        {
            "gamma": list(label.gamma),
            "n": label.n,
            "degree": combin.weight(label.gamma) + label.n,
            column: format_rational(value(label, ctx)),
        }
        for label in verify.basis_labels_up_to(args.max_degree)
    ]
    payload = {**verify._params(ctx), "rows": rows}
    _emit(args, payload, lambda: (
        ["gamma", "n", "degree", column],
        [[",".join(str(g) for g in r["gamma"]), str(r["n"]), str(r["degree"]), r[column]]
         for r in rows],
    ))
    return 0


def _cmd_norm_table(args) -> int:
    return _label_table(args, "norm", basis_norm)


def _cmd_spectrum(args) -> int:
    return _label_table(args, "energy", energy_level)


def _cmd_verify(args) -> int:
    ctx = _make_ctx4(args)
    report = verify.run_suite(args.suite, ctx, args.max_degree)
    payload = report.to_json()
    _emit(args, payload, lambda: (
        ["suite", "kappa", "kappa_prime", "max_degree", "checked", "failures",
         "first_counterexample", "ok"],
        [[report.suite, payload["params"]["kappa"], payload["params"]["kappa_prime"],
          str(report.max_degree), str(report.checked), str(report.failures),
          report.first_counterexample or "", str(report.ok).lower()]],
    ))
    return 0 if report.ok else 1


def _positive_finite(compute) -> bool:
    """Whether ``compute()`` gives a positive finite float; a parameter past
    float range, or an exp that overflows, counts as no."""
    try:
        value = compute()
    except OverflowError:
        return False
    return value > 0 and math.isfinite(value)


def _mc_config(args) -> McConfig:
    """The ``mc-check`` run parameters, refused before any image is built
    unless the Selberg product and the normalization constants at (kappa, 0)
    and (kappa, kappa') are positive finite floats.  Past those limits the
    check would crash, estimate 0 or print NaN."""
    kappa, kappa_prime = args.kappa, args.kappa_prime
    if not (_positive_finite(lambda: selberg_product(4, float(kappa)))
            and _positive_finite(lambda: normalization_constant(float(kappa), 0.0))):
        raise ValueError("--kappa is too large: the Selberg product or normalization "
                         "constant is not a positive finite float")
    if not _positive_finite(lambda: normalization_constant(float(kappa), float(kappa_prime))):
        raise ValueError("--kappa-prime is too large at this --kappa: the normalization "
                         "constant is not a positive finite float")
    return McConfig(args.samples, args.seed, float(kappa), float(kappa_prime))


def _cmd_mc_check(args) -> int:
    ctx = make_context(args.kappa, args.kappa_prime, 3)
    cfg = _mc_config(args)
    checks = []
    ok = True

    # normalization constant against its Selberg-product reduction at kappa' = 0
    inv_c = 1.0 / normalization_constant(cfg.kappa, 0.0)
    selberg = selberg_product(4, cfg.kappa)
    consistent = abs(inv_c - selberg) <= 1e-9 * max(1.0, abs(selberg))
    normalization = {
        "kappa": cfg.kappa,
        "inverse_constant": inv_c,
        "selberg_product": selberg,
        "consistent": consistent,
    }
    ok = ok and consistent

    # spot pairs: (name, pre-image label pair); images are integrated against dmu
    pairs = [
        ("<1,1>", BasisLabel((0, 0, 0), 0), BasisLabel((0, 0, 0), 0)),
        ("<H[y0],H[y0]>", BasisLabel((0, 0, 0), 1), BasisLabel((0, 0, 0), 1)),
        ("<H[y1],H[y1]>", BasisLabel((1, 0, 0), 0), BasisLabel((1, 0, 0), 0)),
        ("<H[y0],H[y1]>", BasisLabel((0, 0, 0), 1), BasisLabel((1, 0, 0), 0)),
        ("<H[y0^2],H[y0^2]>", BasisLabel((0, 0, 0), 2), BasisLabel((0, 0, 0), 2)),
        ("<H[p_200],H[p_200]>", BasisLabel((2, 0, 0), 0), BasisLabel((2, 0, 0), 0)),
    ]
    # each distinct label's image and pre-image are built once, so a label
    # shared by several pairs is one object: evaluated once per Monte Carlo
    # tile, and paired through one dual vector when both sides are the same
    built = {}
    for _, la, lb in pairs:
        for label in (la, lb):
            if label not in built:
                built[label] = (hermite_basis(label, ctx).poly, basis_poly4(label, ctx))
    images = [(built[la][0], built[lb][0]) for _, la, lb in pairs]
    exacts = [pairing_extended(built[la][1], built[lb][1], ctx) for _, la, lb in pairs]
    estimates = mc_inner_products(images, cfg)
    for (name, _, _), exact, (est, se) in zip(pairs, exacts, estimates):
        checks.append(mc_report(name, cfg, est, se, exact))
        tol = max(3 * se, 0.02 * abs(float(exact)))
        ok = ok and abs(est - float(exact)) <= tol

    payload = {"normalization": normalization, "checks": checks, "ok": ok}
    _emit(args, payload, lambda: (
        ["integrand", "kappa", "kappa_prime", "samples", "seed", "estimate", "stderr", "exact"],
        [[c["integrand"], repr(c["kappa"]), repr(c["kappa_prime"]), str(c["samples"]),
          str(c["seed"]), repr(c["estimate"]), repr(c["stderr"]), c["exact"] or ""]
         for c in checks],
    ))
    return 0 if ok else 1


_COMMANDS = {
    "nsjp": _cmd_nsjp,
    "basis": _cmd_basis,
    "hermite": _cmd_hermite,
    "norm-table": _cmd_norm_table,
    "spectrum": _cmd_spectrum,
    "verify": _cmd_verify,
    "mc-check": _cmd_mc_check,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
