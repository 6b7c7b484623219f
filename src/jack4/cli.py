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
import io
import json
import sys
from fractions import Fraction

from . import combin, verify
from .basis4 import BasisLabel, basis_norm, basis_poly4, decompose_label, invariant_F
from .exact import format_rational, make_context, parse_rational
from .hermite_cs import (
    cs_invariant_eigenfunction,
    cs_invariant_energy,
    energy_level,
    hermite_basis,
)
from .jack import nsjp, nsjp_eval_ones
from .measure import McConfig, mc_inner_product, mc_report, normalization_constant, selberg_product
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


def build_parser() -> argparse.ArgumentParser:
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
    p.add_argument("--n", type=int, default=0, help="power of y0 (default 0)")
    p.add_argument("--s", type=int, choices=(0, 1), default=0,
                   help="parity sector of the invariant family (with --lambda)")
    common(p)

    p = sub.add_parser("hermite", help="weight-orthogonal image of a basis element, "
                                       "or an invariant eigenfunction")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--gamma", type=_parse_label_arg)
    group.add_argument("--lambda", dest="lam", type=_parse_label_arg)
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--s", type=int, choices=(0, 1), default=0)
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


def _emit(args, payload: dict, csv_rows: tuple[list[str], list[list[str]]]) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        header, rows = csv_rows
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        sys.stdout.write(buf.getvalue())


def _poly_csv_rows(f) -> tuple[list[str], list[list[str]]]:
    header = [f"e_{name}" for name in var_names(f.frame, f.nvars)] + ["coef"]
    rows = [[str(e) for e in exp] + [format_rational(c)] for exp, c in f.terms.items()]
    return header, rows


def _cmd_nsjp(args) -> int:
    alpha = args.alpha
    nvars = args.nvars if args.nvars is not None else len(alpha)
    if nvars != len(alpha):
        print(f"error: alpha has {len(alpha)} parts but --nvars is {nvars}", file=sys.stderr)
        return 2
    if args.kappa <= 0:
        print("error: nsjp requires kappa > 0", file=sys.stderr)
        return 2
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
    _emit(args, payload, _poly_csv_rows(rec.poly))
    return 0


def _make_ctx4(args) -> tuple:
    if args.kappa <= 0:
        print("error: this command requires kappa > 0", file=sys.stderr)
        return None, 2
    return make_context(args.kappa, args.kappa_prime, 3), 0


def _cmd_basis(args) -> int:
    ctx, err = _make_ctx4(args)
    if err:
        return err
    if args.lam is not None:
        rec = invariant_F(args.lam, args.s, ctx)
        payload = {
            "lambda": list(args.lam),
            "s": args.s,
            **verify._params(ctx),
            "poly": poly_to_json(rec.poly),
            "a_lambda": format_rational(rec.a_lambda),
            "formula_norm": format_rational(rec.formula_norm),
            "pairing_norm": format_rational(rec.pairing_norm),
        }
        _emit(args, payload, _poly_csv_rows(rec.poly))
        return 0
    if len(args.gamma) != 3 or args.n < 0:
        print("error: --gamma needs three parts and --n must be nonnegative", file=sys.stderr)
        return 2
    label = BasisLabel(args.gamma, args.n)
    f = basis_poly4(label, ctx)
    d = decompose_label(args.gamma)
    payload = {
        "gamma": list(args.gamma),
        "n": args.n,
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
    _emit(args, payload, _poly_csv_rows(f))
    return 0


def _cmd_hermite(args) -> int:
    ctx, err = _make_ctx4(args)
    if err:
        return err
    if args.lam is not None:
        f = cs_invariant_eigenfunction(args.lam, args.s, args.n, ctx)
        payload = {
            "lambda": list(args.lam),
            "s": args.s,
            "n": args.n,
            **verify._params(ctx),
            "poly": poly_to_json(f),
            "energy": format_rational(cs_invariant_energy(args.lam, args.s, args.n, ctx)),
        }
        _emit(args, payload, _poly_csv_rows(f))
        return 0
    if len(args.gamma) != 3 or args.n < 0:
        print("error: --gamma needs three parts and --n must be nonnegative", file=sys.stderr)
        return 2
    rec = hermite_basis(BasisLabel(args.gamma, args.n), ctx)
    payload = {
        "gamma": list(args.gamma),
        "n": args.n,
        **verify._params(ctx),
        "poly": poly_to_json(rec.poly),
        "energy": format_rational(rec.energy),
    }
    _emit(args, payload, _poly_csv_rows(rec.poly))
    return 0


def _label_table(args, column: str, value) -> int:
    """One row per basis label up to --max-degree, with value(label, ctx) in ``column``."""
    ctx, err = _make_ctx4(args)
    if err:
        return err
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
    csv_rows = (
        ["gamma", "n", "degree", column],
        [[",".join(str(g) for g in r["gamma"]), str(r["n"]), str(r["degree"]), r[column]]
         for r in rows],
    )
    _emit(args, payload, csv_rows)
    return 0


def _cmd_norm_table(args) -> int:
    return _label_table(args, "norm", basis_norm)


def _cmd_spectrum(args) -> int:
    return _label_table(args, "energy", energy_level)


def _cmd_verify(args) -> int:
    ctx, err = _make_ctx4(args)
    if err:
        return err
    report = verify.run_suite(args.suite, ctx, args.max_degree)
    payload = report.to_json()
    csv_rows = (
        ["suite", "kappa", "kappa_prime", "max_degree", "checked", "failures",
         "first_counterexample", "ok"],
        [[report.suite, payload["params"]["kappa"], payload["params"]["kappa_prime"],
          str(report.max_degree), str(report.checked), str(report.failures),
          report.first_counterexample or "", str(report.ok).lower()]],
    )
    _emit(args, payload, csv_rows)
    return 0 if report.ok else 1


def _cmd_mc_check(args) -> int:
    ctx = make_context(args.kappa, args.kappa_prime, 3)
    cfg = McConfig(args.samples, args.seed, float(args.kappa), float(args.kappa_prime))
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
    for name, la, lb in pairs:
        fa = hermite_basis(la, ctx).poly
        fb = fa if la == lb else hermite_basis(lb, ctx).poly
        exact = pairing_extended(basis_poly4(la, ctx), basis_poly4(lb, ctx), ctx)
        est, se = mc_inner_product(fa, fb, cfg)
        checks.append(mc_report(name, cfg, est, se, exact))
        tol = max(3 * se, 0.02 * abs(float(exact)))
        ok = ok and abs(est - float(exact)) <= tol

    payload = {"normalization": normalization, "checks": checks, "ok": ok}
    csv_rows = (
        ["integrand", "kappa", "kappa_prime", "samples", "seed", "estimate", "stderr", "exact"],
        [[c["integrand"], repr(c["kappa"]), repr(c["kappa_prime"]), str(c["samples"]),
          str(c["seed"]), repr(c["estimate"]), repr(c["stderr"]), c["exact"] or ""]
         for c in checks],
    )
    _emit(args, payload, csv_rows)
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
