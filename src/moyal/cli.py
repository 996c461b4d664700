"""Command-line interface.

Subcommands: wigner (grid CSV export), spectrum (JSON), negativity (JSON,
with reference-table check and lambda scans), verify (cross-engine
invariant suite).  Exit codes: 0 success, 2 usage error, 3 I/O failure,
4 acceptance mismatch, 5 verification failure.

Output is deterministic for a fixed configuration: fixed formatting and
fixed iteration order.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import __version__
from .errors import MoyalError
from .formats import records_to_json, write_grid_csv
from .grid import GridField, GridSpec
from .models import (DampedParams, HeliumParams, damped_energy,
                     damped_wigner_values, harmonic_wigner_values,
                     helium_energy, helium_energy_first_order)
from .negativity import (ETA_REFERENCE, damped_box, lambda_scan,
                         negativity_table)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_MISMATCH = 4
EXIT_VERIFY = 5

# Independent high-precision evaluation reproduces the embedded reference
# values only to ~1e-5 absolute for large n (their own numerical noise), so
# the default check tolerance covers that floor.
TABLE_CHECK_TOL = 1e-4


def _grid_spec(args) -> GridSpec:
    return GridSpec(args.qmin, args.qmax, args.pmin, args.pmax, args.nq, args.np)


def _add_grid_flags(p: argparse.ArgumentParser):
    p.add_argument("--qmin", type=float, default=-6.0)
    p.add_argument("--qmax", type=float, default=6.0)
    p.add_argument("--pmin", type=float, default=-6.0)
    p.add_argument("--pmax", type=float, default=6.0)
    p.add_argument("--nq", type=int, default=201)
    p.add_argument("--np", type=int, default=201)


def _add_model_flags(p: argparse.ArgumentParser):
    p.add_argument("--model", choices=("harmonic", "damped", "helium"),
                   required=True)
    p.add_argument("--nu", type=int, default=None, help="center-of-mass sector")
    p.add_argument("--nv", type=int, default=None, help="relative sector")
    p.add_argument("--lambda", dest="lam", type=float, default=0.0,
                   help="dissipation (damped model only)")
    p.add_argument("--xi", type=float, default=0.0,
                   help="electron-electron coupling (helium only)")
    p.add_argument("--mass", type=float, default=1.0)
    p.add_argument("--omega", type=float, default=1.0)
    p.add_argument("--hbar", type=float, default=1.0)


def _validate_model_args(args, parser, n=0):
    """Check the model flags; helium fills a missing --nu or --nv with n."""
    if args.model != "damped" and args.lam != 0.0:
        parser.error("--lambda applies to the damped model only")
    if args.model != "helium" and args.xi != 0.0:
        parser.error("--xi applies to the helium model only")
    if args.model == "damped" and not args.mass == args.omega == args.hbar == 1.0:
        parser.error("the damped model is formulated at mass=omega=hbar=1")
    if args.model == "helium":
        if args.nu is None:
            args.nu = n
        if args.nv is None:
            args.nv = n
    elif args.nu is not None or args.nv is not None:
        parser.error("--nu/--nv apply to the helium model only")
    if n < 0 or (args.nu or 0) < 0 or (args.nv or 0) < 0:
        parser.error("quantum numbers must be nonnegative")
    if not (args.mass > 0.0 and args.omega > 0.0 and args.hbar > 0.0):
        parser.error("--mass, --omega and --hbar must be positive")


def _write_text(path, text) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", newline="") as fh:
        fh.write(text)


def cmd_wigner(args, parser) -> int:
    _validate_model_args(args, parser, args.n)
    if not args.out:
        parser.error("--out is required for wigner export")
    if args.out == "-" and args.model == "helium":
        parser.error("--out - takes one file; helium writes two")
    out = sys.stdout if args.out == "-" else args.out
    spec = _grid_spec(args)
    Q, P = spec.meshgrid()
    common = {"model": args.model, "normalization": "unit-integral"}
    if args.model == "damped":
        dp = DampedParams(args.lam, args.n)
        warnings = ()
        r = damped_box(args.n, args.lam)[1]
        if min(-spec.qmin, spec.qmax, -spec.pmin, spec.pmax) < r:
            warnings = (f"the box cuts the state off; damped_box spans "
                        f"|q| and |p| up to {r:.3g}",)
            print(f"note: {warnings[0]}", file=sys.stderr)
            del common["normalization"]
        vals = damped_wigner_values(dp, Q, P)
        write_grid_csv(GridField(spec, vals, 1.0, warnings), out,
                       {**common, "n": args.n, "lambda": args.lam})
    elif args.model == "harmonic":
        vals = harmonic_wigner_values(args.n, Q, P, args.mass, args.omega,
                                      args.hbar)
        field = GridField(spec, vals, args.hbar)
        write_grid_csv(field, out,
                       {**common, "n": args.n, "m": args.mass,
                        "omega": args.omega, "hbar": args.hbar})
    else:
        params = HeliumParams(args.mass, args.omega, args.xi, args.hbar)
        # the extension of the file name, not of a directory on its path
        stem, ext = os.path.splitext(args.out)
        for sector, nn, om in (("u", args.nu, params.omega_u),
                               ("v", args.nv, params.omega_v)):
            vals = harmonic_wigner_values(nn, Q, P, params.m, om, params.hbar)
            field = GridField(spec, vals, params.hbar)
            write_grid_csv(field, f"{stem}_{sector}{ext or '.csv'}",
                           {**common, "sector": sector, "n": nn,
                            "xi": args.xi, "m": params.m,
                            "omega": params.omega, "hbar": params.hbar})
    return EXIT_OK


def cmd_spectrum(args, parser) -> int:
    # helium prints one (nu, nv) pair when either is given, else the ladder;
    # read before _validate_model_args fills a missing one with 0
    one_pair = args.nu is not None or args.nv is not None
    _validate_model_args(args, parser)
    if args.n_max < 0:
        parser.error("--n-max must be nonnegative")
    rows = []
    if args.model == "damped":
        for n in range(args.n_max + 1):
            rows.append({"n": n, "E": damped_energy(DampedParams(args.lam, n))})
        extra = {"model": "damped", "lambda": args.lam}
    elif args.model == "harmonic":
        for n in range(args.n_max + 1):
            rows.append({"n": n, "E": args.hbar * args.omega * (n + 0.5)})
        extra = {"model": "harmonic", "m": args.mass, "omega": args.omega,
                 "hbar": args.hbar}
    else:
        params = HeliumParams(args.mass, args.omega, args.xi, args.hbar)
        if one_pair:
            pairs = [(args.nu, args.nv)]
        else:
            pairs = [(k, k) for k in range(args.n_max + 1)]
        for nu, nv in pairs:
            rows.append({
                "nu": nu, "nv": nv,
                "E_exact": helium_energy(nu, nv, params),
                "E_first_order": helium_energy_first_order(nu, nv, params),
            })
        extra = {"model": "helium", "xi": args.xi, "m": params.m,
                 "omega": params.omega, "hbar": params.hbar}
    _write_text(args.out, records_to_json(rows, extra))
    return EXIT_OK


def cmd_negativity(args, parser) -> int:
    if args.model != "damped":
        parser.error("the negativity indicator is provided for the damped model")
    if not (math.isfinite(args.table_tol) and args.table_tol > 0.0):
        parser.error("--table-tol must be finite and > 0")
    if args.lambda_scan is not None:
        # the table flags, at a value other than their default
        defaults = parser.parse_args(["negativity"])
        unread = [flag for flag, dest in (
            ("--check-table1", "check_table1"), ("--lambda", "lam"),
            ("--n-max", "n_max"), ("--method", "method"))
            if getattr(args, dest) != getattr(defaults, dest)]
        if unread:
            parser.error(f"--lambda-scan writes no table, so it takes no "
                         f"{', '.join(unread)}")
        try:
            lams = [float(t) for t in args.lambda_scan.split(",") if t.strip()]
        except ValueError:
            parser.error("--lambda-scan expects a comma-separated list")
        report = lambda_scan(args.n, lams, args.tol)
        doc = {
            "n": report.n, "tol": report.tol, "lambdas": list(report.lams),
            "radial_eta": report.radial.eta,
            "grid_etas": [r.eta for r in report.grid],
            "max_deviation": report.max_deviation, "ok": report.ok,
        }
        _write_text(args.out, json.dumps(doc, indent=2) + "\n")
        if not report.ok:
            print(f"lambda scan FAILED: max deviation {report.max_deviation:.3e}"
                  f" > tol {report.tol:.1e}; per-lambda etas "
                  f"{[r.eta for r in report.grid]}", file=sys.stderr)
            return EXIT_MISMATCH
        return EXIT_OK
    if args.method == "radial":
        records = negativity_table(args.n_max, args.lam, "radial")
    else:
        records = negativity_table(args.n_max, args.lam, "grid", tol=args.tol)
    _write_text(args.out, records_to_json(
        records, {"model": "damped", "lambda": args.lam,
                  "method": args.method}))
    if args.check_table1:
        bad = []
        for rec in records:
            if rec.n < len(ETA_REFERENCE):
                diff = abs(rec.eta - ETA_REFERENCE[rec.n])
                if diff > args.table_tol:
                    bad.append((rec.n, rec.eta, ETA_REFERENCE[rec.n], diff))
        if bad:
            print("reference-table mismatch:", file=sys.stderr)
            for n, got, want, diff in bad:
                print(f"  n={n}: got {got!r}, reference {want!r}, "
                      f"|diff|={diff:.3e} > {args.table_tol:.1e}",
                      file=sys.stderr)
            return EXIT_MISMATCH
    return EXIT_OK


def cmd_verify(args, parser) -> int:
    from .verify import report, run_checks

    results = run_checks(grid_points=args.nq)
    ok = report(results)
    return EXIT_OK if ok else EXIT_VERIFY


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="moyal",
        description="Phase-space quantum mechanics: star products, Wigner "
                    "functions, spectra and negativity.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    pw = sub.add_parser("wigner", help="export a Wigner function grid as CSV")
    _add_model_flags(pw)
    pw.add_argument("--n", type=int, default=0, help="quantum number")
    _add_grid_flags(pw)
    pw.add_argument("--out", required=False,
                    help="CSV path; '-' writes to standard output (not for "
                         "helium, which writes <stem>_u and <stem>_v)")

    ps = sub.add_parser("spectrum", help="emit energy levels as JSON")
    _add_model_flags(ps)
    ps.add_argument("--n-max", type=int, default=3)
    ps.add_argument("--out", default=None)

    pn = sub.add_parser("negativity", help="non-classicality indicator table")
    pn.add_argument("--model", choices=("harmonic", "damped", "helium"),
                    default="damped")
    pn.add_argument("--n", type=int, default=1,
                    help="quantum number for --lambda-scan")
    pn.add_argument("--n-max", type=int, default=9)
    pn.add_argument("--lambda", dest="lam", type=float, default=0.0)
    pn.add_argument("--method", choices=("radial", "grid"), default="radial")
    pn.add_argument("--tol", type=float, default=1e-3,
                    help="grid-method / lambda-scan tolerance")
    pn.add_argument("--check-table1", action="store_true",
                    help="compare n<=9 against the embedded reference values")
    pn.add_argument("--table-tol", type=float, default=TABLE_CHECK_TOL)
    pn.add_argument("--lambda-scan", default=None,
                    help="comma-separated dissipation values")
    pn.add_argument("--out", default=None)

    pv = sub.add_parser("verify", help="run the cross-engine invariant suite")
    pv.add_argument("--nq", type=int, default=128,
                    help="grid resolution for the numerical checks")
    return parser


_DISPATCH = {
    "wigner": cmd_wigner,
    "spectrum": cmd_spectrum,
    "negativity": cmd_negativity,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _DISPATCH[args.command](args, parser)
    except (MoyalError, ValueError) as exc:
        # configuration-class failures (bad box, non-normalizable input,
        # a parameter outside its model's range, ...)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
