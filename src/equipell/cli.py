"""Command-line front end.

Subcommands: moments, verify, solve, extension, cheb.  Reports are JSON
(floats serialized by shortest round-trip repr, never more than 17
significant digits); moment tables can also be exported as CSV.

Exit codes: 0 success/pass, 1 verified-fail (residual above tolerance),
2 usage or parse error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

import numpy as np

from . import maxdet, measures, pellcheck, sets
from .christoffel import SingularMatrixError
from .momkit import MomentSequence
from .mvpoly import monomial_basis, poly_from_literal

PASS, FAIL, USAGE, NUMERICAL = 0, 1, 2, 3


def _write_out(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w") as handle:
            handle.write(text)
            if not text.endswith("\n"):
                handle.write("\n")
    else:
        print(text)


def _moment_rows(phi: MomentSequence):
    for alpha in monomial_basis(phi.n, phi.order):
        value = phi.value(alpha)
        yield alpha, value


def cmd_moments(args) -> int:
    if args.region:
        weight = None
        if args.weight:
            n = 1 if args.region == "interval" else 2
            with open(args.weight) as handle:
                weight = poly_from_literal(n, json.load(handle))
        w_deg = 0 if weight is None else max(weight.degree, 0)
        level = args.level if args.level else 2 * args.t + w_deg + 2
        model = measures.quadrature(weight, args.region, level)
    elif args.model:
        model = measures.named_model(args.model)
    elif args.set:
        genset = sets.resolve_set(args.set)
        if not genset.known_measure:
            raise ValueError(
                f"set {genset.name!r} has no closed-form measure; use --model"
            )
        model = measures.named_model(genset.known_measure)
    else:
        raise ValueError("one of --model, --set or --region is required")
    phi = MomentSequence.from_model(model, 2 * args.t)
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow([f"a{i + 1}" for i in range(phi.n)] + ["value"])
        for alpha, value in _moment_rows(phi):
            writer.writerow(list(alpha) + [repr(float(value))])
        _write_out(buf.getvalue().rstrip("\n"), args.out)
    else:
        table = {
            " ".join(map(str, alpha)): {
                "value": float(value),
                "exact": str(value) if phi.is_exact else None,
            }
            for alpha, value in _moment_rows(phi)
        }
        payload = {"model": model.kind, "t": args.t, "order": 2 * args.t, "moments": table}
        _write_out(json.dumps(payload, indent=2), args.out)
    return PASS


def cmd_verify(args) -> int:
    genset = sets.resolve_set(args.set)
    if args.source == "solver":
        tol = args.tol if args.tol is not None else 1e-6
        report = maxdet.solve(genset, args.t, tol=1e-12, samples=args.samples,
                              seed=args.seed, max_iter=args.max_iter)
        phi = report.phi
    else:
        tol = args.tol if args.tol is not None else pellcheck.DEFAULT_TOL
        if not genset.known_measure:
            raise ValueError(
                f"set {genset.name!r} has no closed-form measure; "
                "use --source solver"
            )
        model = measures.named_model(genset.known_measure)
        phi = MomentSequence.from_model(model, 2 * args.t)
    pell = pellcheck.generalized_pell_residual(genset, phi, args.t, tol=tol)
    _write_out(json.dumps(pell.to_jsonable(), indent=2), args.out)
    return PASS if pell.passed else FAIL


def cmd_solve(args) -> int:
    genset = sets.resolve_set(args.set)
    tol = args.tol if args.tol is not None else 1e-10
    report = maxdet.solve(genset, args.t, tol=tol, samples=args.samples,
                          seed=args.seed, max_iter=args.max_iter)
    _write_out(
        json.dumps(report.to_jsonable(include_trace=args.trace), indent=2),
        args.out,
    )
    return PASS


def cmd_extension(args) -> int:
    if args.t_from > args.t_to:
        raise ValueError(f"--t-from {args.t_from} exceeds --t-to {args.t_to}")
    genset = sets.resolve_set(args.set)
    tol = args.tol if args.tol is not None else 1e-10
    table = maxdet.extension_sweep(
        genset, args.t_from, args.t_to, tol=tol, seed=args.seed,
        samples=args.samples, max_iter=args.max_iter,
    )
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["t_low", "t_high", "distance", "verdict"])
        for lo, hi, d, v in table.distances:
            writer.writerow([lo, hi, repr(d), v])
        _write_out(buf.getvalue().rstrip("\n"), args.out)
    else:
        _write_out(json.dumps(table.to_jsonable(), indent=2), args.out)
    if table.aborted_at is not None:
        return NUMERICAL
    return PASS


def cmd_cheb(args) -> int:
    worst = 0
    lines = []
    for order in range(1, args.t + 1):
        residual = pellcheck.chebyshev_pell_identity(order)
        peak = residual.max_coeff()
        worst = max(worst, peak)
        lines.append(
            {"n": order, "residual_max": str(peak), "identically_zero": residual.is_zero()}
        )
    payload = {"max_order": args.t, "all_zero": worst == 0, "orders": lines}
    _write_out(json.dumps(payload, indent=2), args.out)
    return PASS if worst == 0 else FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="equipell",
        description="Moment matrices, Christoffel functions and Pell identities "
        "for equilibrium measures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_t=True):
        if with_t:
            p.add_argument("--t", type=int, required=True, help="relaxation order")
        p.add_argument("--tol", type=float, default=None)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--samples", type=int, default=200_000)
        p.add_argument("--max-iter", dest="max_iter", type=int, default=200)
        p.add_argument("--out", default=None, help="write the report to a file")
        p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("moments", help="moment table of a named measure")
    p.add_argument("--model", default=None, help=f"one of {sorted(measures.MODEL_KEYS)}")
    p.add_argument("--set", default=None, help="set name or definition file")
    p.add_argument("--region", default=None,
                   choices=("interval", "box", "ball2d", "simplex2d"),
                   help="quadrature region for a custom weight")
    p.add_argument("--weight", default=None,
                   help="JSON file with a polynomial literal weight")
    p.add_argument("--level", type=int, default=None, help="nodes per axis")
    common(p)
    p.set_defaults(func=cmd_moments)

    p = sub.add_parser("verify", help="check the generalized Pell identity")
    p.add_argument("--set", required=True)
    p.add_argument("--source", choices=("model", "solver"), default="model")
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("solve", help="solve the log-det moment program")
    p.add_argument("--set", required=True)
    p.add_argument("--trace", action="store_true", help="include the iteration log")
    common(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("extension", help="sweep orders and test extensions")
    p.add_argument("--set", required=True)
    p.add_argument("--t-from", dest="t_from", type=int, required=True)
    p.add_argument("--t-to", dest="t_to", type=int, required=True)
    common(p, with_t=False)
    p.set_defaults(func=cmd_extension)

    p = sub.add_parser("cheb", help="exact Chebyshev Pell identity up to order t")
    common(p)
    p.set_defaults(func=cmd_cheb)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SingularMatrixError, maxdet.SolveError, measures.SamplingError,
            np.linalg.LinAlgError, ArithmeticError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return NUMERICAL
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return USAGE


if __name__ == "__main__":
    sys.exit(main())
