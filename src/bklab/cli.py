"""Command-line driver.

Machine-parseable JSON goes to stdout (or ``--out``); diagnostics go to
stderr.  Exit codes: 0 success, 2 shape/grade/parse errors, 3 validation
failure (for ``backward-error``: a trial inside the guaranteed radius
failed), 4 constants verification gap.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import io
import json
import sys

import numpy as np

from . import __version__
from .block_kronecker import (PLACEMENTS, BlockKroneckerPencil,
                              from_polynomial, recover_polynomial,
                              split_for_placement, validate_placement)
from .eigenstructure import (right_minimal_indices_by_convolution,
                             shift_recovery, staircase_eigenstructure)
from .errors import BkLabError, GradeError, PlacementError, ShapeError
from .experiments import (STATUSES, ExperimentConfig,
                          random_pencil_perturbation, run_backward_error_batch)
from .matpoly import MatrixPolynomial, as_pencil
from .spectral_constants import constants_sweep
from .tolerances import _finite_nonnegative

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_VALIDATION = 3
EXIT_CONSTANTS = 4


def _load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _emit(payload, out_path=None):
    """Write ``payload`` to ``out_path`` or stdout: text as it is, anything
    else as JSON."""
    text = (payload if isinstance(payload, str)
            else json.dumps(payload, sort_keys=True, indent=2) + "\n")
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _timestamp() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _parse_range(text: str) -> tuple[int, int]:
    if ":" in text:
        lo, hi = text.split(":", 1)
        return int(lo), int(hi)
    v = int(text)
    return v, v


def cmd_linearize(args) -> int:
    poly = MatrixPolynomial.from_json(_load_json(args.poly))
    pencil = from_polynomial(poly, args.epsilon, args.eta, args.placement)
    _emit(pencil.to_json(), args.out)
    return EXIT_OK


def cmd_eig(args) -> int:
    obj = _load_json(args.input)
    keys = obj if isinstance(obj, dict) else {}
    payload: dict = {}
    if "M0" in keys and "epsilon" in keys:
        bk, poly = BlockKroneckerPencil.from_json(obj), None
        payload["kind"] = "block-kronecker-pencil"
    elif "coeffs" in keys:
        bk, poly = None, MatrixPolynomial.from_json(obj)
        if poly.grade == 1:
            payload["kind"] = "pencil"
        else:
            eps, eta = split_for_placement(args.placement, poly.grade,
                                           args.epsilon, args.eta)
            bk = from_polynomial(poly, eps, eta, args.placement)
            payload["kind"] = "polynomial"
            payload["linearization"] = {"epsilon": eps, "eta": eta,
                                        "placement": args.placement}
    else:
        raise ShapeError("input is neither a polynomial nor a pencil file")
    if bk is None:
        recovered = staircase_eigenstructure(as_pencil(poly), tol=args.tol)
    else:
        structure = staircase_eigenstructure(bk.assemble(), tol=args.tol)
        payload["pencil_eigenstructure"] = structure.to_json()
        recovered = shift_recovery(structure, bk.eps, bk.eta)
    payload["polynomial_eigenstructure"] = recovered.to_json()
    if args.oracle:
        oracle = right_minimal_indices_by_convolution(
            recover_polynomial(bk) if poly is None else poly, tol=args.tol)
        payload["oracle_right"] = oracle
        payload["oracle_agrees"] = (
            oracle == payload["polynomial_eigenstructure"]["right"])
    _emit(payload, args.out)
    return EXIT_OK


def cmd_perturb(args) -> int:
    bk = BlockKroneckerPencil.from_json(_load_json(args.pencil))
    rng = np.random.default_rng(args.seed)
    dL = random_pencil_perturbation(bk.shape, args.mag, rng)
    print(f"perturbation with ||dL||_F = {dL.frobenius_norm():.3e} "
          f"for a {bk.shape} pencil", file=sys.stderr)
    _emit(dL.to_json(), args.out)
    return EXIT_OK


def cmd_backward_error(args) -> int:
    config = ExperimentConfig(
        seed=args.seed, trials=args.trials,
        m=_parse_range(args.m), n=_parse_range(args.n), d=_parse_range(args.d),
        epsilon=args.epsilon, eta=args.eta, magnitude=args.mag,
        placement=args.placement, force=args.force,
        check_eigen=not args.no_eigen_check)
    result = run_backward_error_batch(config)
    result["timestamp"] = _timestamp()
    summary = result["summary"]
    if args.format == "csv":
        buf = io.StringIO()
        fields = list(dict.fromkeys(key for row in result["trials"] for key in row))
        writer = csv.DictWriter(buf, fieldnames=fields, extrasaction="ignore")
        writer.writeheader()
        writer.writerows(result["trials"])
        writer.writerow({
            "trial": "summary", "status": f"passed={summary['passed']}",
            "reason": " ".join(f"{s}={summary[s]}" for s in STATUSES
                               if s != "passed"),
            "ratio_over_bound": summary["max_ratio_over_bound"]})
        _emit(buf.getvalue(), args.out)
    else:
        _emit(result, args.out)
    if summary["failed"]:
        print(f"{summary['failed']} admissible trial(s) failed", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


def cmd_constants(args) -> int:
    rows = constants_sweep(args.max_epsilon, args.max_eta, args.max_m, args.max_n)
    worst = max(row.gap for row in rows)
    payload = {
        "rows": [row.to_json() for row in rows],
        "max_gap": worst,
        "tolerance": args.tol,
    }
    _emit(payload, args.out)
    if worst > args.tol:
        print(f"constants verification gap {worst:.3e} exceeds {args.tol:.1e}",
              file=sys.stderr)
        return EXIT_CONSTANTS
    return EXIT_OK


def cmd_check(args) -> int:
    poly = MatrixPolynomial.from_json(_load_json(args.poly))
    bk = BlockKroneckerPencil.from_json(_load_json(args.pencil))
    residuals = validate_placement(bk, poly)
    worst = float(np.max(residuals))
    payload = {
        "residuals": [float(r) for r in residuals],
        "max_residual": worst,
        "tolerance": args.tol,
        "accepted": bool(worst <= args.tol),
    }
    _emit(payload, args.out)
    if worst > args.tol:
        print(f"antidiagonal sum residual {worst:.3e} exceeds {args.tol:.1e}",
              file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bklab",
        description="Block Kronecker linearizations, complete eigenstructures "
                    "and finite backward-error mapping for matrix polynomials.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("linearize", help="build a block Kronecker pencil from "
                                         "a polynomial JSON file")
    p.add_argument("poly")
    p.add_argument("--epsilon", type=int, required=True)
    p.add_argument("--eta", type=int, required=True)
    p.add_argument("--placement", default="hook", choices=PLACEMENTS)
    p.add_argument("--out")
    p.set_defaults(func=cmd_linearize)

    p = sub.add_parser("eig", help="complete eigenstructure of a pencil or "
                                   "polynomial JSON file")
    p.add_argument("input")
    p.add_argument("--oracle", action="store_true",
                   help="cross-check right minimal indices by convolution ranks")
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--placement", default="hook", choices=PLACEMENTS)
    p.add_argument("--epsilon", type=int, default=None)
    p.add_argument("--eta", type=int, default=None)
    p.add_argument("--out")
    p.set_defaults(func=cmd_eig)

    p = sub.add_parser("perturb", help="draw a random perturbation pencil for "
                                       "a block Kronecker pencil file")
    p.add_argument("pencil")
    p.add_argument("--mag", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_perturb)

    p = sub.add_parser("backward-error", help="batch backward-error study")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--mag", type=float, default=1e-8)
    p.add_argument("--m", default="2")
    p.add_argument("--n", default="2")
    p.add_argument("--d", default="3")
    p.add_argument("--epsilon", type=int, default=None)
    p.add_argument("--eta", type=int, default=None)
    p.add_argument("--placement", default="hook", choices=PLACEMENTS)
    p.add_argument("--format", default="json", choices=["json", "csv"])
    p.add_argument("--force", action="store_true",
                   help="run outside the guaranteed radius (reports are "
                        "marked unguaranteed)")
    p.add_argument("--no-eigen-check", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_backward_error)

    p = sub.add_parser("constants", help="verify the closed-form singular "
                                         "values over a sweep")
    p.add_argument("--max-epsilon", type=int, default=4)
    p.add_argument("--max-eta", type=int, default=4)
    p.add_argument("--max-m", type=int, default=2)
    p.add_argument("--max-n", type=int, default=2)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--out")
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("check", help="validate a pencil against a polynomial "
                                     "through the antidiagonal sums")
    p.add_argument("poly")
    p.add_argument("pencil")
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--out")
    p.set_defaults(func=cmd_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "tol", None) is not None:  # eig's default is None
            _finite_nonnegative(args.tol, "--tol")
        return args.func(args)
    except (ShapeError, GradeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except PlacementError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (json.JSONDecodeError, OSError, KeyError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BkLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
