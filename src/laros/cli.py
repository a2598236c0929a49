"""Command-line driver.

Subcommands: solve, thresholds, plant, certify, nmf, biclique. Every run
emits a JSON record containing the result payload and a manifest (command,
inputs, parameters, tool version, wall-clock duration). Matrix index sets
in records are 1-based; see README for the record schema.
"""

import argparse
import json
import math
import sys
import time
from dataclasses import asdict, fields

import numpy as np

from . import __version__
from .analysis import (BlockSelector, row_zero_thresholds, theta_A,
                       theta_B, top_block)
from .generate import (NOISE_FAMILIES, PlantedModel, plant_biclique,
                       plant_rank_one, two_block_matrix)
from .linalg import theta_norm
from .mmio import (parse_matrix, read_certificate, write_certificate,
                   write_matrix)
from .nmf import greedy_extract
from .solver import ConvergenceError, SolverConfig, check_optimality, solve


def _one_based(indices):
    return [int(i) + 1 for i in indices]


def _vector(v):
    return [float(x) for x in v]


def _solve_fields(sol):
    """The record fields of a solve that `solve` and `biclique` share."""
    return {"support_rows": _one_based(sol.support_rows),
            "support_cols": _one_based(sol.support_cols),
            "dual_gap": sol.gap, "iterations": sol.iterations,
            "converged": sol.converged, "stop_reason": sol.stop_reason}


def _emit(record, output):
    try:
        text = json.dumps(record, indent=2, sort_keys=True,
                          allow_nan=False) + "\n"
    except ValueError as exc:
        # NaN and inf have no JSON form
        raise ValueError(f"the record holds a non-finite number: {exc}") \
            from None
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _solver_config(args, theta):
    tols = {} if args.tol is None else dict.fromkeys(
        ("tol_primal", "tol_dual", "tol_gap"), args.tol)
    return SolverConfig(theta=theta, max_iters=args.max_iters, **tols)


def _add_theta_flag(sub):
    sub.add_argument("--theta", type=float, required=True,
                     help="l1 weight in the objective (no default: results "
                          "depend qualitatively on it)")


def _add_solver_flags(sub):
    sub.add_argument("--max-iters", type=int,
                     default=SolverConfig.max_iters)
    sub.add_argument("--tol", type=float, default=None,
                     help="sets the primal, dual and gap tolerances "
                          "(default: SolverConfig's)")


def _add_input_flag(sub):
    sub.add_argument("--input", required=True,
                     help="matrix file to read: MatrixMarket array or "
                          "coordinate, or headerless CSV")


def _add_size_flags(sub, side, block_side):
    """--m/--n (matrix), --M/--N (planted block) and --seed."""
    for flag, default in (("--m", side), ("--n", side), ("--M", block_side),
                          ("--N", block_side), ("--seed", 0)):
        sub.add_argument(flag, type=int, default=default)


def _cmd_solve(args):
    a = parse_matrix(args.input)
    config = _solver_config(args, args.theta)
    sol = solve(a, config)
    # an unconverged solve has no certificate: it fails before any write
    if args.certificate_output and not sol.converged:
        raise ValueError("certificate requires a converged solve "
                         f"(stopped after {sol.iterations} iterations)")
    result = {
        **_solve_fields(sol),
        "sigma": sol.sigma,
        "u": _vector(sol.u),
        "v": _vector(sol.v),
        "objective": sol.objective,
        "non_unique": sol.non_unique,
    }
    if args.solution_output:
        write_matrix(args.solution_output, sol.x)
        result["solution_path"] = args.solution_output
    if args.certificate_output:
        write_certificate(args.certificate_output, sol.certificate)
        result["certificate_path"] = args.certificate_output
    return result, {"matrix": args.input}, asdict(config)


def _parse_list(text, flag, convert, kind):
    """The items of `text`, the comma-separated list given to `flag`, each
    passed through `convert`; an item it rejects fails naming the flag."""
    items = []
    for item in text.split(","):
        try:
            items.append(convert(item))
        except ValueError:
            what = "an empty item" if not item.strip() else repr(item.strip())
            raise ValueError(f"{flag} takes comma-separated {kind}, got "
                             f"{what} in {text!r}") from None
    return items


def _parse_index_list(text, flag):
    """0-based indices from `text`, the comma-separated 1-based indices
    given to `flag`; errors are stated in the flag's 1-based terms."""
    indices = np.array(_parse_list(text, flag, int, "1-based integers"))
    bad = indices[indices < 1]
    if bad.size:
        raise ValueError(f"{flag} indices are 1-based, got {bad[0]}")
    return indices - 1


def _cmd_thresholds(args):
    if bool(args.rows) != bool(args.cols):
        raise ValueError("--rows and --cols must be given together")
    block = None
    if args.rows:
        block = BlockSelector(rows=_parse_index_list(args.rows, "--rows"),
                              cols=_parse_index_list(args.cols, "--cols"))
    a = parse_matrix(args.input)
    result = {"theta_A": theta_A(a)}
    if block is not None:
        tb = theta_B(a, block)
        result["theta_B"] = tb
        result["theta_B_applicable"] = tb is not None
        result["block_rows"] = _one_based(block.rows)
        result["block_cols"] = _one_based(block.cols)
    result["row_zero_thresholds"] = row_zero_thresholds(a)
    params = {"rows": args.rows, "cols": args.cols}
    return result, {"matrix": args.input}, params


def _cmd_plant(args):
    if args.kind == "two-block":
        write_matrix(args.matrix_output, two_block_matrix())
        result = {"matrix_path": args.matrix_output, "rows": 6, "cols": 6,
                  "truth_rows": None, "truth_cols": None}
        return result, {}, {"kind": args.kind}
    # every field of the model has a flag
    settings = {f.name: getattr(args, f.name) for f in fields(PlantedModel)}
    inst = plant_rank_one(PlantedModel(**settings), args.seed)
    write_matrix(args.matrix_output, inst.a)
    result = {
        "matrix_path": args.matrix_output,
        "rows": args.m, "cols": args.n,
        "truth_rows": _one_based(inst.truth.rows),
        "truth_cols": _one_based(inst.truth.cols),
    }
    return result, {}, {"kind": args.kind, "seed": args.seed, **settings}


def _cmd_certify(args):
    # written so that NaN fails too: at inf any residuals pass, and neither
    # NaN nor inf is JSON
    if not 0.0 < args.residual_tol < 1.0:
        raise ValueError(
            f"--residual-tol must lie in (0, 1), got {args.residual_tol}")
    a = parse_matrix(args.input)
    x = parse_matrix(args.solution)
    if x.shape != a.shape:
        raise ValueError(f"{args.solution}: solution has shape {x.shape}, "
                         f"expected {a.shape} (the shape of {args.input})")
    cert = read_certificate(args.certificate, a.shape)
    scale = theta_norm(x, args.theta)
    if scale == 0.0:
        raise ValueError(f"{args.solution}: solution has theta-norm 0 (it "
                         "is all zeros), so it cannot be scaled to norm 1")
    report = check_optimality(a, args.theta, x / scale, cert)
    result = {**asdict(report), "max_residual": report.max_residual,
              "passed": report.passed(args.residual_tol),
              "residual_tol": args.residual_tol}
    inputs = {"matrix": args.input, "solution": args.solution,
              "certificate": args.certificate}
    params = {"theta": args.theta, "residual_tol": args.residual_tol}
    return result, inputs, params


def _cmd_nmf(args):
    thetas = _parse_list(args.theta, "--theta", float, "numbers")
    if len(thetas) == 1:
        thetas *= args.features
    elif len(thetas) != args.features:
        raise ValueError(f"theta schedule has {len(thetas)} entries, "
                         f"expected {args.features}")
    configs = [_solver_config(args, theta) for theta in thetas]
    a = parse_matrix(args.input)
    res = greedy_extract(a, configs)
    write_matrix(args.w_output, res.w)
    write_matrix(args.h_output, res.h)
    result = {
        "w_path": args.w_output,
        "h_path": args.h_output,
        "residual_norms": _vector(res.residual_norms),
        "supports": [{"rows": _one_based(b.rows), "cols": _one_based(b.cols)}
                     for b in res.supports],
        "extracted": res.extracted,
        "requested": res.requested,
        "short_count": res.short_count,
    }
    # theta as given: a schedule is recorded whole
    params = {**asdict(configs[0]), "theta": args.theta,
              "features": args.features}
    return result, {"matrix": args.input}, params


def _cmd_biclique(args):
    inst = plant_biclique(args.m, args.n, args.M, args.N, args.p_edge,
                          args.seed)
    theta = (1.0 / math.sqrt(args.M * args.N) if args.theta is None
             else args.theta)
    if args.matrix_output:
        write_matrix(args.matrix_output, inst.a)
    config = _solver_config(args, theta)
    sol = solve(inst.a, config)
    rows, cols, complete = top_block(inst.a, sol, args.M, args.N)
    exact = (list(rows) == list(inst.truth.rows)
             and list(cols) == list(inst.truth.cols))
    result = {
        **_solve_fields(sol),
        "theta": theta,
        "truth_rows": _one_based(inst.truth.rows),
        "truth_cols": _one_based(inst.truth.cols),
        "recovered_rows": _one_based(rows),
        "recovered_cols": _one_based(cols),
        "biclique_complete": complete,
        "recovered": bool(exact and complete),
        "support_matches_truth": (
            list(sol.support_rows) == list(inst.truth.rows)
            and list(sol.support_cols) == list(inst.truth.cols)),
    }
    if args.matrix_output:
        result["matrix_path"] = args.matrix_output
    params = {**asdict(config), "m": args.m, "n": args.n,
              "M": args.M, "N": args.N, "p_edge": args.p_edge,
              "seed": args.seed}
    return result, {}, params


def build_parser():
    parser = argparse.ArgumentParser(
        prog="laros",
        description="Locate large approximately rank-one submatrices of "
                    "nonnegative matrices by convex relaxation.")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("solve", help="solve the relaxation for a matrix")
    _add_input_flag(p)
    _add_theta_flag(p)
    _add_solver_flags(p)
    p.add_argument("--solution-output", default=None,
                   help="write the optimizer X as a MatrixMarket file")
    p.add_argument("--certificate-output", default=None,
                   help="write the dual certificate as JSON")
    p.set_defaults(func=_cmd_solve)

    p = subs.add_parser("thresholds", help="closed-form theta thresholds")
    _add_input_flag(p)
    p.add_argument("--rows", default=None,
                   help="1-based row indices of a candidate block, comma-separated")
    p.add_argument("--cols", default=None,
                   help="1-based column indices of a candidate block")
    p.set_defaults(func=_cmd_thresholds)

    p = subs.add_parser("plant", help="generate a planted instance")
    p.add_argument("--kind", choices=("planted", "two-block"),
                   default="planted")
    _add_size_flags(p, 120, 40)
    p.add_argument("--sigma0", type=float, default=1.0)
    p.add_argument("--c1", type=float, default=0.0)
    p.add_argument("--c2", type=float, default=0.0)
    p.add_argument("--c3", type=float, default=0.1)
    p.add_argument("--noise-family", choices=NOISE_FAMILIES, default="uniform")
    p.add_argument("--p-seed", type=int, default=0)
    p.add_argument("--q-seed", type=int, default=0)
    p.add_argument("--matrix-output", required=True)
    p.set_defaults(func=_cmd_plant)

    p = subs.add_parser("certify", help="check a solution/certificate pair")
    _add_input_flag(p)
    p.add_argument("--solution", required=True, help="solution matrix file")
    p.add_argument("--certificate", required=True, help="certificate JSON")
    _add_theta_flag(p)
    p.add_argument("--residual-tol", type=float, default=1e-6)
    p.set_defaults(func=_cmd_certify)

    p = subs.add_parser("nmf", help="greedy rank-one factorization")
    _add_input_flag(p)
    p.add_argument("--theta", required=True,
                   help="l1 weight, or a comma-separated per-round schedule")
    p.add_argument("--features", type=int, required=True)
    _add_solver_flags(p)
    p.add_argument("--w-output", required=True)
    p.add_argument("--h-output", required=True)
    p.set_defaults(func=_cmd_nmf)

    p = subs.add_parser("biclique",
                        help="plant a biclique, solve, and score recovery")
    _add_size_flags(p, 60, 15)
    p.add_argument("--p-edge", type=float, default=0.5)
    p.add_argument("--theta", type=float, default=None,
                   help="default: 1/sqrt(M*N)")
    _add_solver_flags(p)
    p.add_argument("--matrix-output", default=None)
    p.set_defaults(func=_cmd_biclique)

    for p in subs.choices.values():
        p.add_argument("--output", default=None,
                       help="result record path (default: stdout)")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.perf_counter()
    try:
        result, inputs, params = args.func(args)
        manifest = {"command": args.command, "inputs": inputs,
                    "parameters": params, "version": __version__,
                    "duration_seconds": time.perf_counter() - start}
        _emit({"manifest": manifest, "result": result}, args.output)
    except (ValueError, OSError, ConvergenceError) as exc:
        print(f"laros {args.command}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
