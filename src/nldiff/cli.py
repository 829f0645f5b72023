"""Command line front end.

Four subcommands: solve one case and dump the nodal solution, sweep a
registered problem over grids, check a forcing's moment conditions, and
report stability diagnostics for one grid.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path

import numpy as np

from .assembly import NeumannProblem, assemble, neumann_to_realline
from .grids import build_grid
from .harness import compatibility_check, emit_csv, registry, run_convergence
from .quadrature import QuadratureError
from .solve import SolveError, solve, stability_report


def _parse_floats(text: str) -> list[float]:
    return [float(part) for part in text.split(",") if part.strip()]


def _parse_ints(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part.strip()]


def _write_out(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _lookup(problem_id: str):
    entry = registry().get(problem_id)
    if entry is None:
        known = ", ".join(sorted(registry()))
        raise ValueError("unknown problem %r; known ids: %s" % (problem_id, known))
    return entry


def _cmd_solve(args: argparse.Namespace) -> int:
    entry = _lookup(args.problem)
    case = entry.build(args.L)
    grid = build_grid(case.solve_half_width, args.M)
    solution = solve(assemble(case.problem, grid))
    lines = ["x,u"]
    h = grid.spacing
    for index, value in zip(solution.system.indices, solution.values):
        lines.append("%s,%s" % (format(h * index, ".17g"), format(value, ".17g")))
    _write_out("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_converge(args: argparse.Namespace) -> int:
    _lookup(args.problem)
    report = run_convergence(
        args.problem, _parse_floats(args.L), _parse_ints(args.M), workers=args.workers
    )
    if args.out is None:
        emit_csv(report, sys.stdout)
    else:
        emit_csv(report, args.out)
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    entry = _lookup(args.problem)
    if entry.compat_certificate is None:
        sys.stderr.write(
            "problem %s has no whole-line forcing to check\n" % entry.problem_id
        )
        return 2
    case = entry.build(args.L)
    problem = case.problem
    if isinstance(problem, NeumannProblem):
        forcing = neumann_to_realline(problem).forcing
    else:
        forcing = problem.forcing
    result = compatibility_check(forcing, entry.compat_certificate, tol=args.tol)
    print("mean=%.17g" % result.mean)
    print("first_moment=%.17g" % result.first_moment)
    print("passed=%s" % ("true" if result.passed else "false"))
    print("quad_tol=%.17g" % result.quad_tol)
    return 0 if result.passed else 1


def _or_nan(value: float | None) -> str:
    return "nan" if value is None else format(value, ".17g")


def _cmd_stability(args: argparse.Namespace) -> int:
    entry = _lookup(args.problem)
    case = entry.build(args.L)
    grid = build_grid(case.solve_half_width, args.M)
    system = assemble(case.problem, grid)
    report = stability_report(system)
    print("variant=%s" % system.variant)
    print("stable=%s" % ("true" if report.stable else "false"))
    print("min_eigenvalue=%s" % _or_nan(report.min_eigenvalue))
    print("min_eigenvalue_lower=%s" % _or_nan(report.min_eigenvalue_lower))
    print("contraction_norm=%s" % _or_nan(report.contraction_norm))
    print("symbol_min=%.17g" % float(np.min(report.symbol_values)))
    print("symbol_lower_bound=%.17g" % report.symbol_lower_bound)
    print("symbol_error=%.17g" % report.symbol_error_estimate)
    return 0 if report.stable else 1


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argparse tree, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="nldiff",
        description="quadrature solver for steady nonlocal diffusion on the line",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one case, print nodal values as CSV")
    p_solve.add_argument("--problem", required=True)
    p_solve.add_argument("--L", type=float, required=True, help="window half width")
    p_solve.add_argument("--M", type=int, required=True, help="steps across the window")
    p_solve.add_argument("--out", default=None)
    p_solve.set_defaults(func=_cmd_solve)

    p_conv = sub.add_parser("converge", help="grid sweep, print convergence CSV")
    p_conv.add_argument("--problem", required=True)
    p_conv.add_argument("--L", required=True, help="comma separated half widths")
    p_conv.add_argument("--M", required=True, help="comma separated step counts (>= 3)")
    p_conv.add_argument("--out", default=None)
    p_conv.add_argument("--workers", type=int, default=1)
    p_conv.set_defaults(func=_cmd_converge)

    p_check = sub.add_parser("check", help="forcing moment conditions")
    p_check.add_argument("--problem", required=True)
    p_check.add_argument("--L", type=float, default=10.0)
    p_check.add_argument("--tol", type=float, default=1e-8)
    p_check.set_defaults(func=_cmd_check)

    p_stab = sub.add_parser("stability", help="stability diagnostics for one grid")
    p_stab.add_argument("--problem", required=True)
    p_stab.add_argument("--L", type=float, required=True)
    p_stab.add_argument("--M", type=int, required=True)
    p_stab.set_defaults(func=_cmd_stability)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        # an unknown problem id, bad geometry or sweep parameters reach
        # here; argparse already uses exit code 2 for malformed
        # invocations, keep the same code
        sys.stderr.write("error: %s\n" % exc)
        return 2
    except SolveError as exc:
        sys.stderr.write(
            "error: %s (iterations=%s, residual=%s)\n" % (exc, exc.iterations, exc.residual)
        )
        return 3
    except QuadratureError as exc:
        # the message carries the best estimate and its error
        sys.stderr.write("error: %s\n" % exc)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
