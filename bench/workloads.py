"""The three workloads: the operations of one pass and their output checks.

An operation is one sweep cell or one certify step.  It fails if it raises
(``SolveError`` and ``QuadratureError`` included) or if its output check
fails.  Every call goes through a public name of the ``nldiff`` package
looked up at call time, so a traced pass reaches the wrappers.

- ``sweep-dirichlet``: one ``nldiff converge`` on the smooth Dirichlet case
  up to M=6400.  The dense LU and the n^2 core dominate; quadrature idles.
- ``sweep-wholeline``: six ``nldiff converge`` invocations on the whole-line
  and flux-closure cases.  They use the non-symmetric boundary columns, the
  closed ``exp_int`` moments and the tail reconstruction.
- ``certify``: stability reports, quadrature routes checked against closed
  ones, moment preflights and the closed-form audit.  Mostly adaptive
  quadrature, no LU.

The seed only permutes the order of the invocations or steps.
"""

from __future__ import annotations

import csv
import dataclasses
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import nldiff
import nldiff.cli

# release-gate order bands
SECOND_ORDER = (1.7, 2.3)
FIRST_ORDER = (0.8, 1.2)
# a cell's error may move this much, relative, from the recorded value
ERROR_RTOL = 1e-6
# quadrature route against closed route
ROUTE_RTOL = 1e-9

CERTIFY_HALF_WIDTH = 10.0


@dataclass
class OpResult:
    failures: list[str]
    # what must repeat bit for bit in every pass, traced or not
    outcome: object
    cells: int = 0
    # values written to the reference file when recording
    recorded: dict = field(default_factory=dict)


@dataclass
class Op:
    label: str
    attempted: int
    run: Callable[[], OpResult]


def _g(value) -> str:
    return "None" if value is None else format(float(value), ".17g")


def _converge(problem, half_width, steps, band, csv_path: Path, reference) -> Op:
    argv = [
        "converge",
        "--problem", problem,
        "--L", _g(half_width),
        "--M", ",".join(str(m) for m in steps),
        "--out", str(csv_path),
    ]

    def run() -> OpResult:
        csv_path.unlink(missing_ok=True)
        code = nldiff.cli.main(argv)
        if code != 0:
            return OpResult(["exit code %d" % code] * len(steps), None)
        with csv_path.open(newline="") as stream:
            rows = list(csv.DictReader(stream))
        by_steps = {int(row["M"]): row for row in rows}
        failures, recorded = [], {}
        for m in steps:
            key = "%s,%s,%d" % (problem, _g(half_width), m)
            row = by_steps.get(m)
            if row is None:
                failures.append("%s: no row" % key)
                continue
            error = float(row["linf_error"])
            order = float(row["fitted_order"])
            recorded[key] = error
            if not math.isfinite(error):
                failures.append("%s: cell failed" % key)
            elif reference is not None and not (
                abs(error - reference["linf_error"][key])
                <= ERROR_RTOL * abs(reference["linf_error"][key])
            ):
                failures.append(
                    "%s: linf_error %r, recorded %r"
                    % (key, error, reference["linf_error"][key])
                )
            elif band is not None and not band[0] <= order <= band[1]:
                failures.append("%s: fitted order %r outside %s" % (key, order, band))
        outcome = [[row[k] for k in ("problem", "L", "M", "h", "linf_error", "fitted_order")] for row in rows]
        return OpResult(failures, outcome, len(rows), {"linf_error": recorded})

    return Op(" ".join(argv[:7]), len(steps), run)


def sweep_dirichlet(out_dir: Path, reference) -> list[Op]:
    csv_path = out_dir / "converge.csv"
    return [_converge("dirichlet-sech", 10.0, [800, 1600, 3200, 6400], SECOND_ORDER, csv_path, reference)]


def sweep_wholeline(out_dir: Path, reference) -> list[Op]:
    csv_path = out_dir / "converge.csv"
    ops = []
    # the same h ladder at every half width, as in the release gate; the
    # order is checked where the window floor no longer shows (L=40)
    for half_width in (10.0, 20.0, 40.0):
        steps = [int(f * half_width) for f in (20, 40, 80)]
        band = SECOND_ORDER if half_width == 40.0 else None
        ops.append(_converge("realline-algebraic", half_width, steps, band, csv_path, reference))
    for half_width in (8.0, 16.0, 32.0):
        steps = [int(f * half_width) for f in (16, 32, 64)]
        ops.append(_converge("neumann-discontinuous", half_width, steps, FIRST_ORDER, csv_path, reference))
    return ops


def _relative_gap(route, closed) -> float:
    return float(np.max(np.abs(route - closed)) / np.max(np.abs(closed)))


def _check_gap(label: str, gap: float) -> list[str]:
    return [] if gap <= ROUTE_RTOL else ["%s gap %.3e exceeds %.0e" % (label, gap, ROUTE_RTOL)]


def _stability(problem_id: str, steps: int) -> Op:
    def run() -> OpResult:
        case = nldiff.registry()[problem_id].build(CERTIFY_HALF_WIDTH)
        grid = nldiff.build_grid(case.solve_half_width, steps)
        report = nldiff.stability_report(nldiff.assemble(case.problem, grid))
        outcome = [
            _g(report.min_eigenvalue),
            _g(report.contraction_norm),
            _g(report.symbol_lower_bound),
            _g(np.min(report.symbol_values)),
            report.stable,
        ]
        return OpResult([] if report.stable else ["not stable"], outcome)

    return Op("stability %s M=%d" % (problem_id, steps), 1, run)


def _weights_route() -> OpResult:
    # the table-wise gap: next to a sign change of the mixed kernel single
    # weights are tiny, and their own relative gap measures cancellation
    kernel = nldiff.mixed_exponential_kernel()
    grid = nldiff.build_grid(CERTIFY_HALF_WIDTH, 1600)
    route = nldiff.compute_weights(kernel, grid, method="quadrature").weights
    closed = nldiff.compute_weights(kernel, grid, method="closed").weights
    gap = _relative_gap(route, closed)
    return OpResult(_check_gap("weights", gap), [_g(gap)])


def _boundary_route() -> OpResult:
    kernel = nldiff.laplace_kernel()
    grid = nldiff.build_grid(CERTIFY_HALF_WIDTH, 400)
    decay = nldiff.DecayModel(2.0)
    route = nldiff.realline_boundary_terms(kernel, grid, decay, method="quadrature")
    closed = nldiff.realline_boundary_terms(kernel, grid, decay, method="closed")
    gap = max(float(np.max(np.abs(r - c) / np.abs(c))) for r, c in zip(route, closed))
    return OpResult(_check_gap("boundary terms", gap), [_g(gap)])


def _assemble_route() -> OpResult:
    problem = nldiff.registry()["dirichlet-sech"].build(CERTIFY_HALF_WIDTH).problem
    stripped = dataclasses.replace(problem, closed_boundary_term=None)
    grid = nldiff.build_grid(CERTIFY_HALF_WIDTH, 400)
    route = nldiff.assemble(stripped, grid).rhs
    closed = nldiff.assemble(problem, grid).rhs
    gap = _relative_gap(route, closed)
    return OpResult(_check_gap("rhs", gap), [_g(gap)])


def _compatibility(problem_id: str, reference) -> Op:
    # the two comparison-*-neumann entries zero the forcing outside the
    # window, so by construction their preflight fails; the check is that
    # each outcome matches the recorded one
    def run() -> OpResult:
        entry = nldiff.registry()[problem_id]
        problem = entry.build(CERTIFY_HALF_WIDTH).problem
        if isinstance(problem, nldiff.NeumannProblem):
            problem = nldiff.neumann_to_realline(problem)
        result = nldiff.compatibility_check(problem.forcing, entry.compat_certificate)
        failures = []
        if reference is not None and result.passed != reference["compatible"][problem_id]:
            failures.append("passed=%s, recorded %s" % (result.passed, reference["compatible"][problem_id]))
        outcome = [_g(result.mean), _g(result.first_moment), result.passed]
        return OpResult(failures, outcome, recorded={"compatible": {problem_id: result.passed}})

    return Op("compatibility %s" % problem_id, 1, run)


def _audit() -> OpResult:
    checks = nldiff.audit_closed_forms()
    failures = ["%s gap %.3e" % (c.label, c.gap) for c in checks if not c.ok]
    if not checks:
        failures.append("no checks")
    return OpResult(failures, [[c.label, _g(c.gap)] for c in checks])


def certify(out_dir: Path, reference) -> list[Op]:
    ops = [
        _stability(problem_id, steps)
        for problem_id in ("dirichlet-sech", "realline-algebraic", "dirichlet-mixed-kernel")
        for steps in (256, 800)
    ]
    ops.append(Op("weights quadrature route M=1600", 1, _weights_route))
    ops.append(Op("boundary terms quadrature route M=400", 1, _boundary_route))
    ops.append(Op("assemble quadrature boundary M=400", 1, _assemble_route))
    ops.extend(
        _compatibility(problem_id, reference)
        for problem_id, entry in sorted(nldiff.registry().items())
        if entry.compat_certificate is not None
    )
    ops.append(Op("audit closed forms", 1, _audit))
    return ops


WORKLOADS = {
    "sweep-dirichlet": sweep_dirichlet,
    "sweep-wholeline": sweep_wholeline,
    "certify": certify,
}


def build(workload: str, seed: int, out_dir: Path, reference) -> list[Op]:
    """The operations of one pass, in the order the seed gives them."""
    ops = WORKLOADS[workload](out_dir, reference)
    random.Random(seed).shuffle(ops)
    return ops
