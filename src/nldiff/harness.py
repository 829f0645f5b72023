"""Benchmark problems, convergence sweeps, and their CSV reports.

The registry carries the library's reference problems: a smooth Dirichlet
case with known solution, a whole-line case with algebraically decaying
solution, a flux-closure case whose solution jumps, the smooth case again
under a sign-changing kernel, and a family of closure comparisons that pit
the whole-line scheme against homogeneous Dirichlet and homogeneous Neumann
closures on identical forcings.  It is a table of rows, built on first use.
Eight rows hold a problem built once and solved on the given half width;
the two comparison-*-neumann rows cut the forcing at the window edge
(split radius L) and solve on the doubled grid 2L.

Closed forms shipped with a problem are never trusted blindly.  One audit
compares the two kernels' tail masses and the two sech-data boundary terms
against the quadrature route, eight checks in all; on disagreement beyond
1e-6 the closed form is dropped (the quadrature value wins; a kernel drops
all its closed forms together) with a warning in the log.  The registry is
built from the audit's output, and `audit_closed_forms` returns its checks.

The reported error of a sweep cell is the maximum deviation between the
reconstructed solution and the reference solution over a dense probe
lattice (spacing h/8) spanning twice the solve window.  Probe points within
one cell of a registered jump of the reference solution are skipped there:
across a jump the piecewise linear reconstruction is pinned at the jump
height, which would measure the reconstruction, not the scheme.
"""

from __future__ import annotations

import logging
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path
from typing import Callable, IO, Mapping, Sequence

import numpy as np

from .assembly import (
    DecayModel,
    DirichletProblem,
    GrowthCertificate,
    NeumannProblem,
    AnyProblem,
    RealLineProblem,
    assemble,
    dirichlet_boundary_term,
)
from .grids import build_grid
from .kernels import Kernel, laplace_kernel, mixed_exponential_kernel, tail_mass
from .quadrature import (
    DecayCertificate,
    PowerDecayCertificate,
    QuadratureError,
    adaptive_quad_many,
)
from .solve import SolveError, evaluate_solution, solve

__all__ = [
    "RegisteredProblem",
    "BuiltCase",
    "CompatibilityResult",
    "ConvergenceRow",
    "ConvergenceReport",
    "ClosedFormCheck",
    "registry",
    "compatibility_check",
    "run_convergence",
    "emit_csv",
    "audit_closed_forms",
]

log = logging.getLogger("nldiff.harness")

CSV_HEADER = "problem,L,M,h,linf_error,fitted_order,runtime_ms"

_EPS = float(np.finfo(float).eps)


# ---------------------------------------------------------------------------
# reference data: forcings, exact solutions, closed boundary terms


def _sech(x):
    # 2 e^{-|x|} / (1 + e^{-2|x|}) never overflows, unlike 1 / cosh
    t = np.abs(np.asarray(x, dtype=float))
    e = np.exp(-t)
    return 2.0 * e / (1.0 + e * e)


def sech_forcing(x):
    """Forcing whose whole-line solution is sech."""
    t = np.abs(np.asarray(x, dtype=float))
    lg = np.log1p(np.exp(-2.0 * t))
    with np.errstate(over="ignore"):
        grow = np.where(t < 300.0, np.exp(np.minimum(t, 300.0)) * lg, np.exp(-t))
    return _sech(t) - t * np.exp(-t) - 0.5 * np.exp(-t) * lg - 0.5 * grow


def sech_boundary(x, radius):
    """Beyond-support boundary integral of sech exterior data, exponential kernel."""
    x = np.asarray(x, dtype=float)
    return 0.5 * np.exp(x) * np.log1p(np.exp(-2.0 * (radius + x))) + 0.5 * np.exp(
        -x
    ) * np.log1p(np.exp(-2.0 * (radius - x)))


def _atan_defect_ratio(w):
    # (w - arctan w) / w^2, stable down to w = 0
    w = np.asarray(w, dtype=float)
    small = w < 0.1
    ws = np.where(small, w, 0.0)
    w2 = ws * ws
    series = ws * (
        1.0 / 3.0
        - w2 * (1.0 / 5.0 - w2 * (1.0 / 7.0 - w2 * (1.0 / 9.0 - w2 * (1.0 / 11.0 - w2 / 13.0))))
    )
    wb = np.where(small, 1.0, w)
    direct = (wb - np.arctan(wb)) / (wb * wb)
    return np.where(small, series, direct)


def mixed_forcing(x):
    """Forcing whose whole-line solution is sech under the sign-changing kernel."""
    t = np.abs(np.asarray(x, dtype=float))
    w = np.exp(-t)
    lg = np.log1p(np.exp(-2.0 * t))
    with np.errstate(over="ignore"):
        grow = np.where(t < 300.0, np.exp(np.minimum(t, 300.0)) * lg, w)
    defect = 4.0 * _atan_defect_ratio(w)
    arctan_big = np.arctan(np.exp(np.minimum(t, 30.0)))
    return (
        _sech(t)
        + (4.0 - 3.0 * t) * w
        - 1.5 * (w * lg + grow)
        + defect
        - 4.0 * np.exp(-2.0 * t) * arctan_big
    )


def mixed_boundary(x, radius):
    """Beyond-support boundary integral of sech exterior data, sign-changing kernel."""
    x = np.asarray(x, dtype=float)

    def one_side(z):
        tau = np.exp(z - radius)
        defect = tau * tau * _atan_defect_ratio(tau)
        return 1.5 * np.exp(-z) * np.log1p(tau * tau) - 4.0 * np.exp(-2.0 * z) * defect

    return one_side(x) + one_side(-x)


def algebraic_forcing(x):
    x = np.asarray(x, dtype=float)
    # x2 * x2, not x ** 4: numpy's power takes a slow path on negative bases
    x2 = x * x
    return (2.0 - 3.0 * x2) / ((1.0 + x2) * (x2 * x2 + 4.0))


def algebraic_exact(x):
    """Whole-line solution for the algebraic forcing; decays like 1/(2 x^2)."""
    x = np.asarray(x, dtype=float)
    x2 = x * x
    return (
        algebraic_forcing(x)
        - x * np.arctan(x)
        + 0.5 * (x - 1.0) * np.arctan(x - 1.0)
        + 0.5 * (x + 1.0) * np.arctan(x + 1.0)
        + 0.5 * np.log1p(x2)
        - 0.25 * np.log(x2 * x2 + 4.0)
    )


def jump_forcing_interior(x):
    x = np.asarray(x, dtype=float)
    return x * x - 2.0 / 3.0


def jump_forcing_exterior(x):
    x = np.asarray(x, dtype=float)
    return np.abs(x) ** -4.0


def jump_exact(x):
    """Reference solution of the flux-closure problem; jumps by 2/3 at |x| = 1."""
    x = np.asarray(x, dtype=float)
    inside = np.abs(x) < 1.0
    xi = np.where(inside, x, 0.0)
    interior = xi * xi - (xi * xi - 3.0) * (xi * xi - 1.0) / 12.0 - 5.0 / 6.0
    xe = np.where(inside, 1.0, x)
    xe2 = xe * xe
    exterior = 1.0 / (xe2 * xe2) - 1.0 / (6.0 * xe2)
    return np.where(inside, interior, exterior)


def _zero(x):
    return np.zeros_like(np.asarray(x, dtype=float))


def _zero_boundary(x, radius):
    return np.zeros_like(np.asarray(x, dtype=float))


_LAPLACE = laplace_kernel()
_MIXED = mixed_exponential_kernel()

_SECH_FORCING_CERT = DecayCertificate(0.9, 5.0)
_ALGEBRAIC_CERT = PowerDecayCertificate(4.0, 3.5)
_JUMP_CERT = PowerDecayCertificate(4.0, 1.0)
# relative gap (against max(1, |reference|)) a closed form may keep from
# quadrature before the audit drops it
_AUDIT_TOL = 1e-6
_SQUARE_DECAY = DecayModel(2.0)


# ---------------------------------------------------------------------------
# registry


@dataclass(frozen=True)
class BuiltCase:
    problem: AnyProblem
    solve_half_width: float


@dataclass(frozen=True)
class RegisteredProblem:
    problem_id: str
    build: Callable[[float], BuiltCase]
    exact_solution: Callable[[np.ndarray], np.ndarray] | None
    expected_order: float | None
    discontinuities: tuple[float, ...] = ()
    compat_certificate: DecayCertificate | PowerDecayCertificate | None = None
    notes: str = ""


@dataclass(frozen=True)
class ClosedFormCheck:
    label: str
    closed_value: float
    reference_value: float
    tol: float

    @property
    def gap(self) -> float:
        return abs(self.closed_value - self.reference_value) / max(
            1.0, abs(self.reference_value)
        )

    @property
    def ok(self) -> bool:
        return self.gap <= self.tol


def _keep_or_demote(
    subject, stripped, checks: list[ClosedFormCheck], audit: str, term: str
):
    # log every comparison; on any disagreement return `stripped`, the
    # subject without its closed form, so quadrature wins
    for check in checks:
        log.info(
            "%s audit %s: closed=%.12e quadrature=%.12e",
            audit,
            check.label,
            check.closed_value,
            check.reference_value,
        )
    if all(c.ok for c in checks):
        return subject, checks
    worst = max(checks, key=lambda c: c.gap)
    log.warning(
        "closed %s %s disagrees with quadrature (gap %.3e); falling back to quadrature",
        term,
        worst.label,
        worst.gap,
    )
    return stripped, checks


def validate_closed_boundary(
    problem: DirichletProblem, label: str
) -> tuple[DirichletProblem, list[ClosedFormCheck]]:
    """Compare a problem's closed boundary term against quadrature; on
    disagreement the closed form is dropped so quadrature wins."""
    if problem.closed_boundary_term is None or problem.exterior_growth is None:
        return problem, []
    grid = build_grid(5.0, 64)
    stripped = replace(problem, closed_boundary_term=None)
    checks = []
    for i in (0, 16):
        closed = float(
            np.asarray(problem.closed_boundary_term(np.asarray([grid.node(i)]), grid.weight_radius))[0]
        )
        reference = dirichlet_boundary_term(stripped, grid, i)
        checks.append(ClosedFormCheck("%s[i=%d]" % (label, i), closed, reference, _AUDIT_TOL))
    return _keep_or_demote(problem, stripped, checks, "closed form", "boundary term")


def validate_closed_tail_mass(kernel: Kernel, label: str) -> tuple[Kernel, list[ClosedFormCheck]]:
    """Compare a kernel's closed tail mass against quadrature; on disagreement
    the kernel loses its terms, and so every closed form, to quadrature."""
    if kernel.terms is None:
        return kernel, []
    stripped = kernel.without_closed_forms()
    checks = [
        ClosedFormCheck(
            "%s[radius=%g]" % (label, radius),
            tail_mass(kernel, radius),
            tail_mass(stripped, radius),
            _AUDIT_TOL,
        )
        for radius in (5.0, 10.0)
    ]
    return _keep_or_demote(kernel, stripped, checks, "tail mass", "tail mass")


def _sech_data_problem(kernel: Kernel, forcing, boundary) -> DirichletProblem:
    # sech exterior data, whose beyond-support integral has a closed form
    return DirichletProblem(
        kernel, forcing, _sech, closed_boundary_term=boundary,
        exterior_growth=GrowthCertificate(0.0, 1.0),
    )


def _audited_closed_forms() -> tuple[
    Kernel, DirichletProblem, DirichletProblem, list[ClosedFormCheck]
]:
    """The exponential kernel and the two sech-data Dirichlet problems, any
    closed form that disagrees with quadrature dropped, and the eight checks."""
    laplace, laplace_checks = validate_closed_tail_mass(_LAPLACE, "laplace-tail-mass")
    mixed, mixed_checks = validate_closed_tail_mass(_MIXED, "mixed-tail-mass")
    sech_problem, sech_checks = validate_closed_boundary(
        _sech_data_problem(laplace, sech_forcing, sech_boundary), "sech-boundary"
    )
    mixed_problem, mixed_problem_checks = validate_closed_boundary(
        _sech_data_problem(mixed, mixed_forcing, mixed_boundary), "mixed-boundary"
    )
    checks = laplace_checks + mixed_checks + sech_checks + mixed_problem_checks
    return laplace, sech_problem, mixed_problem, checks


def audit_closed_forms() -> list[ClosedFormCheck]:
    """Re-run every registration-time closed form comparison and return it."""
    return _audited_closed_forms()[-1]


def _fixed_case(problem: AnyProblem, half_width: float) -> BuiltCase:
    return BuiltCase(problem, half_width)


def _window_cut_case(kernel: Kernel, forcing, half_width: float) -> BuiltCase:
    # the forcing is zeroed beyond the window edge and solved on the doubled grid
    problem = NeumannProblem(
        kernel, forcing, exterior_forcing=_zero, split_radius=half_width, decay=_SQUARE_DECAY
    )
    return BuiltCase(problem, 2.0 * half_width)


_REGISTRY: dict[str, RegisteredProblem] | None = None


def _build_registry() -> dict[str, RegisteredProblem]:
    laplace, sech_dirichlet, mixed_dirichlet, _ = _audited_closed_forms()
    sech_realline = RealLineProblem(laplace, sech_forcing, decay=_SQUARE_DECAY)
    algebraic_realline = RealLineProblem(laplace, algebraic_forcing, decay=_SQUARE_DECAY)
    jump_neumann = NeumannProblem(
        laplace, jump_forcing_interior, exterior_forcing=jump_forcing_exterior,
        split_radius=1.0, decay=_SQUARE_DECAY,
    )
    sech_zero_dirichlet = DirichletProblem(laplace, sech_forcing, _zero, _zero_boundary)
    algebraic_zero_dirichlet = DirichletProblem(laplace, algebraic_forcing, _zero, _zero_boundary)
    entries = [
        RegisteredProblem(
            "dirichlet-sech", partial(_fixed_case, sech_dirichlet), _sech, 2.0,
            notes="smooth Dirichlet reference case, exponential kernel",
        ),
        RegisteredProblem(
            "realline-algebraic", partial(_fixed_case, algebraic_realline), algebraic_exact, 2.0,
            compat_certificate=_ALGEBRAIC_CERT,
            notes="whole-line case with 1/(2x^2) far field; the window "
            "truncation floors the error at small half widths",
        ),
        RegisteredProblem(
            "neumann-discontinuous", partial(_fixed_case, jump_neumann), jump_exact, 1.0,
            discontinuities=(-1.0, 1.0),
            compat_certificate=_JUMP_CERT,
            notes="flux closure with discontinuous solution; split radius "
            "fixed at 1 by the forcing",
        ),
        RegisteredProblem(
            "dirichlet-mixed-kernel", partial(_fixed_case, mixed_dirichlet), _sech, 2.0,
            notes="smooth Dirichlet case under the sign-changing kernel",
        ),
        RegisteredProblem(
            "comparison-sech-realline", partial(_fixed_case, sech_realline), _sech, 2.0,
            compat_certificate=_SECH_FORCING_CERT,
            notes="closure comparison anchor: whole-line scheme on the sech forcing",
        ),
        RegisteredProblem(
            "comparison-sech-dirichlet", partial(_fixed_case, sech_zero_dirichlet), _sech, 2.0,
            notes="closure comparison: homogeneous Dirichlet exterior",
        ),
        RegisteredProblem(
            "comparison-sech-neumann", partial(_window_cut_case, laplace, sech_forcing), _sech, 2.0,
            compat_certificate=_SECH_FORCING_CERT,
            notes="closure comparison: forcing zeroed outside the window, "
            "solved on the doubled grid; the truncation leaves a small "
            "nonzero forcing mean by construction",
        ),
        RegisteredProblem(
            "comparison-algebraic-realline", partial(_fixed_case, algebraic_realline),
            algebraic_exact, 2.0,
            compat_certificate=_ALGEBRAIC_CERT,
            notes="closure comparison anchor: whole-line scheme on the algebraic forcing",
        ),
        RegisteredProblem(
            "comparison-algebraic-dirichlet", partial(_fixed_case, algebraic_zero_dirichlet),
            algebraic_exact, None,
            notes="closure comparison: homogeneous Dirichlet exterior ignores "
            "the algebraic far field, so the error floors at its size "
            "instead of following an h-order",
        ),
        RegisteredProblem(
            "comparison-algebraic-neumann", partial(_window_cut_case, laplace, algebraic_forcing),
            algebraic_exact, None,
            compat_certificate=_ALGEBRAIC_CERT,
            notes="closure comparison: forcing zeroed outside the window on "
            "the doubled grid; the dropped tail mass is order L^-3, so "
            "the error floors rather than following an h-order",
        ),
    ]
    return {entry.problem_id: entry for entry in entries}


def registry() -> dict[str, RegisteredProblem]:
    """Registered reference problems keyed by id (cached after first build)."""
    global _REGISTRY
    if _REGISTRY is None:
        _REGISTRY = _build_registry()
    return _REGISTRY


# ---------------------------------------------------------------------------
# compatibility


@dataclass(frozen=True)
class CompatibilityResult:
    mean: float
    first_moment: float
    tol: float
    # absolute tolerance the two moment quadratures ran at
    quad_tol: float

    @property
    def passed(self) -> bool:
        return abs(self.mean) <= self.tol and abs(self.first_moment) <= self.tol


def compatibility_check(
    forcing: Callable[[np.ndarray], np.ndarray],
    decay_certificate: DecayCertificate | PowerDecayCertificate,
    tol: float = 1e-8,
) -> CompatibilityResult:
    """Zeroth and first moments of the forcing over the whole line.

    A whole-line or flux-closure forcing must have vanishing mean and first
    moment for the continuous problem to be solvable; the result carries
    both values so callers can report which one failed.
    """
    if not isinstance(decay_certificate, (DecayCertificate, PowerDecayCertificate)):
        raise TypeError("unsupported certificate %r" % type(decay_certificate).__name__)
    quad_tol = min(tol / 10.0, 1e-10)
    # one batch: integral 0 is the mean, integral 1 the first moment
    moments = adaptive_quad_many(
        lambda y, owner: np.where(owner == 1, y, 1.0) * np.asarray(forcing(y), dtype=float),
        [-math.inf, -math.inf],
        math.inf,
        quad_tol,
        decay=[decay_certificate, decay_certificate.times_power(1)],
    ).value
    return CompatibilityResult(
        mean=float(moments[0]), first_moment=float(moments[1]), tol=tol, quad_tol=quad_tol
    )


# ---------------------------------------------------------------------------
# convergence sweeps


@dataclass
class ConvergenceRow:
    problem: str
    half_width: float
    steps: int
    spacing: float
    linf_error: float
    runtime_ms: float
    fitted_order: float = math.nan


@dataclass
class ConvergenceReport:
    rows: list[ConvergenceRow]
    fitted_orders: Mapping[tuple[str, float], float]


def _probe_error(entry: RegisteredProblem, solution) -> tuple[float, float]:
    exact = entry.exact_solution
    if exact is None:
        return math.nan, 1.0
    grid = solution.system.grid
    w = grid.half_width
    h = grid.spacing
    count = int(round(32.0 * w / h))
    pts = np.linspace(-2.0 * w, 2.0 * w, count + 1)
    keep = np.ones(pts.size, dtype=bool)
    for s in entry.discontinuities:
        keep &= np.abs(pts - s) > h * (1.0 - 1e-9)
    pts = pts[keep]
    truth = np.asarray(exact(pts), dtype=float)
    approx = evaluate_solution(solution, pts)
    scale = float(np.abs(truth).max())
    return float(np.abs(approx - truth).max()), scale


def _run_cell(
    entry: RegisteredProblem, half_width: float, steps: int
) -> tuple[ConvergenceRow, float]:
    case = entry.build(half_width)
    grid = build_grid(case.solve_half_width, steps)
    start = time.perf_counter()
    try:
        system = assemble(case.problem, grid)
        solution = solve(system)
    except (SolveError, QuadratureError) as exc:
        runtime = 1e3 * (time.perf_counter() - start)
        log.warning(
            "cell (%s, L=%g, M=%d) failed: %s", entry.problem_id, half_width, steps, exc
        )
        row = ConvergenceRow(
            entry.problem_id, half_width, steps, grid.spacing, math.nan, runtime
        )
        return row, 1.0
    runtime = 1e3 * (time.perf_counter() - start)
    error, scale = _probe_error(entry, solution)
    row = ConvergenceRow(
        entry.problem_id, half_width, steps, grid.spacing, error, runtime
    )
    return row, scale


def run_convergence(
    problem_id: str,
    half_widths: Sequence[float],
    step_counts: Sequence[int],
    *,
    workers: int = 1,
) -> ConvergenceReport:
    """Sweep the problem over half widths and step counts.

    Rows are ordered by (half width, spacing descending).  The fitted order
    per half width is the least squares slope of log error against log
    spacing, ignoring failed cells and cells whose error sits at the
    rounding floor of the reference solution.
    """
    entry = registry().get(problem_id)
    if entry is None:
        raise KeyError("unknown problem id %r" % problem_id)
    if len(step_counts) < 3:
        raise ValueError(
            "need at least 3 step counts for an order fit, got %d" % len(step_counts)
        )
    if not half_widths:
        raise ValueError("need at least one half width")

    cells = [
        (float(lw), int(m))
        for lw in sorted(half_widths)
        for m in sorted(step_counts)
    ]
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(lambda c: _run_cell(entry, *c), cells))
    else:
        outcomes = [_run_cell(entry, *cell) for cell in cells]
    rows = [row for row, _ in outcomes]
    scales = {id(row): scale for row, scale in outcomes}

    fitted: dict[tuple[str, float], float] = {}
    for lw in sorted(set(c[0] for c in cells)):
        group = [r for r in rows if r.half_width == lw]
        hs, errs = [], []
        for r in group:
            floor = 100.0 * _EPS * scales[id(r)]
            if math.isfinite(r.linf_error) and r.linf_error > floor:
                hs.append(r.spacing)
                errs.append(r.linf_error)
        order = math.nan
        if len(hs) >= 2:
            order = float(np.polyfit(np.log(hs), np.log(errs), 1)[0])
        fitted[(entry.problem_id, lw)] = order
        for r in group:
            r.fitted_order = order

    return ConvergenceReport(rows=rows, fitted_orders=fitted)


def emit_csv(report: ConvergenceReport, destination: str | Path | IO[str]) -> None:
    """Write the report; floats carry 17 significant digits so the file
    round-trips bit exactly."""
    lines = [CSV_HEADER]
    for r in report.rows:
        lines.append(
            "%s,%s,%d,%s,%s,%s,%s"
            % (
                r.problem,
                format(r.half_width, ".17g"),
                r.steps,
                format(r.spacing, ".17g"),
                format(r.linf_error, ".17g"),
                format(r.fitted_order, ".17g"),
                format(r.runtime_ms, ".17g"),
            )
        )
    text = "\n".join(lines) + "\n"
    if hasattr(destination, "write"):
        destination.write(text)
        return
    Path(destination).write_text(text)
