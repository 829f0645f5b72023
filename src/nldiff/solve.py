"""Structured solves, solution reconstruction, and stability diagnostics.

The default solve never forms a matrix.  The symmetric Toeplitz core T is
solved by conjugate gradients.  T acts like a discrete second difference:
its symbol sigma(theta) = c_0 + 2 sum_{k<n} c_k cos(k theta) is about
m_2 theta^2 / (2 h^2) near theta = 0, a double zero that a circulant
preconditioner smears to O(1/L), so circulant-preconditioned CG needs more
steps as the window grows.  The sine transform keeps that zero: its vectors
sin(pi j k / (n' + 1)) vanish at both ends, as the lowest modes of T nearly
do.  The preconditioner is the leading n x n block of tau^{-1}, tau the
n' x n' matrix diagonalised by the DST-I, n' = fast_length(n + 1) - 1, with
the truncated symbol at the sine frequencies pi j / (n' + 1) as its
eigenvalues (Bini and Di Benedetto's natural tau; Di Benedetto, SIAM J. Sci.
Comput. 16, 1995).  The operator builds it from the symbol it stores for
its matvec (`StructuredOperator.sine_preconditioner`).  CG takes 1 to 6
steps on every registry problem from L = 5 to 40, fewer on the wider
windows.  A sign-changing
kernel may give a sine eigenvalue <= 0; it is replaced by the smallest
Fejer sample of the symbol (`StructuredOperator.circulant_eigenvalues`),
each a Rayleigh quotient of T, positive whenever T is positive definite,
so the preconditioner stays positive definite.  The same samples give the
refusal of a core that is not positive definite and the condition
estimate.  Every product with T goes through the operator's FFT matvec.
The whole-line and flux-closure systems N = T - B E^T add two boundary
columns, handled by Sherman-Morrison-Woodbury.
The columns mirror each other, B = [b_0, J b_0], and J T = T J, so one
batched CG run for b and b_0 gives T^{-1} J b_0 as the reversed T^{-1} b_0,
and the 2 x 2 capacitance splits into an even and an odd scalar.  Dirichlet
systems run the same code with no boundary columns.  Dense LU remains as
the explicit oracle `solve(system, method="dense")`.  Either way the solver
verifies the residual with the fast matvec and refuses to return a
solution that does not satisfy it.  The reported 2-norms of the residual
are taken on the residual scaled by its largest entry, so a tiny residual
does not underflow to 0 when squared.

The stability report samples the operator symbol on the cosine modes of the
weight support, j = 0..M with R = M h the weight support radius:

    symbol_j = tail_mass + integral over |x| <= R of (1 - cos(j pi x / R)) nu(x) dx
             = tail_mass + 2 V_j,

V_j the versine transform of nu over [0, R].  A kernel with terms takes V_j
closed (`Kernel.versine_transform`, O(M p)), and the reported
`symbol_error_estimate` is a rounding bound.  Any other kernel takes one
quadrature pass (`quadrature.versine_transform`): nu is evaluated once at
the 15 Gauss nodes of equal panels with edges on the hat grid, so the kink
of nu at 0 sits on an edge, and one batched FFT over the 15 Gauss nodes
gives every V_j.  The panel count doubles until two resolutions agree to
_SYMBOL_TOL = 1e-10 in every sample; their worst gap is the estimate.
Either way the tail mass, which can sit far below the rounding level of
V_j, is added apart and never cancels: symbol_0 is the tail mass exactly.

Known limitation of the quadrature table: a kernel with a kink between
panel edges can fool the two-resolution estimate, as it fooled the
per-mode adaptive quadrature before it.  For nu = e^-|y| / 2 + 0.2 max(0,
a - |y|) e^-|y| at L = 10, M = 256 and a = 0.3, both passed tol = 1e-10
with actual worst errors of 1.6e-10 (this table, estimate 4.0e-11) and
4.2e-9 (one adaptive quadrature per mode); at a = 0.351414 they were
5.8e-12 and 6.0e-9.

The Dirichlet certificate brackets the smallest eigenvalue of the symmetric
core (`StructuredOperator.core_eigenvalue_bracket`) in O(n) memory: the
Ritz vector's Rayleigh quotient on the FFT matvec, rounded up, from above.
From below, a nonnegative kernel (a Z-matrix core) takes the
Collatz-Wielandt bound of the positive Ritz vector from that same matvec.
A sign-changing kernel with terms takes an O(n p) Levinson test on the
core its hat weight generator gives (`Kernel.hat_weight_terms`, from the
terms and the grid spacing, never from assembly), less the measured
distance to the assembled core; a kernel without terms takes one Durbin
pass, O(n^2), refused beyond MAX_DENSE_SIZE unknowns.  The grid is stable
when the lower end is positive.  The whole-line and flux-closure
certificate is the norm ||I - N||_inf, row sums of the column and the edge
in O(n) with no FFT (`operator._row_sum_norm`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .assembly import DiscreteSystem
from .grids import Grid
from .kernels import Kernel, tail_mass
from .operator import StructuredOperator, _gamma, _row_sum_norm
from .quadrature import versine_transform

__all__ = [
    "Solution",
    "SolveError",
    "StabilityReport",
    "solve",
    "evaluate_solution",
    "stability_report",
]

_RESIDUAL_FACTOR = 1e-10
# CG stops once each recursive residual is below this fraction of its right
# hand side (2-norm); the true residual then sits at the rounding level of
# the FFT matvec, far inside the residual bound
_CG_RTOL = 1e-14
# the preconditioned iteration converges in 1-6 steps on every registry
# problem; hundreds mean the core is close to singular
_CG_MAX_ITERATIONS = 500
# estimated absolute error allowed in each symbol sample of the stability report
_SYMBOL_TOL = 1e-10


class SolveError(RuntimeError):
    """Linear solve failed or its residual check did not hold.

    condition_estimate is the 1-norm condition number on the dense route;
    on the structured route it is the ratio of the largest to the smallest
    circulant sample, each a Rayleigh quotient of the core, so a lower
    bound on the core's spectral condition number, and inf when the core
    is not positive definite.  iterations and residual
    describe where the solve stopped.
    """

    def __init__(
        self,
        message: str,
        condition_estimate: float | None = None,
        iterations: int | None = None,
        residual: float | None = None,
    ):
        super().__init__(message)
        self.condition_estimate = condition_estimate
        self.iterations = iterations
        self.residual = residual


@dataclass
class Solution:
    """The system solved, its node values (values[k] at node
    system.indices[k]) and the residual diagnostics."""

    system: DiscreteSystem
    values: np.ndarray
    diagnostics: Mapping[str, float | str]


def _circulant_condition(eigenvalues: np.ndarray) -> float:
    low = float(eigenvalues.min())
    return float(eigenvalues.max()) / low if low > 0.0 else math.inf


def _preconditioned_cg(
    operator: StructuredOperator, eigenvalues: np.ndarray, rhs: np.ndarray
) -> tuple[np.ndarray, int]:
    """Solve T x = b for each row b of rhs, all rows in one batched run.

    The active rows live in contiguous arrays.  A row whose squared residual
    norm falls to its squared goal is written back to the solution, and
    only then is the batch compacted.  A curvature p^T T p that is not
    positive is a breakdown: T is not positive definite, and SolveError is
    raised.  Non-finite data ends the run early; the residual check in
    `solve` then refuses the result.

    CG commutes with scaling, and a power of two scales exactly, so each
    row runs with its largest entry in [1/2, 1) and its iterates are the
    unscaled ones times that power: no squared norm underflows, as one of
    a right-hand side below 1e-154 did.
    """
    precondition = operator.sine_preconditioner(float(eigenvalues.min()))
    exponents = np.frexp(np.abs(rhs).max(axis=1))[1]
    scale = np.ldexp(1.0, np.clip(-exponents, -1000, 1000))
    solution = rhs * scale[:, None]
    squared = np.einsum("ij,ij->i", solution, solution)
    goal = _CG_RTOL * _CG_RTOL * squared
    rows = np.flatnonzero(squared > goal)
    goal, squared = goal[rows], squared[rows]
    residual = solution[rows]
    solution[:] = 0.0
    values = np.zeros_like(residual)

    def worst() -> float:
        # the largest residual norm in the rows' own units
        return float((np.sqrt(squared) / scale[rows]).max())

    direction = precondition(residual)
    rz = np.einsum("ij,ij->i", residual, direction)
    iterations = 0
    while rows.size:
        if iterations == _CG_MAX_ITERATIONS:
            raise SolveError(
                "conjugate gradients did not converge in %d iterations; residual %.3e"
                % (iterations, worst()),
                condition_estimate=_circulant_condition(eigenvalues),
                iterations=iterations,
                residual=worst(),
            )
        iterations += 1
        image = operator.core_matvec(direction)
        curvature = np.einsum("ij,ij->i", direction, image)
        if not np.all(curvature > 0.0):
            lowest = float((curvature / scale[rows] / scale[rows]).min())
            raise SolveError(
                "conjugate gradients broke down at iteration %d (curvature %.3e, "
                "residual %.3e): the Toeplitz core is not positive definite"
                % (iterations, lowest, worst()),
                condition_estimate=math.inf,
                iterations=iterations,
                residual=worst(),
            )
        step = (rz / curvature)[:, None]
        values += step * direction
        residual -= step * image
        squared = np.einsum("ij,ij->i", residual, residual)
        going = squared > goal
        if not going.all():
            solution[rows[~going]] = values[~going]
            rows, goal, squared, rz = rows[going], goal[going], squared[going], rz[going]
            values, residual, direction = values[going], residual[going], direction[going]
            if not rows.size:
                break
        preconditioned = precondition(residual)
        rz_next = np.einsum("ij,ij->i", residual, preconditioned)
        direction = preconditioned + (rz_next / rz)[:, None] * direction
        rz = rz_next
        # the next matvec is the peak of the solve's memory
        del preconditioned, image
    solution /= scale[:, None]
    return solution, iterations


def _solve_structured(operator: StructuredOperator, rhs: np.ndarray) -> tuple[np.ndarray, int]:
    eigenvalues = operator.circulant_eigenvalues()
    if not np.all(eigenvalues > 0.0):
        raise SolveError(
            "the Toeplitz core is not positive definite: its Rayleigh quotient "
            "at a Fourier vector is %.3e" % float(eigenvalues.min()),
            condition_estimate=math.inf,
            iterations=0,
            residual=float(np.abs(rhs).max()),
        )
    # Sherman-Morrison-Woodbury for N = T - B E^T:
    # u = y + Z (I - E^T Z)^{-1} E^T y with y = T^{-1} b, Z = T^{-1} B.
    # B = [b_0, J b_0] and J T = T J, so Z = [z, J z] with z = T^{-1} b_0, and
    # I - E^T Z = [[1 - a, -c], [-c, 1 - a]] (a = z_0, c = z_{n-1}) acts on
    # even and odd pairs as the scalars 1 - a - c and 1 - a + c
    edge = operator.edge
    rows = rhs[None, :] if edge is None else np.vstack((rhs, edge))
    solved, iterations = _preconditioned_cg(operator, eigenvalues, rows)
    values = solved[0]
    if edge is not None:
        z = solved[1]
        even, odd = 1.0 - z[0] - z[-1], 1.0 - z[0] + z[-1]
        if not all(math.isfinite(scalar) and scalar != 0.0 for scalar in (even, odd)):
            raise SolveError(
                "boundary capacitance is singular (even %.3e, odd %.3e)" % (even, odd),
                condition_estimate=math.inf,
                iterations=iterations,
                residual=float(np.abs(rhs).max()),
            )
        even_shift = 0.5 * (values[0] + values[-1]) / even
        odd_shift = 0.5 * (values[0] - values[-1]) / odd
        values = values + (even_shift + odd_shift) * z + (even_shift - odd_shift) * z[::-1]
    return values, iterations


def solve(system: DiscreteSystem, method: str = "structured") -> Solution:
    """Solve N u = b with a mandatory residual check.

    method "structured" (the default) runs preconditioned CG on the
    Toeplitz core with a Woodbury update for the boundary columns; "dense"
    materialises N and runs LU, as an oracle for small systems.  Either way
    the residual must satisfy
    ||N u - b||_inf <= 1e-10 (||N||_inf ||u||_inf + ||b||_inf),
    computed with the FFT matvec and the O(n) norm; a singular operator, a
    CG breakdown or non-convergence, or a violated bound raises SolveError
    with a condition estimate, the iteration count and the residual.
    """
    if method not in ("structured", "dense"):
        raise ValueError("unknown solve method %r" % method)
    operator, rhs = system.operator, system.rhs
    if method == "dense":
        matrix = operator.dense()
        iterations = 0
        try:
            values = np.linalg.solve(matrix, rhs)
        except np.linalg.LinAlgError as exc:
            cond = float(np.linalg.cond(matrix, 1))
            raise SolveError(
                "linear solve failed (%s); 1-norm condition estimate %.3e" % (exc, cond),
                condition_estimate=cond,
                iterations=0,
                residual=float(np.abs(rhs).max()),
            ) from exc
    else:
        values, iterations = _solve_structured(operator, rhs)

    residual = operator.matvec(values) - rhs
    res_inf = float(np.abs(residual).max())
    bound = _RESIDUAL_FACTOR * (
        operator.norm_inf() * float(np.abs(values).max()) + float(np.abs(rhs).max())
    )
    if not res_inf <= bound:
        if method == "dense":
            cond = float(np.linalg.cond(matrix, 1))
        else:
            cond = _circulant_condition(operator.circulant_eigenvalues())
        raise SolveError(
            "residual %.3e exceeds bound %.3e; condition estimate %.3e"
            % (res_inf, bound, cond),
            condition_estimate=cond,
            iterations=iterations,
            residual=res_inf,
        )

    h = system.grid.spacing
    # scaled by its largest entry, the squares of a residual near 1e-190
    # stay in the floats
    res_l2 = 0.0
    if res_inf > 0.0:
        res_l2 = res_inf * float(np.linalg.norm(residual / res_inf))
    diagnostics = {
        "residual_inf": res_inf,
        "residual_bound": bound,
        "residual_l2": res_l2,
        "residual_l2_weighted": math.sqrt(h) * res_l2,
        "iterations": iterations,
        "route": method,
    }

    return Solution(system, values, diagnostics)


def evaluate_solution(solution: Solution, x):
    """Reconstruct the solution at arbitrary points.

    Inside the window the node values are interpolated linearly (exact at
    the nodes).  Outside, the exterior model of the problem solved applies:
    its Dirichlet data, or its decay profile times the edge value on that
    side.
    """
    x_arr = np.asarray(x, dtype=float)
    scalar = x_arr.ndim == 0
    pts = np.atleast_1d(x_arr)
    system = solution.system
    problem = system.problem
    values = solution.values
    w = system.grid.half_width
    nodes = system.grid.spacing * system.indices
    outside = np.abs(pts) > w

    if system.variant == "dirichlet":
        data = problem.exterior_data
        xp = np.concatenate([[-w], nodes, [w]])
        edge = np.asarray(data(np.array([-w, w])), dtype=float)
        fp = np.concatenate([[edge[0]], values, [edge[1]]])
        out = np.interp(pts, xp, fp)
        if np.any(outside):
            out[outside] = np.asarray(data(pts[outside]), dtype=float)
    else:
        out = np.interp(pts, nodes, values)
        if np.any(outside):
            far = pts[outside]
            side = np.where(far < 0, float(values[0]), float(values[-1]))
            out[outside] = side * problem.decay.profile(far, w)

    return float(out[0]) if scalar else out


@dataclass(frozen=True)
class StabilityReport:
    symbol_values: np.ndarray
    symbol_lower_bound: float
    # Dirichlet only: the Ritz value and the certified lower end below it
    min_eigenvalue: float | None
    min_eigenvalue_lower: float | None
    contraction_norm: float | None
    stable: bool
    # worst gap between the symbol tables on P and 2P panels
    symbol_error_estimate: float


def _symbol_samples(kernel: Kernel, grid: Grid) -> tuple[np.ndarray, float]:
    """symbol_j = tail mass + 2 versine_j, and a bound on each sample's error.

    A kernel with terms takes the closed table, whose error is rounding: a
    term's versine is at most 3 |c| / a, takes some eight roundings, and
    moves by at most 4 |c| / a times the relative error gamma_3 of its
    frequency j pi / R; summing p terms, doubling and adding the tail mass
    round once more each.  Any other kernel takes the quadrature table and
    its two-resolution gap.
    """
    radius = grid.weight_radius
    mass = tail_mass(kernel, radius)
    if kernel.terms is None:
        table = versine_transform(kernel.evaluate, radius, grid.steps, _SYMBOL_TOL / 2.0)
        return mass + 2.0 * table.value, 2.0 * table.abs_error_estimate
    size = sum(abs(c) / a for c, a in kernel.terms)
    error = _gamma(len(kernel.terms) + 16) * (abs(mass) + 20.0 * size)
    return mass + 2.0 * kernel.versine_transform(radius, grid.steps), error


def stability_report(system: DiscreteSystem) -> StabilityReport:
    """Symbol samples plus the variant's algebraic stability certificate.

    Dirichlet systems are symmetric, so the certificate is a bracket on
    the smallest eigenvalue, stable when its certified lower end is
    positive; real line systems lose symmetry through the boundary columns
    and certify through ||I - N||_inf < 1 instead.  _SYMBOL_TOL bounds the
    estimated absolute error of each quadrature symbol sample; a table that
    does not reach it raises QuadratureError.
    """
    kernel = system.problem.kernel
    grid = system.grid
    operator = system.operator

    # the certificate comes first: a Dirichlet core that would need Durbin
    # beyond the size limit is then refused before any symbol work
    min_eig: float | None = None
    min_eig_lower: float | None = None
    contraction: float | None = None
    if system.variant == "dirichlet":
        # the generator comes from the kernel's terms, not from assembly, and
        # the bracket measures how far the assembled core lies from it
        geometric = None
        if kernel.terms is not None:
            geometric = [(-g, rho) for g, rho in kernel.hat_weight_terms(grid.spacing)]
        min_eig_lower, min_eig = operator.core_eigenvalue_bracket(geometric)
        stable = min_eig_lower > 0.0
    else:
        # I - N = (I - T) + B E^T, again Toeplitz plus boundary columns
        gap_column = -operator.column
        gap_column[0] += 1.0
        contraction = _row_sum_norm(gap_column, -operator.edge)
        stable = contraction < 1.0

    symbol, symbol_error = _symbol_samples(kernel, grid)
    damp = 1.0
    if system.variant != "dirichlet":
        damp -= 3.0 ** (-system.problem.decay.exponent)
    bound = damp * tail_mass(kernel, 2.0 * grid.weight_radius)

    return StabilityReport(
        symbol_values=symbol,
        symbol_lower_bound=bound,
        min_eigenvalue=min_eig,
        min_eigenvalue_lower=min_eig_lower,
        contraction_norm=contraction,
        stable=stable,
        symbol_error_estimate=symbol_error,
    )
