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
Comput. 16, 1995).  One real FFT pair of the even 5-smooth length
N = 2 (n' + 1) applies it.  CG takes 1 to 6 steps on every registry
problem from L = 5 to 40, fewer on the wider windows.  A sign-changing
kernel may give a sine eigenvalue <= 0; it is replaced by the smallest
Fejer sample of the symbol (`StructuredOperator.circulant_eigenvalues`),
each a Rayleigh quotient of T, positive whenever T is positive definite,
so the preconditioner stays positive definite.  The same samples give the
refusal of a core that is not positive definite and the condition
estimate.  Every product with T goes through the operator's FFT matvec.  The whole-line and flux-closure systems
N = T - B E^T add two boundary columns, handled by Sherman-Morrison-Woodbury.
The columns mirror each other, B = [b_0, J b_0], and J T = T J, so one
batched CG run for b and b_0 gives T^{-1} J b_0 as the reversed T^{-1} b_0,
and the 2 x 2 capacitance splits into an even and an odd scalar.  Dirichlet
systems run the same code with no boundary columns.  Dense LU remains as
the explicit oracle `solve(system, method="dense")`.  Either way the solver
verifies the residual with the fast matvec and refuses to return a
solution that does not satisfy it.

The stability report samples the operator symbol on the cosine modes of the
weight support, j = 0..M with R = M h the weight support radius:

    symbol_j = tail_mass + integral over |x| <= R of (1 - cos(j pi x / R)) nu(x) dx
             = tail_mass + 2 (S - C_j),

S the integral of nu over [0, R] and C_j its cosine transform there.  The
whole table comes from one pass (`quadrature.versine_transform`): nu is
evaluated once at the 15 Gauss nodes of equal panels with edges on the
hat grid, so the kink of nu at 0 sits on an edge, and one batched FFT over
the 15 Gauss nodes gives C_j for every j.  The panel count doubles until
two resolutions agree to _SYMBOL_TOL = 1e-10 in every sample; their worst
gap is reported as `symbol_error_estimate`.  The subtraction S - C_j loses
about eps * ||nu||_1 in absolute terms, far inside that tolerance.  The tail mass, which
can sit far below that rounding level, is added apart and never cancels:
symbol_0 is the tail mass exactly.

Known limitation: a kernel with a kink between panel edges can fool the
two-resolution estimate, as it fooled the per-mode adaptive quadrature
before it.  For nu = e^-|y| / 2 + 0.2 max(0, a - |y|) e^-|y| at L = 10,
M = 256 and a = 0.3, both passed tol = 1e-10 with actual worst errors of
1.6e-10 (this table, estimate 4.0e-11) and 4.2e-9 (one adaptive quadrature
per mode); at a = 0.351414 they were 5.8e-12 and 6.0e-9.

The Dirichlet certificate brackets the smallest eigenvalue of the symmetric
core (`StructuredOperator.core_eigenvalue_bracket`) in O(n) memory: the
Ritz vector's Rayleigh quotient on the FFT matvec, rounded up, from above;
from below, for a
nonnegative kernel (a Z-matrix core), the Collatz-Wielandt bound of the
positive Ritz vector from that same matvec, and for a sign-changing
kernel one Durbin pass on the shifted core.  The grid is stable when the
lower end is positive.  The whole-line and flux-closure certificate is the
O(n) norm ||I - N||_inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .assembly import DiscreteSystem
from .grids import Grid
from .kernels import Kernel, tail_mass
from .operator import StructuredOperator, fast_length
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


def _sine_preconditioner(
    operator: StructuredOperator, eigenvalues: np.ndarray
) -> Callable[[np.ndarray], np.ndarray]:
    """r -> P r, P the leading n x n block of tau^{-1}.

    tau is the n' x n' matrix diagonalised by the DST-I S, S_jk =
    sin(pi j k / (n' + 1)) and S^2 = (n' + 1) / 2 I, n' = fast_length(n + 1)
    - 1.  Its eigenvalues are T's symbol truncated to its n lags at the sine
    frequencies, lambda_j = c_0 + 2 sum_{0<k<n} c_k cos(k pi j / (n' + 1))
    for j = 1..n', which is 2 Re rfft(column, N)_j - c_0 for the even,
    5-smooth N = 2 (n' + 1).  A lambda_j <= 0, which only a sign-changing
    kernel can give, is replaced by the smallest Fejer sample
    `eigenvalues`, positive once `_solve_structured`'s refusal has passed.
    P, a principal block of a symmetric positive definite matrix, is then
    one.

    tau^{-1} = 2 / (n' + 1) S diag(1 / lambda) S, and one real FFT pair of
    length N applies it.  r sits at positions 1..n of a zero buffer, and
    the imaginary part of the buffer's rfft is -S r.  The real part is
    zeroed and the imaginary part scaled by 2 / lambda_j (0 at j = 0 and
    N / 2).  Positions 1..n of the irfft, which carries the factor 2 / N =
    1 / (n' + 1), are P r.  The irfft writes into the buffer, and the 2 /
    lambda table is the one array kept between calls.
    """
    n = operator.size
    length = 2 * fast_length(n + 1)
    sine = 2.0 * np.fft.rfft(operator.column, length).real[1:-1] - operator.column[0]
    sine[sine <= 0.0] = eigenvalues.min()
    table = np.zeros(length // 2 + 1)
    table[1:-1] = 2.0 / sine

    def precondition(r):
        buffer = np.zeros(r.shape[:-1] + (length,))
        buffer[..., 1 : n + 1] = r
        spectrum = np.fft.rfft(buffer, axis=-1)
        spectrum.real = 0.0
        spectrum.imag *= table
        return np.fft.irfft(spectrum, length, axis=-1, out=buffer)[..., 1 : n + 1]

    return precondition


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
    """
    precondition = _sine_preconditioner(operator, eigenvalues)
    solution = np.zeros_like(rhs)
    squared = np.einsum("ij,ij->i", rhs, rhs)
    goal = _CG_RTOL * _CG_RTOL * squared
    rows = np.flatnonzero(squared > goal)
    goal, squared = goal[rows], squared[rows]
    residual = rhs[rows]
    values = np.zeros_like(residual)
    direction = precondition(residual)
    rz = np.einsum("ij,ij->i", residual, direction)
    iterations = 0
    while rows.size:
        if iterations == _CG_MAX_ITERATIONS:
            worst = math.sqrt(float(squared.max()))
            raise SolveError(
                "conjugate gradients did not converge in %d iterations; residual %.3e"
                % (iterations, worst),
                condition_estimate=_circulant_condition(eigenvalues),
                iterations=iterations,
                residual=worst,
            )
        iterations += 1
        image = operator.core_matvec(direction)
        curvature = np.einsum("ij,ij->i", direction, image)
        if not np.all(curvature > 0.0):
            worst = math.sqrt(float(squared.max()))
            raise SolveError(
                "conjugate gradients broke down at iteration %d (curvature %.3e, "
                "residual %.3e): the Toeplitz core is not positive definite"
                % (iterations, float(curvature.min()), worst),
                condition_estimate=math.inf,
                iterations=iterations,
                residual=worst,
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
        preconditioned = precondition(residual)
        rz_next = np.einsum("ij,ij->i", residual, preconditioned)
        direction = preconditioned + (rz_next / rz)[:, None] * direction
        rz = rz_next
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
    res_l2 = float(np.linalg.norm(residual))
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
    the nodes).  Outside, the solved system's exterior model applies: its
    Dirichlet data, or its decay profile times the edge value on that side.
    A system without its exterior data or decay model is an error.
    """
    x_arr = np.asarray(x, dtype=float)
    scalar = x_arr.ndim == 0
    pts = np.atleast_1d(x_arr)
    system = solution.system
    values = solution.values
    w = system.grid.half_width
    nodes = system.grid.spacing * system.indices
    outside = np.abs(pts) > w

    if system.variant == "dirichlet":
        data = system.exterior_data
        if data is None:
            raise ValueError("dirichlet solution needs exterior data for evaluation")
        xp = np.concatenate([[-w], nodes, [w]])
        edge = np.asarray(data(np.array([-w, w])), dtype=float)
        fp = np.concatenate([[edge[0]], values, [edge[1]]])
        out = np.interp(pts, xp, fp)
        if np.any(outside):
            out[outside] = np.asarray(data(pts[outside]), dtype=float)
    else:
        if system.decay is None:
            raise ValueError("solution's system lacks a decay model")
        out = np.interp(pts, nodes, values)
        if np.any(outside):
            far = pts[outside]
            side = np.where(far < 0, float(values[0]), float(values[-1]))
            out[outside] = side * system.decay.profile(far, w)

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
    radius = grid.weight_radius
    table = versine_transform(kernel.evaluate, radius, grid.steps, _SYMBOL_TOL / 2.0)
    symbol = tail_mass(kernel, radius) + 2.0 * table.value
    return symbol, 2.0 * table.abs_error_estimate


def stability_report(system: DiscreteSystem) -> StabilityReport:
    """Symbol samples plus the variant's algebraic stability certificate.

    Dirichlet systems are symmetric, so the certificate is a bracket on
    the smallest eigenvalue, stable when its certified lower end is
    positive; real line systems lose symmetry through the boundary columns
    and certify through ||I - N||_inf < 1 instead.  _SYMBOL_TOL bounds the
    estimated absolute error of each symbol sample; a table that does not
    reach it raises QuadratureError.
    """
    kernel = system.kernel
    grid = system.grid
    operator = system.operator

    # the certificate comes first: the size guard of a Dirichlet system
    # that is too large then fails before any symbol work
    min_eig: float | None = None
    min_eig_lower: float | None = None
    contraction: float | None = None
    if system.variant == "dirichlet":
        min_eig_lower, min_eig = operator.core_eigenvalue_bracket()
        stable = min_eig_lower > 0.0
    else:
        # I - N = (I - T) + B E^T, again Toeplitz plus boundary columns
        gap_column = -operator.column
        gap_column[0] += 1.0
        contraction = StructuredOperator(gap_column, -operator.edge).norm_inf()
        stable = contraction < 1.0

    symbol, symbol_error = _symbol_samples(kernel, grid)
    q = system.decay.exponent if system.decay is not None else math.inf
    damp = 1.0 if math.isinf(q) else 1.0 - 3.0 ** (-q)
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
