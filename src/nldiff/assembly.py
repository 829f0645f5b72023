"""Problem descriptions and assembly of the structured discrete systems.

Three problem families share one weight table:

- Dirichlet: data prescribed on the closed exterior |x| >= half_width moves
  into the right hand side (exterior sums plus the beyond-support boundary
  integral B).
- Real line: the solution is modelled beyond the window by a power decay
  profile anchored at the window edge; the exterior sums and the
  beyond-support integrals attach to the first and last matrix columns, in
  that printed normalization (for even data the reflected attachment gives
  the identical solution).
- Neumann flux closure: rewritten as a real line problem whose forcing takes
  the exterior branch on |x| >= split_radius (closed exterior convention).

Every system is a `StructuredOperator`: the symmetric Toeplitz core given by
its first column plus, for the real line and flux closure, two mirrored
boundary columns, stored as the first one (`edge`).  The exterior sums are
one FFT convolution of the weight table with the exterior data or the decay
profile, so assembly costs O(n log n) time and O(n) memory.

The beyond-support integrals take a closed form when the problem or the
kernel carries one.  Otherwise all of them come from one batched adaptive
quadrature (`adaptive_quad_many`): one tail integral per node for the real
line, two per node (left and right tail) for Dirichlet data, each with its
own certificate and tolerance.  `dirichlet_boundary_term` is the one-node
case of the Dirichlet routine that `assemble_dirichlet` runs on every node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .grids import Grid, WeightSet, compute_weights
from .kernels import Kernel, _route_kernel
from .operator import StructuredOperator, convolve
from .quadrature import DecayCertificate, adaptive_quad_many

__all__ = [
    "DecayModel",
    "GrowthCertificate",
    "DirichletProblem",
    "RealLineProblem",
    "NeumannProblem",
    "AnyProblem",
    "DiscreteSystem",
    "dirichlet_boundary_term",
    "realline_boundary_terms",
    "neumann_to_realline",
    "assemble_dirichlet",
    "assemble_realline",
    "assemble",
]


@dataclass(frozen=True)
class DecayModel:
    """Exterior model u(x) ~ u(edge) * (edge/|x|)**exponent, exponent > 0."""

    exponent: float

    def __post_init__(self) -> None:
        if not self.exponent > 0:
            raise ValueError("decay exponent must be positive")

    def profile(self, x, edge: float) -> np.ndarray:
        ax = np.maximum(np.abs(np.asarray(x, dtype=float)), edge)
        return (edge / ax) ** self.exponent


@dataclass(frozen=True)
class GrowthCertificate:
    """Bound |g(x)| <= constant * (1 + |x|)**degree on the exterior."""

    degree: float
    constant: float

    def __post_init__(self) -> None:
        if not (0 <= self.degree < math.inf and 0 < self.constant < math.inf):
            raise ValueError("growth certificate needs finite degree >= 0 and constant > 0")


@dataclass(frozen=True)
class DirichletProblem:
    kernel: Kernel
    forcing: Callable[[np.ndarray], np.ndarray]
    exterior_data: Callable[[np.ndarray], np.ndarray]
    closed_boundary_term: Callable[[np.ndarray, float], np.ndarray] | None = None
    exterior_growth: GrowthCertificate | None = None


@dataclass(frozen=True)
class RealLineProblem:
    kernel: Kernel
    forcing: Callable[[np.ndarray], np.ndarray]
    decay: DecayModel


@dataclass(frozen=True)
class NeumannProblem:
    kernel: Kernel
    forcing: Callable[[np.ndarray], np.ndarray]
    exterior_forcing: Callable[[np.ndarray], np.ndarray]
    split_radius: float
    decay: DecayModel

    def __post_init__(self) -> None:
        if not self.split_radius > 0:
            raise ValueError("split radius must be positive")


AnyProblem = Union[DirichletProblem, RealLineProblem, NeumannProblem]


@dataclass
class DiscreteSystem:
    operator: StructuredOperator
    rhs: np.ndarray
    variant: str
    grid: Grid
    kernel: Kernel
    weights: WeightSet
    indices: np.ndarray
    decay: DecayModel | None = None
    exterior_data: Callable[[np.ndarray], np.ndarray] | None = None


def _core_column(weights: WeightSet, size: int) -> np.ndarray:
    # first column of the Toeplitz core: total + tail_mass, then -w_1, -w_2, ..
    m = weights.grid.steps
    column = -weights.weights[m : m + size]
    column[0] = weights.total + weights.tail_mass
    return column


def _dirichlet_boundary(problem: DirichletProblem, grid: Grid, x: np.ndarray) -> np.ndarray:
    """B(x) = int_{|y| >= weight_radius} g(x - y) nu(y) dy at every node position
    in x: the problem's closed form, or two certified tail quadratures per
    node, all of them in one batch."""
    radius = grid.weight_radius
    if problem.closed_boundary_term is not None:
        return np.asarray(problem.closed_boundary_term(x, radius), dtype=float)
    if problem.exterior_growth is None:
        raise ValueError(
            "dirichlet boundary term needs a closed form or a growth certificate "
            "for the exterior data"
        )
    kernel = problem.kernel
    growth = problem.exterior_growth
    base = DecayCertificate(kernel.decay_rate, kernel.decay_constant * growth.constant)
    # |g(x -+ y) nu(y)| <= C_g (1 + |x| + |y|)^degree * C_nu e^(-rate |y|)
    certs = [base.times_power(growth.degree, 1.0 + abs(float(xi))) for xi in x]
    # the integral is itself a kernel tail, so an absolute tolerance must be
    # scaled to the certified tail size or the answer drowns in slack
    tol = np.array([max(1e-12 * cert.tail_bound(radius), 1e-300) for cert in certs])
    # integrals 0..n-1 take g(x - y) (the right tail), n..2n-1 g(x + y)
    n = x.size
    center = np.concatenate([x, x])
    sign = np.repeat([1.0, -1.0], n)
    g = problem.exterior_data
    nu = kernel.evaluate
    sides = adaptive_quad_many(
        lambda y, owner: np.asarray(g(center[owner] - sign[owner] * y), dtype=float) * nu(y),
        np.full(2 * n, radius),
        math.inf,
        np.concatenate([tol, tol]),
        rel=1e-12,
        decay=certs + certs,
    ).value
    return sides[:n] + sides[n:]


def dirichlet_boundary_term(problem: DirichletProblem, grid: Grid, i: int) -> float:
    """Boundary integral of the exterior data beyond the weight support,
    B_i = int_{|y| >= weight_radius} g(x_i - y) nu(y) dy."""
    if abs(i) > grid.steps // 2 - 1:
        raise ValueError("boundary term index %d outside the solution range" % i)
    return float(_dirichlet_boundary(problem, grid, np.array([grid.node(i)]))[0])


def realline_boundary_terms(
    kernel: Kernel, grid: Grid, decay: DecayModel, method: str = "auto"
) -> tuple[np.ndarray, np.ndarray]:
    """Beyond-support exterior moments (B1, B2) for the real line system,
    normalized by the decay profile at the window edge.

    B1_i covers the left tail y <= -weight_radius, B2 the mirror image; with
    a symmetric kernel B2_i = B1_{-i}.  A kernel with closed forms (any
    exponential sum) takes its exp_int exterior moment; anything else
    integrates numerically.  method "closed" insists on the closed moment
    and "quadrature" integrates even when it exists.
    """
    kernel = _route_kernel(kernel, method)
    k = grid.steps // 2
    xi = grid.spacing * np.arange(-k, k + 1)
    radius = grid.weight_radius
    scale = grid.half_width ** decay.exponent
    if kernel.terms is not None:
        b1 = scale * kernel.exterior_moment(xi, radius, decay.exponent)
        return b1, b1[::-1].copy()

    q = decay.exponent
    # |center + s| >= radius - half_width on the whole integration range
    cert = kernel.decay().times_power(-q, radius - grid.half_width)
    # scale the tolerance to the certified tail size; these integrals sit far
    # below any fixed absolute tolerance
    tol = max(1e-12 * cert.tail_bound(radius), 1e-300)
    b1 = scale * adaptive_quad_many(
        lambda s, owner: np.abs(xi[owner] + s) ** (-q) * kernel.evaluate(s),
        np.full(xi.size, radius),
        math.inf,
        tol,
        rel=1e-12,
        decay=cert,
    ).value
    return b1, b1[::-1].copy()


def assemble_dirichlet(
    problem: DirichletProblem, grid: Grid, weights: WeightSet | None = None
) -> DiscreteSystem:
    if weights is None:
        weights = compute_weights(problem.kernel, grid)
    m = grid.steps
    k = m // 2
    h = grid.spacing
    idx = np.arange(-k + 1, k)

    g = problem.exterior_data
    # exterior node data at x = +-h*(k + t), t in [0, m], the edge included;
    # node i sees sum_t w_{i-k-t} g(h(k+t)), entry i + k of the convolution,
    # and the mirror sum at entry k - i
    ext = h * np.arange(k, k + m + 1)
    data = np.stack([np.asarray(g(ext), dtype=float), np.asarray(g(-ext), dtype=float)])
    sums = convolve(weights.weights, data)
    exterior = sums[0, idx + k] + sums[1, k - idx]

    boundary = _dirichlet_boundary(problem, grid, h * idx)
    rhs = np.asarray(problem.forcing(h * idx), dtype=float) + exterior + boundary
    return DiscreteSystem(
        operator=StructuredOperator(_core_column(weights, idx.size)),
        rhs=rhs,
        variant="dirichlet",
        grid=grid,
        kernel=problem.kernel,
        weights=weights,
        indices=idx,
        exterior_data=g,
    )


def assemble_realline(
    problem: RealLineProblem,
    grid: Grid,
    weights: WeightSet | None = None,
    *,
    variant: str = "realline",
) -> DiscreteSystem:
    if weights is None:
        weights = compute_weights(problem.kernel, grid)
    m = grid.steps
    k = m // 2
    h = grid.spacing
    idx = np.arange(-k, k + 1)

    # decay profile at x = h*(k + t), t in [0, m], strictly beyond the edge
    # node (an unknown itself); node i sees entry i + k of the convolution
    # on the right and, the profile being even, entry k - i on the left
    prof = np.zeros(m + 1)
    prof[1:] = problem.decay.profile(h * np.arange(k + 1, k + m + 1), grid.half_width)
    sums = convolve(weights.weights, prof)[: m + 1]

    # b2 is b1 reversed, so the second column is this one reversed
    b1, _ = realline_boundary_terms(problem.kernel, grid, problem.decay)

    rhs = np.asarray(problem.forcing(h * idx), dtype=float)
    return DiscreteSystem(
        operator=StructuredOperator(_core_column(weights, idx.size), sums + b1),
        rhs=rhs,
        variant=variant,
        grid=grid,
        kernel=problem.kernel,
        weights=weights,
        indices=idx,
        decay=problem.decay,
    )


def neumann_to_realline(problem: NeumannProblem) -> RealLineProblem:
    """Close the flux problem: the forcing takes the exterior branch on the
    closed region |x| >= split_radius and the interior branch inside."""
    split = problem.split_radius
    interior = problem.forcing
    exterior = problem.exterior_forcing

    def closed_forcing(x):
        x = np.asarray(x, dtype=float)
        inside = np.abs(x) < split
        ext_arg = np.where(inside, split, x)
        int_arg = np.where(inside, x, 0.0)
        return np.where(
            inside,
            np.asarray(interior(int_arg), dtype=float),
            np.asarray(exterior(ext_arg), dtype=float),
        )

    return RealLineProblem(kernel=problem.kernel, forcing=closed_forcing, decay=problem.decay)


def assemble(problem: AnyProblem, grid: Grid, weights: WeightSet | None = None) -> DiscreteSystem:
    if isinstance(problem, DirichletProblem):
        return assemble_dirichlet(problem, grid, weights)
    if isinstance(problem, RealLineProblem):
        return assemble_realline(problem, grid, weights)
    if isinstance(problem, NeumannProblem):
        if not problem.split_radius < grid.half_width:
            raise ValueError(
                "neumann split radius %.6g must lie strictly inside the grid half width %.6g"
                % (problem.split_radius, grid.half_width)
            )
        return assemble_realline(neumann_to_realline(problem), grid, weights, variant="neumann")
    raise TypeError("unknown problem type %r" % type(problem).__name__)
