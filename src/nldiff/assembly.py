"""Problem descriptions and assembly of the structured discrete systems.

Three problem families share one weight table, which the kernel and the
grid alone fix: every `assemble*` takes (problem, grid) and computes it with
`compute_weights`, so no table built for another grid or kernel can enter.

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

A `DiscreteSystem` is (problem, grid, operator, rhs), nothing copied out of
the problem.  Its operator is a `StructuredOperator`: the symmetric Toeplitz
core given by its first column plus, for the real line and flux closure, two
mirrored boundary columns, stored as the first one (`edge`).  The exterior
sums are one FFT convolution of the weight table with the exterior data or
the decay profile, so assembly costs O(n log n) time and O(n) memory.

The beyond-support integrals take a closed form when the problem or the
kernel carries one.  Otherwise they come from one batch of certified tails
(`quadrature._certified_tails`) under one decay certificate, one integral
per node: the kernel being even, a Dirichlet node's left and right tails
are one integral of g(x - y) + g(x + y) over y >= weight_radius.
`dirichlet_boundary_term` is the one-node case of the Dirichlet routine
that `assemble_dirichlet` runs on every node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Union

import numpy as np

from .grids import Grid, WeightSet, compute_weights
from .kernels import Kernel, _route_kernel
from .operator import StructuredOperator, convolve
from .quadrature import DecayCertificate, GrowthCertificate, _certified_tails

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
    """Exterior model u(x) ~ u(edge) * (edge/|x|)**exponent, exponent > 0 and finite."""

    exponent: float

    def __post_init__(self) -> None:
        if not 0 < self.exponent < math.inf:
            raise ValueError("decay exponent must be positive and finite, got %r" % self.exponent)

    def profile(self, x, edge: float) -> np.ndarray:
        ax = np.maximum(np.abs(np.asarray(x, dtype=float)), edge)
        return (edge / ax) ** self.exponent


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


@dataclass(frozen=True, eq=False)
class DiscreteSystem:
    """N u = rhs for the problem on the grid; the flux closure keeps its
    `NeumannProblem`.  Unknown k sits at node indices[k]: M - 1 unknowns for
    Dirichlet data, M + 1 for the whole line and the flux closure."""

    problem: AnyProblem
    grid: Grid
    operator: StructuredOperator
    rhs: np.ndarray

    @property
    def variant(self) -> str:
        return _VARIANTS[type(self.problem)]

    @property
    def indices(self) -> np.ndarray:
        n = self.operator.size
        return np.arange(n) - n // 2


_VARIANTS = {DirichletProblem: "dirichlet", RealLineProblem: "realline", NeumannProblem: "neumann"}


def _core_column(weights: WeightSet, size: int) -> np.ndarray:
    # first column of the Toeplitz core: total + tail_mass, then -w_1, -w_2, ..
    m = weights.grid.steps
    column = -weights.weights[m : m + size]
    column[0] = weights.total + weights.tail_mass
    return column


def _dirichlet_boundary(problem: DirichletProblem, grid: Grid, x: np.ndarray) -> np.ndarray:
    """B(x) = int_{|y| >= weight_radius} g(x - y) nu(y) dy at every node position
    in x: the problem's closed form, or, nu being even, one certified tail
    int_radius^inf [g(x - y) + g(x + y)] nu(y) dy per node, all in one batch."""
    radius = grid.weight_radius
    if problem.closed_boundary_term is not None:
        return np.asarray(problem.closed_boundary_term(x, radius), dtype=float)
    if problem.exterior_growth is None:
        raise ValueError(
            "dirichlet boundary term needs a closed form or a growth certificate "
            "for the exterior data"
        )
    kernel, growth, g = problem.kernel, problem.exterior_growth, problem.exterior_data
    # |g(x - y) + g(x + y)| nu(y) <= 2 C_g (1 + |x| + y)^degree C_nu e^(-rate y)
    cert = DecayCertificate(kernel.decay_rate, 2.0 * kernel.decay_constant * growth.constant)
    cert = cert.times_power(growth.degree, 1.0 + np.abs(x))

    def integrand(y, owner):
        center = x[owner]
        pair = np.asarray(g(center - y), dtype=float) + np.asarray(g(center + y), dtype=float)
        return pair * kernel.evaluate(y)

    return _certified_tails(integrand, np.full(x.size, radius), cert, 1e-12)


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
    a symmetric kernel B2_i = B1_{-i}.  Both routes integrate the ratio
    (half_width / |x_i + s|)**exponent, so no half_width**exponent is formed
    and a large exponent stays in the floats.  A kernel with closed forms
    (any exponential sum) takes its exp_int exterior moment; anything else
    integrates numerically.  method "closed" insists on the closed moment
    and "quadrature" integrates even when it exists.
    """
    kernel = _route_kernel(kernel, method)
    k = grid.steps // 2
    xi = grid.spacing * np.arange(-k, k + 1)
    radius = grid.weight_radius
    edge = grid.half_width
    q = decay.exponent
    if kernel.terms is not None:
        b1 = kernel.exterior_moment(xi, radius, q, edge)
    else:
        # |x_i + s| >= radius + x_i, so node i's ratio is at most edge / (radius + x_i)
        cert = kernel.decay().times_power(-q, (radius + xi) / edge)
        b1 = _certified_tails(
            lambda s, owner: (edge / np.abs(xi[owner] + s)) ** q * kernel.evaluate(s),
            np.full(xi.size, radius), cert, 1e-12,
        )
    return b1, b1[::-1].copy()


def assemble_dirichlet(problem: DirichletProblem, grid: Grid) -> DiscreteSystem:
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
    operator = StructuredOperator(_core_column(weights, idx.size))
    return DiscreteSystem(problem, grid, operator, rhs)


def assemble_realline(problem: RealLineProblem, grid: Grid) -> DiscreteSystem:
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

    operator = StructuredOperator(_core_column(weights, idx.size), sums + b1)
    rhs = np.asarray(problem.forcing(h * idx), dtype=float)
    return DiscreteSystem(problem, grid, operator, rhs)


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


def assemble(problem: AnyProblem, grid: Grid) -> DiscreteSystem:
    """The discrete system of the problem on the grid, its weight table
    computed from the problem's kernel and the grid."""
    if isinstance(problem, DirichletProblem):
        return assemble_dirichlet(problem, grid)
    if isinstance(problem, RealLineProblem):
        return assemble_realline(problem, grid)
    if isinstance(problem, NeumannProblem):
        if not problem.split_radius < grid.half_width:
            raise ValueError(
                "neumann split radius %.6g must lie strictly inside the grid half width %.6g"
                % (problem.split_radius, grid.half_width)
            )
        return replace(assemble_realline(neumann_to_realline(problem), grid), problem=problem)
    raise TypeError("unknown problem type %r" % type(problem).__name__)
