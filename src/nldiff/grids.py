"""Uniform grids and the quadrature weights of the discrete operator.

The order two discretization replaces the convolution integral by hat
function quadrature away from the origin plus a second moment correction for
the cut cell |y| < h.  Every weight is one hat integral of the kernel, and
one private routine computes them all: with F the decaying second
antiderivative of the kernel (F'' = nu), a hat integral is a second
difference of F at the nodes (with F' at the half hats on the ends), so the
closed route is vectorized over the whole table; a kernel without closed
forms gets every hat from one batched adaptive quadrature
(`adaptive_quad_many`), each hat an integral of its own with its centre as
a breakpoint.

Weight layout: index j runs over [-M, M] with w_0 = 0 and w_{-j} = w_j; the
array is stored in full, offset by M.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import Kernel, _route_kernel, moment_f, tail_mass
from .quadrature import adaptive_quad_many

__all__ = ["Grid", "WeightSet", "build_grid", "compute_weights"]


@dataclass(frozen=True)
class Grid:
    """Nodes j*h for j in [-M, M], covering twice the solution window.

    half_width is the solution window radius (the classical L); steps is M.
    The weight support then reaches weight_radius = M*h = 2*half_width.
    """

    half_width: float
    steps: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.half_width) and self.half_width > 0):
            raise ValueError(
                "grid half_width must be finite and positive, got %r" % self.half_width
            )
        if self.steps < 4:
            raise ValueError("grid needs at least 4 steps, got %d" % self.steps)
        if self.steps % 2:
            raise ValueError("grid step count must be even, got %d" % self.steps)

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / self.steps

    @property
    def weight_radius(self) -> float:
        return self.steps * self.spacing

    def nodes(self) -> np.ndarray:
        return self.spacing * np.arange(-self.steps, self.steps + 1)

    def node(self, j: int) -> float:
        if not isinstance(j, (int, np.integer)):
            raise TypeError("node index must be an integer, got %r" % (j,))
        if abs(j) > self.steps:
            raise ValueError("node index %d outside [-%d, %d]" % (j, self.steps, self.steps))
        return j * self.spacing


def build_grid(half_width: float, steps: int) -> Grid:
    if not float(steps).is_integer():
        raise ValueError("grid step count must be an integer, got %r" % steps)
    return Grid(float(half_width), int(steps))


@dataclass(frozen=True)
class WeightSet:
    grid: Grid
    weights: np.ndarray
    total: float
    tail_mass: float


def _hat_integrals(kernel: Kernel, grid: Grid, cut_cell: float = 0.0) -> np.ndarray:
    """Integrals of the hats at nodes 1..M against the kernel over |y| >= h.

    The hat at node k covers [x_{k-1}, x_{k+1}] for 1 < k < M; at k = 1 only
    its outward half (the moment rule replaces the inward one) and at k = M
    only its inward half.  The closed route evaluates F and F' once at every
    node and takes second differences (F' enters at the two half hats); for
    a kernel without closed forms all hats are integrated in one batch.
    cut_cell, the moment weight of the inward half of the k = 1 hat, is
    added to that entry first.
    """
    m = grid.steps
    h = grid.spacing
    if kernel.terms is not None:
        x = h * np.arange(0, m + 1)
        f_nodes = np.asarray(kernel.antiderivative_second(x), dtype=float)
        fp_nodes = np.asarray(kernel.antiderivative_first(x), dtype=float)
        table = np.empty(m)
        table[0] = cut_cell + (f_nodes[2] - f_nodes[1]) / h - fp_nodes[1]
        table[1 : m - 1] = (f_nodes[3 : m + 1] - 2.0 * f_nodes[2:m] + f_nodes[1 : m - 1]) / h
        table[m - 1] = fp_nodes[m] + (f_nodes[m - 1] - f_nodes[m]) / h
        return table

    k = np.arange(1, m + 1)
    center = h * k
    lo = h * np.where(k == 1, k, k - 1)
    hi = h * np.where(k == m, k, k + 1)

    def integrand(y, owner):
        hat = 1.0 - np.abs(y - center[owner]) / h
        return np.clip(hat, 0.0, None) * kernel.evaluate(y)

    # every hat centre is a breakpoint; each hat keeps only its own, which
    # lies strictly inside its support unless the hat is a half hat
    out = adaptive_quad_many(integrand, lo, hi, 0.0, rel=1e-13, breakpoints=center).value
    out[0] += cut_cell
    return out


def compute_weights(kernel: Kernel, grid: Grid, method: str = "auto") -> WeightSet:
    """Weight table for the discrete operator on the given grid.

    w_j for 1 <= |j| <= M is the integral of the hat at node j against the
    kernel over |y| >= h; w_{+-1} also carries the cut cell's second moment
    weight moment_f(kernel, h, 1).
    method "closed" insists on the kernel's closed forms, "quadrature"
    runs on the kernel stripped of every closed form (an independent route
    even when closed forms exist), and "auto" uses the closed forms the
    kernel carries.
    """
    kernel = _route_kernel(kernel, method)
    m = grid.steps
    right = np.zeros(m + 1)
    right[1:] = _hat_integrals(kernel, grid, moment_f(kernel, grid.spacing, 1))
    weights = np.concatenate([right[:0:-1], right])
    return WeightSet(
        grid=grid,
        weights=weights,
        total=float(weights.sum()),
        tail_mass=tail_mass(kernel, grid.weight_radius),
    )
