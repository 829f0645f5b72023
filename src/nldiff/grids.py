"""Uniform grids and the quadrature weights of the discrete operator.

The order two discretization replaces the convolution integral by hat
function quadrature away from the origin plus a second moment correction for
the cut cell |y| < h.  With F the decaying second antiderivative of the
kernel (F'' = nu), every weight has a closed expression in F and F' at the
nodes; kernels without closed antiderivatives get numerically accumulated
F values instead (per cell integrals plus suffix sums, so the whole table
still costs O(M) integrand work rather than O(M^2)).

Weight layout: index j runs over [-M, M] with w_0 = 0 and w_{-j} = w_j; the
array is stored in full, offset by M.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import Kernel, _weighted_decay, moment_f, tail_mass
from .quadrature import adaptive_quad

__all__ = ["Grid", "WeightSet", "build_grid", "hat_tail_integral", "compute_weights"]


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
        if abs(j) > self.steps:
            raise ValueError("node index %d outside [-%d, %d]" % (j, self.steps, self.steps))
        return j * self.spacing


def build_grid(half_width: float, steps: int) -> Grid:
    return Grid(float(half_width), int(steps))


@dataclass(frozen=True)
class WeightSet:
    grid: Grid
    weights: np.ndarray
    total: float
    tail_mass: float

    def weight(self, j: int) -> float:
        if abs(j) > self.grid.steps:
            raise ValueError("weight index %d outside grid" % j)
        return float(self.weights[j + self.grid.steps])


def hat_tail_integral(kernel: Kernel, grid: Grid, j: int) -> float:
    """Integral of the hat at node j against the kernel, restricted to |y| >= h.

    For 1 < |j| < M this is the full hat support [x_{j-1}, x_{j+1}]; at
    |j| = 1 only the outward half [x_1, x_2] (the inward half is replaced by
    the moment rule); at |j| = M only the inward half [x_{M-1}, x_M].
    """
    m = grid.steps
    k = abs(j)
    if k < 1 or k > m:
        raise ValueError("hat index must satisfy 1 <= |j| <= M")
    h = grid.spacing
    x = h * np.arange(0, m + 1)

    second = kernel.antiderivative_second
    first = kernel.antiderivative_first
    if second is not None and first is not None:
        if k == 1:
            return float((second(x[2]) - second(x[1])) / h - first(x[1]))
        if k == m:
            return float(first(x[m]) + (second(x[m - 1]) - second(x[m])) / h)
        return float((second(x[k + 1]) - 2.0 * second(x[k]) + second(x[k - 1])) / h)

    center = x[k]
    if k == 1:
        lo, hi = x[1], x[2]
    elif k == m:
        lo, hi = x[m - 1], x[m]
    else:
        lo, hi = x[k - 1], x[k + 1]

    def integrand(y):
        hat = 1.0 - np.abs(y - center) / h
        return np.clip(hat, 0.0, None) * kernel.evaluate(y)

    breaks = (center,) if lo < center < hi else ()
    return adaptive_quad(integrand, lo, hi, 0.0, rel=1e-13, breakpoints=breaks).value


def _numeric_node_antiderivatives(kernel: Kernel, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    # F and F' at the nodes 0..M from per-cell integrals and certified tails.
    m = grid.steps
    x = grid.spacing * np.arange(0, m + 1)
    cell0 = np.empty(m)
    cell1 = np.empty(m)
    for c in range(m):
        cell0[c] = adaptive_quad(kernel.evaluate, x[c], x[c + 1], 0.0, rel=1e-13).value
        cell1[c] = adaptive_quad(
            lambda y: y * kernel.evaluate(y), x[c], x[c + 1], 0.0, rel=1e-13
        ).value
    cert = kernel.decay()
    cert1 = _weighted_decay(kernel, 1)
    # tolerances ride the certified tail size so the far tails keep relative
    # accuracy instead of drowning in a fixed absolute budget
    tol0 = max(1e-13 * cert.tail_bound(x[m]), 1e-300)
    tol1 = max(1e-13 * cert1.tail_bound(x[m]), 1e-300)
    tail0 = adaptive_quad(
        kernel.evaluate, x[m], math.inf, tol0, rel=1e-13, decay=cert,
        breakpoints=kernel.sign_changes,
    ).value
    tail1 = adaptive_quad(
        lambda y: y * kernel.evaluate(y), x[m], math.inf, tol1, rel=1e-13,
        decay=cert1, breakpoints=kernel.sign_changes,
    ).value
    suffix0 = np.concatenate([np.cumsum(cell0[::-1])[::-1] + tail0, [tail0]])
    suffix1 = np.concatenate([np.cumsum(cell1[::-1])[::-1] + tail1, [tail1]])
    f_nodes = suffix1 - x * suffix0
    fp_nodes = -suffix0
    return f_nodes, fp_nodes


def compute_weights(kernel: Kernel, grid: Grid, method: str = "auto") -> WeightSet:
    """Weight table for the discrete operator on the given grid.

    method "closed" insists on the kernel's antiderivatives, "quadrature"
    rebuilds the node antiderivatives numerically (useful as an independent
    route even when closed forms exist), and "auto" picks closed when
    available.
    """
    if method not in ("auto", "closed", "quadrature"):
        raise ValueError("unknown weight method %r" % method)
    m = grid.steps
    h = grid.spacing
    have_closed = (
        kernel.antiderivative_first is not None and kernel.antiderivative_second is not None
    )
    if method == "closed" and not have_closed:
        raise ValueError("kernel lacks closed antiderivatives")
    use_closed = have_closed if method == "auto" else method == "closed"

    x = h * np.arange(0, m + 1)
    if use_closed:
        f_nodes = np.asarray(kernel.antiderivative_second(x), dtype=float)
        fp_nodes = np.asarray(kernel.antiderivative_first(x), dtype=float)
        f1 = moment_f(kernel, h, 1)
    else:
        f_nodes, fp_nodes = _numeric_node_antiderivatives(kernel, grid)
        f1 = (
            adaptive_quad(lambda y: y * y * kernel.evaluate(y), 0.0, h, 0.0, rel=1e-13).value
            / (h * h)
        )

    right = np.zeros(m + 1)
    right[1] = f1 + (f_nodes[2] - f_nodes[1]) / h - fp_nodes[1]
    right[2:m] = (f_nodes[3 : m + 1] - 2.0 * f_nodes[2:m] + f_nodes[1 : m - 1]) / h
    right[m] = fp_nodes[m] + (f_nodes[m - 1] - f_nodes[m]) / h

    weights = np.concatenate([right[:0:-1], right])
    return WeightSet(
        grid=grid,
        weights=weights,
        total=float(weights.sum()),
        tail_mass=tail_mass(kernel, grid.weight_radius),
    )
