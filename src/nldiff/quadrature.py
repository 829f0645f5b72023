"""Adaptive panel quadrature with certified treatment of infinite tails.

The integrator drives a pair of Gauss rules (7 and 15 points) on a worklist
of panels.  Each round evaluates every active panel in one vectorized call,
freezes panels whose two-rule disagreement is already below their share of
the error budget, and bisects the rest.  The two-rule gap is a conservative
error estimate for the 15 point value, so the reported estimate is an upper
bound in practice.

Infinite endpoints are only accepted together with a decay certificate.  The
certificate turns the improper integral into a finite one plus a rigorously
bounded remainder; the remainder is charged to the error estimate, never to
the value.

Integrands must be vectorized: they are called with a 1-d float array and
must return an array of the same shape.

`versine_transform` integrates one integrand against 1 - cos(j pi x / R) for
every mode j at once.  It uses the same 15 point rule on equal panels and
sums every mode with one FFT per Gauss node.  Its error estimate compares P
with 2P panels, where `adaptive_quad` compares its 7 and 15 point rules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "QuadratureResult",
    "QuadratureError",
    "DecayCertificate",
    "PowerDecayCertificate",
    "adaptive_quad",
    "versine_transform",
]

_T15, _W15 = np.polynomial.legendre.leggauss(15)
_T7, _W7 = np.polynomial.legendre.leggauss(7)

_EPS = float(np.finfo(float).eps)
# absorbs the rounding of the peak computations in the certificate algebra
_SAFETY = 1.0000001
# versine_transform doubles its panel count up to this many panels; it keeps
# O(panels) memory, some tens of MB at the cap
_VERSINE_PANEL_CAP = 1 << 20


@dataclass(frozen=True)
class QuadratureResult:
    # a float, or one value per mode from versine_transform
    value: float | np.ndarray
    abs_error_estimate: float
    evaluations: int
    converged: bool = True


class QuadratureError(RuntimeError):
    """Raised when the panel budget is exhausted before convergence.

    The best available estimate is attached as ``result`` so callers can
    still inspect how far the integrator got.
    """

    def __init__(self, message: str, result: QuadratureResult):
        super().__init__(message)
        self.result = result


@dataclass(frozen=True)
class DecayCertificate:
    """Guarantee that |f(y)| <= constant * exp(-rate * |y|).

    The bound must hold from the truncation region outward; rate and
    constant must both be positive.
    """

    rate: float
    constant: float

    def __post_init__(self) -> None:
        if not (self.rate > 0 and self.constant > 0):
            raise ValueError("decay certificate needs positive rate and constant")

    def tail_bound(self, start: float) -> float:
        start = max(start, 0.0)
        return self.constant * math.exp(-self.rate * start) / self.rate

    def truncation_point(self, budget: float) -> float:
        ratio = self.constant / (self.rate * budget)
        return max(0.0, math.log(max(ratio, 1.0)) / self.rate)

    def times_power(self, degree: float, offset: float = 0.0) -> "DecayCertificate":
        """Certificate for (offset + |y|) ** degree * f(y), with offset >= 0.

        degree 0 returns the certificate unchanged.  A decreasing factor
        (degree < 0, offset > 0) is bounded by offset ** degree and keeps the
        rate; a growing one halves the rate and absorbs
        max over t >= 0 of (offset + t) ** degree * exp(-rate t / 2) into the
        constant.
        """
        if degree == 0:
            return self
        if degree < 0:
            return DecayCertificate(self.rate, self.constant * offset ** degree * _SAFETY)
        rate = self.rate / 2.0
        peak_at = max(0.0, degree / rate - offset)
        peak = (offset + peak_at) ** degree * math.exp(-rate * peak_at)
        return DecayCertificate(rate, self.constant * peak * _SAFETY)


@dataclass(frozen=True)
class PowerDecayCertificate:
    """Guarantee that |f(y)| <= constant * |y| ** -degree for |y| >= 1.

    degree must exceed 1 so the tail is integrable.
    """

    degree: float
    constant: float

    def __post_init__(self) -> None:
        if not (self.degree > 1 and self.constant > 0):
            raise ValueError("power decay certificate needs degree > 1 and constant > 0")

    def tail_bound(self, start: float) -> float:
        start = max(start, 1.0)
        return self.constant * start ** (1.0 - self.degree) / (self.degree - 1.0)

    def truncation_point(self, budget: float) -> float:
        ratio = self.constant / ((self.degree - 1.0) * budget)
        return max(1.0, ratio ** (1.0 / (self.degree - 1.0)))

    def times_power(self, degree: float) -> "PowerDecayCertificate":
        """Certificate for |y| ** degree * f(y); raises ValueError when the
        product's tail is no longer integrable (remaining degree <= 1)."""
        return PowerDecayCertificate(self.degree - degree, self.constant)


def _panel_values(
    f: Callable[[np.ndarray], np.ndarray], lo: np.ndarray, hi: np.ndarray
) -> tuple[np.ndarray, np.ndarray, int]:
    mid = 0.5 * (lo + hi)[:, None]
    rad = 0.5 * (hi - lo)[:, None]
    pts = np.concatenate([mid + rad * _T15, mid + rad * _T7], axis=1)
    vals = np.asarray(f(pts.ravel()), dtype=float).reshape(pts.shape)
    coarse = (vals[:, 15:] @ _W7) * rad[:, 0]
    fine = (vals[:, :15] @ _W15) * rad[:, 0]
    return fine, np.abs(fine - coarse), pts.size


def adaptive_quad(
    f: Callable[[np.ndarray], np.ndarray],
    lower: float,
    upper: float,
    tol: float,
    *,
    rel: float = 0.0,
    decay: DecayCertificate | PowerDecayCertificate | None = None,
    breakpoints: Sequence[float] = (),
    max_rounds: int = 64,
    panel_cap: int = 1 << 17,
) -> QuadratureResult:
    """Integrate ``f`` over [lower, upper] to absolute tolerance ``tol``.

    Either endpoint may be infinite, in which case ``decay`` is required and
    the certified remainder beyond the truncation point is added to the
    error estimate.  ``breakpoints`` seeds panel edges at known kinks or
    oscillation nodes.  ``rel`` adds a relative convergence criterion on top
    of the absolute one; the integrator also stops once the two-rule gap
    falls to the rounding floor of the accumulated values, so ``tol=0``
    means "as accurate as float64 allows".

    Raises QuadratureError (carrying the best estimate) if the panel budget
    runs out first.
    """
    if tol < 0 or rel < 0:
        raise ValueError("tolerances must be nonnegative")

    tail_err = 0.0
    lo_f, hi_f = float(lower), float(upper)
    budget = (tol if tol > 0.0 else 1e-15) / 10.0
    truncated: list[float] = []
    if math.isinf(hi_f):
        if hi_f < 0:
            raise ValueError("upper endpoint is -inf")
        if decay is None:
            raise ValueError("infinite upper endpoint requires a decay certificate")
        hi_f = decay.truncation_point(budget)
        tail_err += decay.tail_bound(hi_f)
        truncated.append(1.0)
    if math.isinf(lo_f):
        if lo_f > 0:
            raise ValueError("lower endpoint is +inf")
        if decay is None:
            raise ValueError("infinite lower endpoint requires a decay certificate")
        lo_f = -decay.truncation_point(budget)
        tail_err += decay.tail_bound(-lo_f)
        truncated.append(-1.0)
    if not (lo_f < hi_f):
        if lo_f == hi_f:
            return QuadratureResult(0.0, tail_err, 0)
        raise ValueError("lower endpoint must not exceed upper endpoint")

    # a truncation point usually sits far outside the integrand's own scale,
    # and a single panel spanning it can hide all of the mass between two
    # rule nodes; a geometric edge ladder pins the first panels to O(1) size
    # so the refinement loop has something real to bisect
    seeded: set[float] = set()
    for direction in truncated:
        anchor = max(lo_f, 0.0) if direction > 0 else min(hi_f, 0.0)
        if lo_f < 0.0 < hi_f:
            seeded.add(0.0)
        step = max(abs(anchor), 1.0)
        edge = anchor + direction * step
        while lo_f < edge < hi_f:
            seeded.add(edge)
            step *= 2.0
            edge = anchor + direction * step

    edges = [lo_f]
    for p in sorted(set(float(b) for b in breakpoints) | seeded):
        if lo_f < p < hi_f:
            edges.append(p)
    edges.append(hi_f)
    lo = np.asarray(edges[:-1], dtype=float)
    hi = np.asarray(edges[1:], dtype=float)

    frozen_value = 0.0
    frozen_error = tail_err
    frozen_l1 = 0.0
    frozen_count = 0
    evaluations = 0

    for _ in range(max_rounds):
        fine, gap, used = _panel_values(f, lo, hi)
        evaluations += used

        value = frozen_value + float(fine.sum())
        error = frozen_error + float(gap.sum())
        l1 = frozen_l1 + float(np.abs(fine).sum())
        goal = max(tol, rel * abs(value), 64.0 * _EPS * l1)
        if error <= goal:
            return QuadratureResult(value, error, evaluations)

        share = goal / (2.0 * (lo.size + frozen_count + 1))
        settled = gap <= share
        frozen_value += float(fine[settled].sum())
        frozen_error += float(gap[settled].sum())
        frozen_l1 += float(np.abs(fine[settled]).sum())
        frozen_count += int(settled.sum())

        lo, hi = lo[~settled], hi[~settled]
        mid = 0.5 * (lo + hi)
        lo = np.concatenate([lo, mid])
        hi = np.concatenate([mid, hi])
        if lo.size > panel_cap:
            break

    fine, gap, used = _panel_values(f, lo, hi)
    evaluations += used
    best = QuadratureResult(
        frozen_value + float(fine.sum()),
        frozen_error + float(gap.sum()),
        evaluations,
        converged=False,
    )
    raise QuadratureError(
        "quadrature did not reach tol=%.3g (best estimate %.3g +- %.3g)"
        % (tol, best.value, best.abs_error_estimate),
        best,
    )


def _versine_panels(
    f: Callable[[np.ndarray], np.ndarray], radius: float, modes: int, panels: int
) -> np.ndarray:
    """The versine table on ``panels`` equal panels of [0, radius].

    With a_pk = f(x_pk) times its Gauss weight at node k of panel p, and
    x_pk = (p + u_k) radius / P, the cosine sum over p is
    Re(conj(F_jk) exp(i pi j u_k / P)), F_k the length 2P DFT of a_.k.
    """
    width = radius / panels
    offsets = 0.5 * (1.0 + _T15)
    ramp = np.arange(panels)
    modes_phase = (math.pi / panels) * np.arange(modes + 1)
    plain = 0.0
    cosine = np.zeros(modes + 1)
    for offset, weight in zip(offsets, _W15):
        a = (0.5 * width * weight) * np.asarray(f(width * (ramp + offset)), dtype=float)
        spectrum = np.fft.rfft(a, 2 * panels)[: modes + 1]
        phase = offset * modes_phase
        cosine += spectrum.real * np.cos(phase) + spectrum.imag * np.sin(phase)
        plain += float(a.sum())
    table = plain - cosine
    table[0] = 0.0
    return table


def versine_transform(
    f: Callable[[np.ndarray], np.ndarray], radius: float, modes: int, tol: float
) -> QuadratureResult:
    """Integrals of f(x) (1 - cos(j pi x / radius)) over [0, radius], j = 0..modes.

    Entry 0 is exactly 0.  The first table lays P = modes equal panels, so a
    kink of f at a multiple of radius / modes sits on a panel edge; f is
    evaluated once at the 15 Gauss nodes of every panel.  P doubles until
    the tables on P and 2P panels agree to ``tol`` in every entry; the 2P
    table is returned with that worst gap as its error estimate.  Raises
    QuadratureError, carrying the last table, once 2P would pass the panel
    cap.  f must be smooth between the edges of the first panels: a kink
    between two edges converges slowly and can make two resolutions agree
    by accident.
    """
    if not (radius > 0.0 and modes >= 1):
        raise ValueError("versine transform needs radius > 0 and modes >= 1")
    panels = modes
    table = _versine_panels(f, radius, modes, panels)
    evaluations = 15 * panels
    gap = math.inf
    while 2 * panels <= _VERSINE_PANEL_CAP:
        panels *= 2
        fine = _versine_panels(f, radius, modes, panels)
        evaluations += 15 * panels
        gap = float(np.abs(fine - table).max())
        table = fine
        if gap <= tol:
            return QuadratureResult(table, gap, evaluations)
        if not math.isfinite(gap):
            break
    best = QuadratureResult(table, gap, evaluations, converged=False)
    raise QuadratureError(
        "versine transform did not reach tol=%.3g within %d panels (worst gap %.3g)"
        % (tol, panels, gap),
        best,
    )
