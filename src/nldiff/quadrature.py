"""Adaptive panel quadrature with certified treatment of infinite tails.

`adaptive_quad_many` computes K integrals from one worklist of panels, each
panel tagged with the integral it belongs to.  Each round evaluates a pair
of Gauss rules (7 and 15 points) on every active panel with vectorized
integrand calls, freezes panels whose two-rule disagreement is already
below their integral's share of its error budget, and bisects the rest; an
integral leaves the worklist as soon as it converges.  Per-integral sums
are bincounts over the owner tags, so every integral meets exactly the
rules it would meet alone and does exactly the evaluations it would do
alone.  `adaptive_quad` is its one-integral case, so there is one
refinement loop.  The two-rule gap is a conservative error estimate for
the 15 point value, so the reported estimate is an upper bound in
practice.

Infinite endpoints are only accepted together with a decay certificate.  The
certificate turns the improper integral into a finite one plus a rigorously
bounded remainder; the remainder is charged to the error estimate, never to
the value.  In a batch every integral has its own truncation point, from its
own tolerance and certificate.

Integrands must be vectorized: they are called with a 1-d float array (and,
for `adaptive_quad_many`, the owner index of each point) and must return an
array of the same shape.

`versine_transform` integrates one integrand against 1 - cos(j pi x / R) for
every mode j at once.  It uses the same 15 point rule on equal panels and
sums every mode with one batched FFT over the 15 Gauss nodes, after one
integrand call on all of them.  Its error estimate compares P
with 2P panels, where `adaptive_quad` compares its 7 and 15 point rules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

__all__ = [
    "QuadratureResult",
    "QuadratureError",
    "DecayCertificate",
    "PowerDecayCertificate",
    "adaptive_quad",
    "adaptive_quad_many",
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
    # a float from adaptive_quad, one value per integral from
    # adaptive_quad_many, or one value per mode from versine_transform
    value: float | np.ndarray
    # per integral from adaptive_quad_many; the worst gap of versine_transform
    abs_error_estimate: float | np.ndarray
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
    constant must both be positive and finite.
    """

    rate: float
    constant: float

    def __post_init__(self) -> None:
        if not (0 < self.rate < math.inf and 0 < self.constant < math.inf):
            raise ValueError("decay certificate needs a positive finite rate and constant")

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

    degree must exceed 1 so the tail is integrable; degree and constant
    must be finite.
    """

    degree: float
    constant: float

    def __post_init__(self) -> None:
        if not (1 < self.degree < math.inf and 0 < self.constant < math.inf):
            raise ValueError("power decay certificate needs finite degree > 1 and constant > 0")

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


Certificate = Union[DecayCertificate, PowerDecayCertificate]


# integrand points per panel: the 15 point rule, then the 7 point rule
_NODES = np.concatenate([_T15, _T7])
_POINTS = _NODES.size
# a round's panels go to the integrand in slices of at most this many, so
# its temporaries stay near 180 KB each however many integrals share the
# worklist; one call per round would scale them with the batch
_SLICE_PANELS = 1024


def _panel_values(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    lo: np.ndarray,
    hi: np.ndarray,
    owner: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    fine = np.empty(lo.size)
    gap = np.empty(lo.size)
    for start in range(0, lo.size, _SLICE_PANELS):
        part = slice(start, start + _SLICE_PANELS)
        mid = 0.5 * (lo[part] + hi[part])[:, None]
        rad = 0.5 * (hi[part] - lo[part])[:, None]
        pts = mid + rad * _NODES
        vals = np.asarray(f(pts.ravel(), owner[part].repeat(_POINTS)), dtype=float)
        vals = vals.reshape(pts.shape)
        fine[part] = (vals[:, :15] @ _W15) * rad[:, 0]
        gap[part] = np.abs(fine[part] - (vals[:, 15:] @ _W7) * rad[:, 0])
    return fine, gap


def _ladder(
    direction: float, lo: np.ndarray, hi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Edges anchor + direction * max(|anchor|, 1) * 2**t strictly inside
    (lo, hi), as (positions, row index); the ladder climbs from
    max(lo, 0) (direction 1) or descends from min(hi, 0) (direction -1)."""
    anchor = np.maximum(lo, 0.0) if direction > 0 else np.minimum(hi, 0.0)
    step = np.maximum(np.abs(anchor), 1.0)
    rungs = int(np.log2(max(float(((hi - lo) / step).max()), 1.0))) + 2
    edges = anchor[:, None] + direction * (step[:, None] * 2.0 ** np.arange(rungs))
    inside = (lo[:, None] < edges) & (edges < hi[:, None])
    return edges[inside], inside.nonzero()[0]


def _initial_panels(
    lo: np.ndarray,
    hi: np.ndarray,
    upper_cut: np.ndarray,
    lower_cut: np.ndarray,
    breakpoints: Sequence[float],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The first panels of every integral, grouped by owner in ascending order.

    Edges are the endpoints, the breakpoints strictly inside, and from each
    truncated side a geometric ladder: a truncation point usually sits far
    outside the integrand's own scale, and a single panel spanning it can
    hide all of the mass between two rule nodes, so the ladder pins the
    first panels to O(1) size and the refinement has something real to
    bisect.  A truncated integral across 0 also gets an edge at 0.
    """
    owners = np.arange(lo.size)
    pos, own = [lo, hi], [owners, owners]
    if len(breakpoints):
        bp = np.sort(np.asarray(breakpoints, dtype=float))
        # breakpoints strictly inside (lo_i, hi_i) are bp[first_i : first_i + inner_i]
        first = np.searchsorted(bp, lo, side="right")
        inner = np.maximum(np.searchsorted(bp, hi, side="left") - first, 0)
        bp_owner = owners.repeat(inner)
        starts = inner.cumsum() - inner
        pos.append(bp[first[bp_owner] + np.arange(bp_owner.size) - starts[bp_owner]])
        own.append(bp_owner)
    for cut, direction in ((upper_cut, 1.0), (lower_cut, -1.0)):
        if cut.any():
            rows = cut.nonzero()[0]
            edges, row = _ladder(direction, lo[rows], hi[rows])
            pos.append(edges)
            own.append(rows[row])
    if len(pos) == 2:
        # the endpoints alone: one panel per nonempty interval
        keep = lo < hi
        return lo[keep], hi[keep], owners[keep]

    zero = ((upper_cut | lower_cut) & (lo < 0.0) & (hi > 0.0)).nonzero()[0]
    pos = np.concatenate(pos + [np.zeros(zero.size)])
    own = np.concatenate(own + [zero])
    order = np.lexsort((pos, own))
    pos, own = pos[order], own[order]
    fresh = np.ones(pos.size, dtype=bool)
    fresh[1:] = (own[1:] != own[:-1]) | (pos[1:] != pos[:-1])
    pos, own = pos[fresh], own[fresh]
    same = own[1:] == own[:-1]
    return pos[:-1][same], pos[1:][same], own[:-1][same]


def adaptive_quad_many(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    lower: Sequence[float] | np.ndarray,
    upper: Sequence[float] | np.ndarray,
    tol: float | Sequence[float] | np.ndarray,
    *,
    rel: float = 0.0,
    decay: Certificate | Sequence[Certificate | None] | None = None,
    breakpoints: Sequence[float] = (),
    max_rounds: int = 64,
    panel_cap: int = 1 << 17,
) -> QuadratureResult:
    """Integrate ``f`` over K intervals [lower_i, upper_i] from one worklist.

    The panels of all integrals share one worklist, each tagged with the
    index of its integral.  Each round evaluates the 22 rule points of every
    active panel by calls ``f(y, owner)``, one per slice of at most
    _SLICE_PANELS panels, ``owner[p]`` being the integral that point
    ``y[p]`` belongs to.  Every integral follows the rules of
    `adaptive_quad` on its own: its own goal max(tol_i, rel |value_i|,
    64 eps l1_i), its own per-panel share of it, its own truncation point
    and certified tail from its own certificate, its own edge ladder, its
    own panel cap and round count.  ``tol`` and ``decay`` are one value for
    all integrals or one per integral; ``breakpoints`` are shared and seed
    edges inside every interval that contains them.  An integral leaves the
    worklist once it converges, so each does exactly the evaluations it
    would do alone.

    Returns value and abs_error_estimate as arrays of K entries and the
    total evaluation count.  Raises QuadratureError once any integral runs
    out of rounds or panels, after the others finished; it carries every
    best estimate, converged or not.
    """
    lower = np.array(lower, dtype=float)
    if lower.ndim != 1:
        raise ValueError("adaptive_quad_many needs a one-dimensional array of lower endpoints")
    upper = np.full(lower.shape, upper, dtype=float)
    tol = np.full(lower.shape, tol, dtype=float)
    if (tol < 0).any() or rel < 0:
        raise ValueError("tolerances must be nonnegative")
    if (upper == -math.inf).any():
        raise ValueError("upper endpoint is -inf")
    if (lower == math.inf).any():
        raise ValueError("lower endpoint is +inf")
    count = lower.size
    single = decay is None or hasattr(decay, "truncation_point")
    if not single and len(decay) != count:
        raise ValueError(
            "need one decay certificate per integral, got %d for %d" % (len(decay), count)
        )

    upper_cut, lower_cut = np.isinf(upper), np.isinf(lower)
    tail = np.zeros(count)
    truncations: dict = {}
    for i in (upper_cut | lower_cut).nonzero()[0]:
        cert = decay if single else decay[i]
        if cert is None:
            raise ValueError("an infinite endpoint requires a decay certificate")
        budget = (tol[i] if tol[i] > 0.0 else 1e-15) / 10.0
        key = (cert, budget)
        if key not in truncations:
            point = cert.truncation_point(budget)
            truncations[key] = (point, cert.tail_bound(point))
        point, bound = truncations[key]
        # a truncation point beyond the finite endpoint leaves an empty
        # interval, whose error is the certified tail from that endpoint
        if upper_cut[i]:
            upper[i] = max(point, lower[i])
            tail[i] += bound if upper[i] == point else cert.tail_bound(upper[i])
        if lower_cut[i]:
            lower[i] = min(-point, upper[i])
            tail[i] += bound if lower[i] == -point else cert.tail_bound(-lower[i])
    if not (lower <= upper).all():
        raise ValueError("lower endpoint must not exceed upper endpoint")

    lo, hi, owner = _initial_panels(lower, upper, upper_cut, lower_cut, breakpoints)
    # running sums of the panels each integral has frozen; an empty interval
    # is finished before the first round with value 0 and its tail as error
    frozen_value = np.zeros(count)
    frozen_error = tail.copy()
    frozen_l1 = np.zeros(count)
    frozen_count = np.zeros(count, dtype=int)
    evaluations = 0
    value = np.zeros(count)
    error = tail.copy()
    live = lower < upper
    converged = np.ones(count, dtype=bool)
    # an exhausted integral gets one last evaluation for its best estimate
    exhausted = live & (max_rounds <= 0)

    panels = np.bincount(owner, minlength=count)
    for round_ in range(max(max_rounds, 0) + 1):
        fine, gap = _panel_values(f, lo, hi, owner)
        evaluations += _POINTS * lo.size
        size = np.abs(fine)
        total = frozen_value + np.bincount(owner, fine, count)
        spread = frozen_error + np.bincount(owner, gap, count)
        l1 = frozen_l1 + np.bincount(owner, size, count)
        goal = np.maximum(np.maximum(tol, rel * np.abs(total)), 64.0 * _EPS * l1)

        done = live & (exhausted | (spread <= goal))
        np.copyto(value, total, where=done)
        np.copyto(error, spread, where=done)
        converged &= ~(done & exhausted)
        live &= ~done
        if not live.any():
            break

        share = goal / (2.0 * (panels + frozen_count + 1))
        refining = live[owner]
        settled = refining & (gap <= share[owner])
        held = owner[settled]
        frozen_value += np.bincount(held, fine[settled], count)
        frozen_error += np.bincount(held, gap[settled], count)
        frozen_l1 += np.bincount(held, size[settled], count)
        frozen_count += np.bincount(held, minlength=count)

        split = refining & ~settled
        lo, hi, owner = lo[split], hi[split], owner[split]
        mid = 0.5 * (lo + hi)
        lo = np.concatenate([lo, mid])
        hi = np.concatenate([mid, hi])
        owner = np.concatenate([owner, owner])
        panels = np.bincount(owner, minlength=count)
        exhausted |= live & (panels > panel_cap)
        if round_ + 1 >= max_rounds:
            exhausted |= live

    result = QuadratureResult(value, error, evaluations, bool(converged.all()))
    if not result.converged:
        failed = np.flatnonzero(~converged)
        worst = failed[np.argmax(error[failed])]
        raise QuadratureError(
            "quadrature did not reach tol=%.3g on %d of %d integrals (integral %d: "
            "best estimate %.3g +- %.3g)"
            % (tol[worst], failed.size, count, worst, value[worst], error[worst]),
            result,
        )
    return result


def _first(batch: QuadratureResult) -> QuadratureResult:
    return QuadratureResult(
        float(batch.value[0]),
        float(batch.abs_error_estimate[0]),
        batch.evaluations,
        batch.converged,
    )


def adaptive_quad(
    f: Callable[[np.ndarray], np.ndarray],
    lower: float,
    upper: float,
    tol: float,
    *,
    rel: float = 0.0,
    decay: Certificate | None = None,
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
    means "as accurate as float64 allows".  This is the one-integral case of
    `adaptive_quad_many`.

    Raises QuadratureError (carrying the best estimate) if the panel budget
    runs out first.
    """
    try:
        batch = adaptive_quad_many(
            lambda y, owner: f(y),
            [lower],
            [upper],
            tol,
            rel=rel,
            decay=decay,
            breakpoints=breakpoints,
            max_rounds=max_rounds,
            panel_cap=panel_cap,
        )
    except QuadratureError as exc:
        raise QuadratureError(str(exc), _first(exc.result)) from None
    return _first(batch)


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
    # one integrand call and one batched rfft over all 15 Gauss offsets
    nodes = width * (np.arange(panels) + offsets[:, None])
    values = np.asarray(f(nodes.ravel()), dtype=float).reshape(nodes.shape)
    a = (0.5 * width * _W15)[:, None] * values
    spectrum = np.fft.rfft(a, 2 * panels, axis=1)[:, : modes + 1]
    phase = offsets[:, None] * ((math.pi / panels) * np.arange(modes + 1))
    terms = np.cos(phase)
    terms *= spectrum.real
    sine = np.sin(phase)
    sine *= spectrum.imag
    terms += sine
    # both sums add the offsets' contributions one row at a time, in order:
    # an axis-0 sum for the cosine terms, a running sum for the plain ones
    cosine = terms.sum(axis=0)
    plain = 0.0
    for row_sum in a.sum(axis=1).tolist():
        plain += row_sum
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
