"""Adaptive panel quadrature with certified treatment of infinite tails.

`adaptive_quad_many` computes K integrals from one worklist of panels, each
panel tagged with the integral it belongs to.  Each round evaluates a pair
of Gauss rules (7 and 15 points) on every active panel with vectorized
integrand calls, freezes panels whose two-rule disagreement is already
below their integral's share of its error budget, and bisects the rest; an
integral leaves the worklist as soon as it converges.  Per-integral sums
are one bincount over the owner tags, so every integral meets exactly the
rules it would meet alone and does exactly the evaluations it would do
alone.  `adaptive_quad` is its one-integral case, so there is one
refinement loop.  The two-rule gap is a conservative error estimate for
the 15 point value, so the reported estimate is an upper bound in
practice.

Infinite endpoints are only accepted together with a decay certificate, which
turns the improper integral into a finite one plus a rigorously bounded
remainder, charged to the error estimate and never to the value.  A batch
takes one certificate whose fields are floats or arrays with one entry per
integral, so every truncation point and certified tail comes from one numpy
pass.  Every certified tail of the package, boundary term or kernel tail,
runs through `_certified_tails` at a share of its own certified tail.
`times_power` caps a negative degree's offset at e^(690/|degree|), so the
constant never underflows.  `GrowthCertificate` bounds exterior data.

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
    "GrowthCertificate",
    "adaptive_quad",
    "adaptive_quad_many",
    "versine_transform",
]

# Gauss-Legendre nodes and weights on [-1, 1], equal bit for bit to
# numpy.polynomial.legendre.leggauss(15) and (7); written out so that
# importing the package does not import numpy.polynomial
_T15 = np.array([
    -0.9879925180204854, -0.9372733924007058, -0.8482065834104272, -0.7244177313601701,
    -0.5709721726085388, -0.3941513470775634, -0.20119409399743451, 0.0,
    0.20119409399743451, 0.3941513470775634, 0.5709721726085388, 0.7244177313601701,
    0.8482065834104272, 0.9372733924007058, 0.9879925180204854,
])
_W15 = np.array([
    0.030753241996117203, 0.0703660474881084, 0.10715922046717141, 0.13957067792615444,
    0.16626920581699398, 0.1861610000155622, 0.1984314853271116, 0.2025782419255613,
    0.1984314853271116, 0.1861610000155622, 0.16626920581699398, 0.13957067792615444,
    0.10715922046717141, 0.0703660474881084, 0.030753241996117203,
])
_T7 = np.array([
    -0.9491079123427586, -0.7415311855993945, -0.4058451513773972, 0.0,
    0.4058451513773972, 0.7415311855993945, 0.9491079123427586,
])
_W7 = np.array([
    0.12948496616886973, 0.27970539148927687, 0.3818300505051187, 0.4179591836734693,
    0.3818300505051187, 0.27970539148927687, 0.12948496616886973,
])

_EPS = float(np.finfo(float).eps)
# absorbs the rounding of the peak computations in the certificate algebra
_SAFETY = 1.0000001
# the largest log a certificate constant can have before _SAFETY scales it
_LOG_MAX = math.log(float(np.finfo(float).max) / _SAFETY)
# versine_transform doubles its panel count up to this many panels; it keeps
# O(panels) memory, some tens of MB at the cap
_VERSINE_PANEL_CAP = 1 << 20
# adaptive_quad_many's budget per integral: refinement rounds, and live
# panels after a round's bisection
_MAX_ROUNDS = 64
_PANEL_CAP = 1 << 17


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


def _store_fields(cert, need: str, **floors: float) -> None:
    """Store cert's array fields as read-only float copies; ValueError(need)
    unless every entry of every field lies in (floor, inf)."""
    for name, floor in floors.items():
        value = getattr(cert, name)
        if isinstance(value, (np.ndarray, list, tuple)):
            value = np.array(value, dtype=float)
            if value.ndim != 1:
                raise ValueError("certificate %s must be a float or one-dimensional" % name)
            value.flags.writeable = False
            object.__setattr__(cert, name, value)
            if not ((floor < value) & (value < math.inf)).all():
                raise ValueError(need)
        elif not floor < value < math.inf:
            raise ValueError(need)


def _power(base: float | np.ndarray, exponent: float | np.ndarray) -> float | np.ndarray:
    """np.power as each entry's own scalar exponent rounds it: numpy squares,
    roots or inverts for one scalar exponent of 2, 0.5 or -1, not for an array."""
    if not isinstance(exponent, np.ndarray) or exponent.ndim == 0:
        return np.power(base, exponent)
    out = np.empty(np.broadcast(base, exponent).shape)
    for value in set(exponent.tolist()):
        np.power(base, value, out=out, where=exponent == value)
    return out


@dataclass(frozen=True, eq=False)
class DecayCertificate:
    """Guarantee that |f_i(y)| <= constant_i * exp(-rate_i * |y|).

    The bound must hold from the truncation region outward.  rate and
    constant are each a positive finite float, or a read-only array with one
    for each integral of a batch; the methods work entry by entry on scalars
    or arrays.  Certificates compare by identity, since arrays do not.
    """

    rate: float | np.ndarray
    constant: float | np.ndarray

    def __post_init__(self) -> None:
        need = "decay certificate needs a positive finite rate and constant"
        _store_fields(self, need, rate=0.0, constant=0.0)

    def tail_bound(self, start: float | np.ndarray) -> float | np.ndarray:
        return self.constant * np.exp(-self.rate * np.maximum(start, 0.0)) / self.rate

    def truncation_point(self, budget: float | np.ndarray) -> float | np.ndarray:
        ratio = self.constant / (self.rate * budget)
        return np.log(np.maximum(ratio, 1.0)) / self.rate

    def times_power(
        self, degree: float | np.ndarray, offset: float | np.ndarray = 0.0
    ) -> "DecayCertificate":
        """Certificate for (offset + |y|) ** degree * f(y).

        degree and offset are floats or arrays with one entry per integral,
        and entry i is bit for bit the certificate of degree[i] and offset[i]
        alone.  offset must be finite and >= 0, and > 0 where degree < 0.  A
        zero degree keeps the rate and constant (all zero return self), a
        negative one keeps the rate and multiplies by min(offset, e^(690 /
        |degree|)) ** degree, which stays in the normal floats, and a positive
        one halves the rate and absorbs max over t >= 0 of (offset + t) **
        degree * exp(-rate t / 2), or raises ValueError beyond the floats.
        """
        degree, offset = np.asarray(degree, dtype=float), np.asarray(offset, dtype=float)
        valid = np.where(degree < 0, offset > 0.0, offset >= 0.0) & (offset < math.inf)
        if not valid.all():
            bad = [np.broadcast_to(a, valid.shape)[~valid][0] for a in (degree, offset)]
            raise ValueError(
                "times_power of degree %g needs a finite offset >= 0, and > 0 for a "
                "negative degree; got offset %r" % (bad[0], float(bad[1]))
            )
        if not degree.any():
            return self
        up, down = degree > 0, degree < 0
        rate = np.where(up, self.rate / 2.0, self.rate)
        constant = self.constant
        if down.any():
            # an offset beyond the cap only lowers the bound, and the cap
            # keeps offset ** degree >= e^-690, in the normal floats; a
            # subnormal degree overflows the quotient to inf, capped at 700
            with np.errstate(divide="ignore", over="ignore"):
                cap = np.exp(np.minimum(690.0 / -degree, 700.0))
            power = _power(np.minimum(offset, cap), np.minimum(degree, 0.0))
            constant = np.where(down, constant * power * _SAFETY, constant)
        if up.any():
            # the peak in logs: the power and the exponential can each leave
            # the floats while their product does not; log 1 stands in for
            # the entries that do not grow, whose peak sits at 0
            peak_at = np.maximum(0.0, degree / rate - offset)
            log_peak = degree * np.log(np.where(up, offset + peak_at, 1.0)) - rate * peak_at
            log_constant = np.where(up, np.log(self.constant) + log_peak, 0.0)
            over = ~(log_constant < _LOG_MAX)
            if over.any():
                bad = np.broadcast_to(degree, over.shape)[over][0]
                raise ValueError("times_power of degree %g leaves the floats" % bad)
            constant = np.where(up, np.exp(log_constant) * _SAFETY, constant)
        return DecayCertificate(rate[()], constant[()])


@dataclass(frozen=True, eq=False)
class PowerDecayCertificate:
    """Guarantee that |f_i(y)| <= constant_i * |y| ** -degree_i for |y| >= 1.

    degree and constant are each a finite float, or a read-only array with
    one for each integral of a batch; every degree must exceed 1 so the tail
    is integrable.  Certificates compare by identity, as DecayCertificate.
    """

    degree: float | np.ndarray
    constant: float | np.ndarray

    def __post_init__(self) -> None:
        need = "power decay certificate needs finite degree > 1 and constant > 0"
        _store_fields(self, need, degree=1.0, constant=0.0)

    def tail_bound(self, start: float | np.ndarray) -> float | np.ndarray:
        power = _power(np.maximum(start, 1.0), 1.0 - self.degree)
        return self.constant * power / (self.degree - 1.0)

    def truncation_point(self, budget: float | np.ndarray) -> float | np.ndarray:
        ratio = self.constant / ((self.degree - 1.0) * budget)
        return np.maximum(1.0, _power(ratio, 1.0 / (self.degree - 1.0)))

    def times_power(self, degree: float | np.ndarray) -> "PowerDecayCertificate":
        """Certificate for |y| ** degree * f(y); ValueError once a degree left is <= 1."""
        return PowerDecayCertificate(self.degree - np.asarray(degree, dtype=float), self.constant)


@dataclass(frozen=True)
class GrowthCertificate:
    """Bound |g(x)| <= constant * (1 + |x|)**degree on the exterior.

    A true but loose bound costs accuracy: each beyond-support tail takes
    its tolerance from its certified tail, and a positive degree halves the
    certificate's rate.  Sech data under (1, 1) lies 9.5e-9 relative from
    the closed boundary term at L=10, M=64, against 1.1e-14 under (0, 1).
    Declare the smallest degree the data allow.
    """

    degree: float
    constant: float

    def __post_init__(self) -> None:
        if not (0 <= self.degree < math.inf and 0 < self.constant < math.inf):
            raise ValueError("growth certificate needs finite degree >= 0 and constant > 0")


Certificate = Union[DecayCertificate, PowerDecayCertificate]


# a truncated side's ladder of first edges, in steps from its anchor: the
# anchor itself, then 2**t
_RUNGS = np.concatenate([[0.0], np.ldexp(1.0, np.arange(1024))])
# integrand points per panel: the 15 point rule, then the 7 point rule
_NODES = np.concatenate([_T15, _T7])
_POINTS = _NODES.size
# a round's panels go to the integrand in slices of at most this many, so
# its temporaries stay near 180 KB each however many integrals share the
# worklist; one call per round would scale them with the batch
_SLICE_PANELS = 1024


def _panel_stats(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    lo: np.ndarray,
    hi: np.ndarray,
    owner: np.ndarray,
) -> np.ndarray:
    """Rows per panel: the 15 point value, its gap to the 7 point value,
    the value's magnitude and 1 (the panel count)."""
    stats = np.empty((4, lo.size))
    fine, gap = stats[0], stats[1]
    for start in range(0, lo.size, _SLICE_PANELS):
        part = slice(start, start + _SLICE_PANELS)
        mid = 0.5 * (lo[part] + hi[part])[:, None]
        rad = 0.5 * (hi[part] - lo[part])[:, None]
        pts = mid + rad * _NODES
        vals = np.asarray(f(pts.ravel(), owner[part].repeat(_POINTS)), dtype=float)
        vals = vals.reshape(pts.shape)
        # einsum sums every row in one fixed order; a BLAS matrix product
        # rounds a row by its place in the batch, which could flip a
        # panel's freeze test against its share and so part a batched
        # integral from the same integral alone
        fine[part] = np.einsum("pk,k->p", vals[:, :15], _W15) * rad[:, 0]
        gap[part] = np.abs(fine[part] - np.einsum("pk,k->p", vals[:, 15:], _W7) * rad[:, 0])
    np.abs(fine, out=stats[2])
    stats[3] = 1.0
    return stats


def _ladder(
    direction: float, lo: np.ndarray, hi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Edges anchor + direction * max(|anchor|, 1) * r for r = 0, 1, 2, 4, ..
    strictly inside (lo, hi), as (positions, row index); the ladder climbs
    from max(lo, 0) (direction 1) or descends from min(hi, 0) (direction
    -1), so its anchor is an edge at 0 for an interval across 0."""
    anchor = np.maximum(lo, 0.0) if direction > 0 else np.minimum(hi, 0.0)
    step = np.maximum(np.abs(anchor), 1.0)
    rungs = int(np.log2(max(float(((hi - lo) / step).max()), 1.0))) + 3
    edges = anchor[:, None] + direction * (step[:, None] * _RUNGS[:rungs])
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
    bisect.  A ladder starts at its anchor, so a truncated integral across
    0 also gets an edge at 0.
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
        rows = cut.nonzero()[0]
        if rows.size:
            edges, row = _ladder(direction, lo[rows], hi[rows])
            pos.append(edges)
            own.append(rows[row])
    if len(pos) == 2:
        # the endpoints alone: one panel per nonempty interval
        keep = lo < hi
        return lo[keep], hi[keep], owners[keep]

    pos = np.concatenate(pos)
    own = np.concatenate(own)
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
    decay: Certificate | None = None,
    breakpoints: Sequence[float] = (),
) -> QuadratureResult:
    """Integrate ``f`` over K intervals [lower_i, upper_i] from one worklist.

    Each round evaluates the 22 rule points of every active panel by calls
    ``f(y, owner)``, one per slice of at most _SLICE_PANELS panels,
    ``owner[p]`` being the integral that point ``y[p]`` belongs to.  Every
    integral follows the rules of `adaptive_quad` on its own: its own goal
    max(tol_i, rel |value_i|, 64 eps l1_i), its own per-panel share of it,
    its own truncation point and certified tail from its certificate entry,
    its own edge ladder, its own _PANEL_CAP and _MAX_ROUNDS.  ``tol`` is one
    value for all integrals or one per integral, never NaN.  ``decay`` is
    None or one certificate, each field a float or an array of K entries.
    ``breakpoints`` seed edges inside every interval that contains them.

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
    if not ((tol >= 0.0).all() and rel >= 0.0):
        raise ValueError("tolerances must be nonnegative, not NaN")
    if (upper == -math.inf).any():
        raise ValueError("upper endpoint is -inf")
    if (lower == math.inf).any():
        raise ValueError("lower endpoint is +inf")
    count = lower.size
    if not (decay is None or isinstance(decay, (DecayCertificate, PowerDecayCertificate))):
        raise ValueError("decay takes one certificate per batch, not a %s" % type(decay).__name__)
    for name, field in (vars(decay) if decay else {}).items():
        if isinstance(field, np.ndarray) and field.size != count:
            raise ValueError(
                "need one certificate %s per integral, got %d for %d" % (name, field.size, count)
            )

    upper_cut, lower_cut = np.isinf(upper), np.isinf(lower)
    tail = np.zeros(count)
    if (upper_cut | lower_cut).any():
        if decay is None:
            raise ValueError("an infinite endpoint requires a decay certificate")
        point = decay.truncation_point(np.where(tol > 0.0, tol, 1e-15) / 10.0)
        # a truncation point beyond the finite endpoint leaves an empty
        # interval, whose error is the certified tail from that endpoint
        np.maximum(point, lower, out=upper, where=upper_cut)
        np.minimum(-point, upper, out=lower, where=lower_cut)
        # the tail beyond the moved endpoint, none for an uncut row; a row
        # cut on both sides has upper = -lower = point and twice the tail
        sides = np.add(upper_cut, lower_cut, dtype=float)
        tail = decay.tail_bound(np.where(upper_cut, upper, -lower)) * sides
    if not (lower <= upper).all():
        raise ValueError("lower endpoint must not exceed upper endpoint")

    lo, hi, owner = _initial_panels(lower, upper, upper_cut, lower_cut, breakpoints)
    # running sums over the panels each integral has frozen: value, error,
    # l1 norm and panel count; an empty interval is finished before the
    # first round with value 0 and its tail as error
    frozen = np.zeros((4, count))
    frozen[1] = tail
    evaluations = 0
    value = np.zeros(count)
    error = tail.copy()
    live = lower < upper
    converged = np.ones(count, dtype=bool)
    # an exhausted integral gets one last evaluation for its best estimate
    exhausted = np.zeros(count, dtype=bool)
    # bin i + count * r sums row r of integral i in panel order, as a
    # bincount per row would
    row_bins = count * np.arange(4)[:, None]

    panels = np.bincount(owner, minlength=count)
    for round_ in range(_MAX_ROUNDS + 1):
        stats = _panel_stats(f, lo, hi, owner)
        evaluations += _POINTS * lo.size
        total, spread, l1 = frozen[:3] + np.bincount(
            (owner + row_bins[:3]).ravel(), stats[:3].ravel(), 3 * count
        ).reshape(3, count)
        goal = np.maximum(np.maximum(tol, rel * np.abs(total)), 64.0 * _EPS * l1)

        done = live & (exhausted | (spread <= goal))
        np.copyto(value, total, where=done)
        np.copyto(error, spread, where=done)
        converged &= ~(done & exhausted)
        live &= ~done
        if not live.any():
            break

        share = goal / (2.0 * (panels + frozen[3] + 1))
        refining = live[owner]
        settled = refining & (stats[1] <= share[owner])
        frozen += np.bincount(
            (owner[settled] + row_bins).ravel(), stats[:, settled].ravel(), 4 * count
        ).reshape(4, count)

        split = refining & ~settled
        lo, hi, owner = lo[split], hi[split], owner[split]
        mid = 0.5 * (lo + hi)
        lo = np.concatenate([lo, mid])
        hi = np.concatenate([mid, hi])
        owner = np.concatenate([owner, owner])
        panels = np.bincount(owner, minlength=count)
        exhausted |= live & (panels > _PANEL_CAP)
        if round_ + 1 >= _MAX_ROUNDS:
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

    Raises QuadratureError (carrying the best estimate) if the round or
    panel budget runs out first.
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
        )
    except QuadratureError as exc:
        raise QuadratureError(str(exc), _first(exc.result)) from None
    return _first(batch)


def _certified_tails(
    f: Callable, start: np.ndarray, decay: Certificate, share: float, breakpoints: Sequence = ()
) -> np.ndarray:
    """int_{start_i}^inf f(y, i) dy for every i, one batch under ``decay``.

    Each integral is a tail itself, so its tolerance is ``share`` of its own
    certified tail, floored at 1e-300, with rel 1e-12: one tolerance for all
    would drown the small tails in slack."""
    tol = np.maximum(share * decay.tail_bound(start), 1e-300)
    return adaptive_quad_many(
        f, start, math.inf, tol, rel=1e-12, decay=decay, breakpoints=breakpoints
    ).value


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
