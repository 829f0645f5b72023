"""Convolution kernels for the nonlocal operator and their validation.

A kernel is an even, integrable weight nu with exponentially decaying tails.
The interior weights use the second antiderivative F (F'' = nu) and the edge
weights the first, F'.  F is even and F' odd, both -> 0 as y -> +inf:
F(y) = integral over s in [y, inf) of (s - y) nu(s) ds for y >= 0.

A kernel that is a sum of terms c exp(-a |y|) carries its (c, a) pairs as
`Kernel.terms`, and every closed form derives from them here: F', F, the
tail mass, the truncation moments and the whole-line exterior moment.  A
kernel without terms takes the quadrature route for all of them.
`build_kernel` checks a declared decay rate and constant against
|nu(y)| exp(rate y) out to the truncation points the certificates use.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Mapping, Sequence

import numpy as np

from .expint import exp_int
from .quadrature import DecayCertificate, adaptive_quad, adaptive_quad_many

__all__ = [
    "SignClass",
    "Kernel",
    "KernelValidationReport",
    "build_kernel",
    "laplace_kernel",
    "mixed_exponential_kernel",
    "eval_kernel",
    "moment_f",
    "tail_mass",
    "validate_kernel",
]


# the derived decay constant is this many times the probed peak of
# |nu(y)| exp(rate y); the probe's step is 0.177 / rate and exp(0.177) < 1.25,
# so the margin also covers the gaps between probe points where |nu| falls
_DECAY_MARGIN = 1.25
# a declared constant may lie this far (relative) below the probed peak
_DECAY_ROUNDING = 1e-9
# the probe ends where exp(-rate y) leaves the normal floats, past the
# truncation points of the tail integrals' 1e-300 tolerance floor (about
# (693 + log(constant / rate)) / rate)
_TINY = float(np.finfo(float).tiny)
_PROBE_END = -math.log(_TINY)


class SignClass(enum.Enum):
    NONNEGATIVE = "nonnegative"
    MIXED_WITH_POSITIVE_TAIL = "mixed_with_positive_tail"


@dataclass(frozen=True)
class Kernel:
    """Even kernel with exponential decay |nu(y)| <= decay_constant * exp(-decay_rate |y|)."""

    evaluate: Callable[[np.ndarray], np.ndarray]
    decay_rate: float
    decay_constant: float
    sign_class: SignClass
    norm_l1: float
    # the (c, a) pairs of nu(y) = sum of c exp(-a |y|) for a kernel with
    # closed forms, None for any other kernel
    terms: tuple[tuple[float, float], ...] | None = None
    sign_changes: tuple[float, ...] = ()
    name: str = "custom"
    # the (c/a, a), (c/a^2, a) and (2c/a, a) terms of F', F and the tail
    # mass, derived once per kernel
    _scaled: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.terms is not None:
            scaled = [((c / a, a), (c / (a * a), a), (2.0 * c / a, a)) for c, a in self.terms]
            object.__setattr__(self, "_scaled", tuple(zip(*scaled)))

    def decay(self) -> DecayCertificate:
        return DecayCertificate(self.decay_rate, self.decay_constant)

    def without_closed_forms(self) -> "Kernel":
        return replace(self, terms=None)

    def _closed(self) -> tuple:
        if self._scaled is None:
            raise ValueError("kernel %r has no closed forms" % self.name)
        return self._scaled

    def antiderivative_first(self, y):
        """F'(y) = -sign(y) * sum of c/a exp(-a |y|)."""
        return -np.sign(y) * _exp_sum(self._closed()[0], y, np.exp)

    def antiderivative_second(self, y):
        """F(y) = sum of c/a^2 exp(-a |y|)."""
        return _exp_sum(self._closed()[1], y, np.exp)

    def exterior_moment(self, center, radius: float, exponent: float) -> np.ndarray:
        """int_radius^inf (center + s)^-exponent nu(s) ds for center + radius > 0.

        Term by term the substitution t = a (center + s) gives
        c e^(a center) (center + radius)^(1 - exponent) E_exponent(a (center + radius)).
        Where e^(a center) overflows, E has underflowed to 0 (for radius >=
        2 center its argument is at least three times a center), and so has
        the term.
        """
        self._closed()
        x = np.asarray(center, dtype=float)
        power = (x + radius) ** (1.0 - exponent)
        total = 0.0
        for c, a in self.terms:
            tail = exp_int(exponent, a * (x + radius))
            with np.errstate(over="ignore", invalid="ignore"):
                total = total + np.where(tail == 0.0, 0.0, c * np.exp(a * x) * power * tail)
        return total


def _route_kernel(kernel: Kernel, method: str) -> Kernel:
    """The kernel a computation runs on under its route choice.

    "auto" uses the closed forms if the kernel has terms, "quadrature" strips
    them, and "closed" raises unless the kernel has them.
    """
    if method not in ("auto", "closed", "quadrature"):
        raise ValueError("unknown method %r" % method)
    if method == "quadrature":
        return kernel.without_closed_forms()
    if method == "closed":
        kernel._closed()
    return kernel


def build_kernel(
    evaluate: Callable[[np.ndarray], np.ndarray],
    *,
    decay_rate: float,
    sign_class: SignClass,
    decay_constant: float | None = None,
    sign_changes: Sequence[float] = (),
    name: str = "custom",
) -> Kernel:
    """Construct a kernel, checking its decay and deriving the L1 norm up front.

    |nu(y)| exp(decay_rate y) is probed out to y = 708 / decay_rate: a ratio
    that still grows there makes the rate false, and a declared constant
    below its peak is false; without one the constant is 1.25 times the peak.

    The L1 norm is computed once here (not lazily) so that kernel objects
    are safe to share across worker threads without hidden first-call
    state.
    """
    if not 0 < decay_rate < math.inf:
        raise ValueError("decay_rate must be positive and finite, got %r" % decay_rate)
    probe = np.linspace(1e-9, _PROBE_END / decay_rate, 4001)
    with np.errstate(over="ignore"):
        values = np.abs(np.asarray(evaluate(probe), dtype=float))
        # log(|nu(y)| exp(rate y)), skipping zero and subnormal values of nu
        # (a NaN is kept and fails the rate check)
        kept = ~(values < _TINY)
        log_ratio = np.log(values[kept]) + decay_rate * probe[kept]
        far = probe[kept] >= 0.75 * probe[-1]
        near_peak, far_peak = [np.max(log_ratio[s], initial=-math.inf) for s in (~far, far)]
        near_ratio, far_ratio = np.exp([near_peak, far_peak])
    # the derived constant allows the ratio 1.25 times its probed peak; a
    # ratio that still grows by more than that over the last quarter of the
    # probe outgrows any constant read off it, and the rate is false
    if not far_peak <= near_peak + math.log(_DECAY_MARGIN):
        raise ValueError(
            "decay_rate %.6g is false: |nu(y)| exp(%.6g y) peaks at %.3g below "
            "y = %.3g and at %.3g beyond"
            % (decay_rate, decay_rate, near_ratio, 0.75 * probe[-1], far_ratio)
        )
    peak = float(max(near_ratio, far_ratio))
    if decay_constant is None:
        decay_constant = peak * _DECAY_MARGIN + 1e-300
    elif not peak <= decay_constant * (1.0 + _DECAY_ROUNDING):
        raise ValueError(
            "decay_constant %.6g is false: |nu(y)| exp(%.6g y) reaches %.6g on the probe"
            % (decay_constant, decay_rate, peak)
        )
    cert = DecayCertificate(decay_rate, decay_constant)
    breaks = tuple(float(s) for s in sign_changes)
    norm = adaptive_quad(
        lambda y: np.abs(np.asarray(evaluate(y), dtype=float)),
        -math.inf,
        math.inf,
        1e-12,
        decay=cert,
        breakpoints=breaks,
    ).value
    return Kernel(
        evaluate=evaluate,
        decay_rate=decay_rate,
        decay_constant=decay_constant,
        sign_class=sign_class,
        norm_l1=norm,
        sign_changes=breaks,
        name=name,
    )


def _exp_sum(terms: Sequence[tuple[float, float]], y, exp):
    """The sum of c exp(-a |y|) over the (c, a) terms, with exp = np.exp or math.exp."""
    # |y| is taken per term: holding it across the loop made a Laplace call
    # on 30,000 points about 1.5 times slower
    c, a = terms[0]
    total = c * exp(-a * abs(y))
    for c, a in terms[1:]:
        total += c * exp(-a * abs(y))
    return total


def _exp_moment(a: float, m: int, h: float) -> float:
    # integral over [0, h] of y^m e^(-a y) dy, stable for small a*h where the
    # classical closed form cancels catastrophically
    ah = a * h
    if ah <= 0.5:
        total = 0.0
        term = h ** (m + 1)
        k = 0
        while True:
            contribution = term / (m + k + 1)
            total += contribution
            if abs(contribution) <= 1e-18 * abs(total):
                return total
            k += 1
            term *= -a * h / k
    value = -math.expm1(-ah) / a
    for j in range(1, m + 1):
        value = (j * value - h ** j * math.exp(-ah)) / a
    return value


def _exponential_sum_kernel(
    terms: Sequence[tuple[float, float]], sign_changes: Sequence[float], name: str
) -> Kernel:
    """nu(y) = sum of c exp(-a |y|) over the (c, a) terms, every a > 0, with
    the decay facts derived from the terms and the terms kept for the
    closed forms.

    ``sign_changes`` are the positive zeros of nu; with none the kernel is
    declared nonnegative, otherwise sign-changing with positive tails.
    """
    terms = tuple((float(c), float(a)) for c, a in terms)
    zeros = tuple(float(s) for s in sign_changes)
    kernel = build_kernel(
        partial(_exp_sum, terms, exp=np.exp),
        decay_rate=min(a for _, a in terms),
        decay_constant=sum(abs(c) for c, _ in terms),
        sign_class=SignClass.MIXED_WITH_POSITIVE_TAIL if zeros else SignClass.NONNEGATIVE,
        sign_changes=tuple(-s for s in reversed(zeros)) + zeros,
        name=name,
    )
    return replace(kernel, terms=terms)


def laplace_kernel() -> Kernel:
    """nu(y) = exp(-|y|) / 2, the unit-variance exponential kernel."""
    return _exponential_sum_kernel([(0.5, 1.0)], (), "laplace-exponential")


def mixed_exponential_kernel() -> Kernel:
    """nu(y) = 1.5 exp(-|y|) - 2 exp(-2|y|): negative near zero, positive tail.

    Unit mass but not pointwise nonnegative; its stability rests on the
    positivity of the cosine transform rather than of nu itself.
    """
    return _exponential_sum_kernel(
        [(1.5, 1.0), (-2.0, 2.0)], (math.log(4.0 / 3.0),), "mixed-exponential"
    )


def eval_kernel(kernel: Kernel, y) -> np.ndarray | float:
    out = kernel.evaluate(np.asarray(y, dtype=float))
    if np.isscalar(y) or getattr(y, "ndim", 1) == 0:
        return float(np.asarray(out))
    return np.asarray(out, dtype=float)


def _tail_integral(kernel: Kernel, integrand, start: float) -> float:
    # int_start^inf of nu or |nu|, to 1e-13 of the certified tail beyond start
    cert = kernel.decay()
    return adaptive_quad(
        integrand, start, math.inf, max(1e-13 * cert.tail_bound(start), 1e-300), rel=1e-12,
        decay=cert, breakpoints=kernel.sign_changes,
    ).value


def moment_f(kernel: Kernel, h: float, index: int) -> float:
    """Truncation moments of the kernel around the origin cell.

    index 1: h**-2 * int_0^h y^2 nu(y) dy            (weight of the cut cell)
    index 2: h**2  * int_0^h y^2 nu(y) dy            (= h**4 * moment 1)
    index 3:         int_0^h y^4 nu(y) dy
    index 4: h**2  * int_h^inf |nu(y)| dy

    Closed forms are used when the kernel has terms; otherwise adaptive
    quadrature at a tolerance tight enough for the 1e-10 relative
    cross-checks these moments are subject to.
    """
    if index not in (1, 2, 3, 4):
        raise ValueError("moment index must be 1, 2, 3 or 4")
    if h <= 0:
        raise ValueError("h must be positive")
    if index == 2:
        # keep the h**4 scaling bit exact no matter which route computes it
        return h ** 4 * moment_f(kernel, h, 1)
    closed = kernel.terms is not None
    if index == 4 and not closed:
        return h * h * _tail_integral(kernel, lambda y: np.abs(kernel.evaluate(y)), h)
    if index == 4:
        # nu keeps one sign between h, the zeros beyond it and infinity,
        # and int_p^q nu = G(p) - G(q) for G = -F' on y > 0, G(inf) = 0
        edges = [h] + [s for s in kernel.sign_changes if s > h] + [math.inf]
        g = [_exp_sum(kernel._closed()[0], p, math.exp) for p in edges]
        return h * h * sum(abs(p - q) for p, q in zip(g, g[1:]))
    power = 2 if index == 1 else 4
    if closed:
        total = sum(c * _exp_moment(a, power, h) for c, a in kernel.terms)
    else:
        total = adaptive_quad(
            lambda y: y ** power * kernel.evaluate(y), 0.0, h, 0.0, rel=1e-13
        ).value
    return total / (h * h) if index == 1 else total


def tail_mass(kernel: Kernel, support_radius: float) -> float:
    """Signed kernel mass outside [-support_radius, support_radius]."""
    if support_radius < 0:
        raise ValueError("support radius must be nonnegative")
    if kernel.terms is not None:
        return _exp_sum(kernel._closed()[2], support_radius, math.exp)
    return 2.0 * _tail_integral(kernel, kernel.evaluate, support_radius)


@dataclass(frozen=True)
class KernelValidationReport:
    mass: float
    first_moment: float
    second_moment: float
    fourth_moment: float
    tail_positivity: Mapping[float, float]
    checks: Mapping[str, bool]

    @property
    def passed(self) -> bool:
        return all(self.checks.values())


def validate_kernel(
    kernel: Kernel,
    tail_check_half_widths: Sequence[float] = (2.0, 5.0, 10.0),
    tol: float = 1e-8,
) -> KernelValidationReport:
    """Check the standing assumptions on a kernel; failures are recorded in
    the report rather than raised, so callers can present them.
    """
    cert = kernel.decay()
    # the moments of orders 0, 1, 2 and 4 in one batch, one certificate each
    powers = np.array([0.0, 1.0, 2.0, 4.0])
    mass, first, second, fourth = adaptive_quad_many(
        lambda y, owner: y ** powers[owner] * kernel.evaluate(y),
        np.full(powers.size, -math.inf),
        math.inf,
        min(tol * 1e-2, 1e-10),
        decay=[cert.times_power(p) for p in powers],
        breakpoints=kernel.sign_changes,
    ).value.tolist()

    probe = np.linspace(-20.0 / kernel.decay_rate, 20.0 / kernel.decay_rate, 1001)
    vals = np.asarray(kernel.evaluate(probe), dtype=float)
    peak = float(np.abs(vals).max()) or 1.0
    symmetric = float(np.abs(vals - vals[::-1]).max()) <= 1e-12 * peak

    checks: dict[str, bool] = {
        "mass_normalized": abs(mass - 1.0) <= tol,
        "zero_first_moment": abs(first) <= tol,
        "symmetric": symmetric,
    }

    if kernel.sign_class is SignClass.NONNEGATIVE:
        checks["nonnegative"] = float(vals.min()) >= -1e-12 * peak

    tails: dict[float, float] = {}
    for half_width in tail_check_half_widths:
        tails[float(half_width)] = tail_mass(kernel, 2.0 * float(half_width))
    if kernel.sign_class is SignClass.MIXED_WITH_POSITIVE_TAIL:
        checks["positive_tails"] = all(v > 0.0 for v in tails.values())

    # central differences of each antiderivative against its derivative
    if kernel.terms is not None:
        step = 1e-5 / kernel.decay_rate
        sub = probe[(np.abs(probe) > 10 * step)][::25]
        pairs = (
            ("first_antiderivative", kernel.antiderivative_first, kernel.evaluate),
            ("second_antiderivative", kernel.antiderivative_second, kernel.antiderivative_first),
        )
        for name, antiderivative, derivative in pairs:
            dnum = (
                np.asarray(antiderivative(sub + step), dtype=float)
                - np.asarray(antiderivative(sub - step), dtype=float)
            ) / (2.0 * step)
            target = np.asarray(derivative(sub), dtype=float)
            checks[name] = float(np.abs(dnum - target).max()) <= 1e-4 * (1.0 + peak)

    return KernelValidationReport(
        mass=mass,
        first_moment=first,
        second_moment=second,
        fourth_moment=fourth,
        tail_positivity=tails,
        checks=checks,
    )
