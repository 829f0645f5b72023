"""Generalized exponential integral E_p for real order p > 0.

E_p(x) = integral over t in [1, inf) of t**(-p) * exp(-x*t) dt, for x > 0.

The classical evaluation split is used: a modified Lentz continued fraction
for x > 1, run over an array argument at once, and the ascending series for
x <= 1, element by element.  The series form

    E_p(x) = Gamma(1-p) x**(p-1) - sum_m (-x)**m / (m! (m + 1 - p))

degenerates when p approaches a positive integer n: the Gamma factor and the
m = n-1 series term blow up with opposite signs.  For |p - n| <= 0.01 the
two singular pieces are combined analytically.  Writing d = p - n, the pair
collapses to

    -(-x)**(n-1)/(n-1)! * expm1(d*A + B(d)) / d,
    A = log(x) + euler_gamma - H(n-1),
    B(d) = sum_{k>=2} d**k * (zeta(k) + (-1)**k * H_k(n-1)) / k,

where H(n-1) and H_k(n-1) are (generalized) harmonic numbers.  The d -> 0
limit of the quotient is A, which reproduces the classical integer-order
formula with psi(n) = -euler_gamma + H(n-1).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["exp_int"]

_EULER_GAMMA = 0.5772156649015329

# zeta(2) .. zeta(8); the grouped bracket truncates after d**8, which at
# |d| <= 0.01 leaves less than 1e-18 relative residue.
_ZETA = (
    1.6449340668482264,
    1.2020569031595943,
    1.0823232337111382,
    1.0369277551433699,
    1.0173430619844491,
    1.0083492773819228,
    1.0040773561979443,
)

_EPS = float(np.finfo(float).eps)


def _continued_fraction(p: float, x: np.ndarray) -> np.ndarray:
    # Modified Lentz applied to the standard continued fraction
    # E_p(x) = e^-x / (x + p - 1*p/(x + p + 2 - 2(p+1)/(x + p + 4 - ...))),
    # run on every element at once; an element's product freezes as soon as
    # its own delta converges, so each one sees the arithmetic of a scalar loop
    tiny = 1e-300
    live = np.ones(x.shape, dtype=bool)
    b = x + p
    c = np.full_like(x, 1.0 / tiny)
    d = 1.0 / b
    h = d.copy()
    for i in range(1, 400):
        if not live.any():
            break
        a = -i * (p - 1.0 + i)
        b = b + 2.0
        d = a * d + b
        d[d == 0.0] = tiny
        c = b + a / c
        c[c == 0.0] = tiny
        d = 1.0 / d
        delta = c * d
        np.multiply(h, delta, out=h, where=live)
        live &= ~(np.abs(delta - 1.0) < 4.0 * _EPS)
    if live.any():
        raise RuntimeError("continued fraction for E_p(%g, %g) stalled" % (p, x[live][0]))
    return h * np.exp(-x)


def _series_regular(p: float, x: float, skip: int) -> float:
    # sum over m >= 0, m != skip, of (-x)**m / (m! (m + 1 - p))
    total = 0.0
    term = 1.0  # (-x)**m / m!
    for m in range(0, 200):
        if m != skip:
            contrib = term / (m + 1.0 - p)
            total += contrib
            if abs(contrib) < _EPS * abs(total) * 0.01 and m > 3 and abs(term) < 1.0:
                break
        term *= -x / (m + 1.0)
    return total

def _series(p: float, x: float) -> float:
    n = int(round(p))
    d = p - n
    if n < 1 or abs(d) > 0.01:
        lead = math.gamma(1.0 - p) * x ** (p - 1.0)
        return lead - _series_regular(p, x, skip=-1)

    h1 = sum(1.0 / j for j in range(1, n))
    a = math.log(x) + _EULER_GAMMA - h1
    if d == 0.0:
        quotient = a
    else:
        expo = d * a
        dk = d
        for k in range(2, 9):
            dk *= d
            hk = sum(1.0 / j ** k for j in range(1, n))
            expo += dk * (_ZETA[k - 2] + (-1) ** k * hk) / k
        quotient = math.expm1(expo) / d
    sign = -1.0 if (n - 1) % 2 else 1.0
    # x**(n-1)/(n-1)! one divisor at a time: x <= 1, so it underflows
    # towards 0 where (n-1)! would leave the floats (n >= 172)
    coef = x ** (n - 1)
    for j in range(2, n):
        coef /= j
    bracket = -sign * coef * quotient
    return bracket - _series_regular(p, x, skip=n - 1)


def exp_int(p: float, x):
    """E_p(x) for finite p > 0 and x > 0; x may be a scalar or an array.

    Elements with x > 1 run the continued fraction together; the series
    elements (x <= 1) run one by one.
    """
    p = float(p)
    if not 0.0 < p < math.inf:
        raise ValueError("exp_int requires a finite order p > 0, got %r" % (p,))
    xs = np.asarray(x, dtype=float)
    flat = xs.ravel()
    bad = ~((flat > 0.0) & (flat < math.inf))
    if bad.any():
        raise ValueError(
            "exp_int requires a finite argument x > 0, got %r" % (float(flat[bad][0]),)
        )
    out = np.empty(flat.shape)
    far = flat > 1.0
    out[far] = _continued_fraction(p, flat[far])
    for i in np.flatnonzero(~far):
        out[i] = _series(p, float(flat[i]))
    return float(out[0]) if xs.ndim == 0 else out.reshape(xs.shape)
