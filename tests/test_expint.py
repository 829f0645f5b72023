"""Generalized exponential integral against mpmath and analytic identities."""

import math

import mpmath
import numpy as np
import pytest

from nldiff.expint import _series, exp_int
from nldiff.quadrature import DecayCertificate, adaptive_quad

mpmath.mp.dps = 25

# values frozen from mpmath.expint at 25 digits
FROZEN = [
    (2.0, 1.0, 0.14849550677592205),
    (2.0, 0.7, 0.23494711352795313),
    (3.0, 2.0, 0.030133379797815893),
    (1.0, 0.001, 6.3315393641361493),
    (4.5, 0.3, 0.19004659463751266),
    (2.0, 20.0, 9.404856430858149e-11),
]


@pytest.mark.parametrize("p,x,want", FROZEN)
def test_frozen_values(p, x, want):
    got = exp_int(p, x)
    assert abs(got - want) <= 1e-12 * abs(want)


def test_accuracy_lattice_against_mpmath():
    """Relative accuracy over the advertised (p, x) range."""
    worst = 0.0
    for p in [1.0, 1.25, 1.5, 2.0, 3.0, 4.5, 5.0, 6.5, 8.0]:
        for x in [1e-3, 5e-3, 0.05, 0.2, 0.5, 1.0, 1.5, 3.0, 10.0, 30.0, 50.0]:
            want = float(mpmath.expint(p, x))
            got = exp_int(p, x)
            worst = max(worst, abs(got - want) / abs(want))
    assert worst <= 1e-12


@pytest.mark.parametrize("delta", [1e-3, 1e-6, 1e-9, 1e-12, 0.0])
@pytest.mark.parametrize("x", [0.3, 0.9])
def test_near_integer_order(delta, x):
    """The series branch crosses a removable singularity at integer p; the
    cancellation is rearranged analytically, so accuracy must not degrade
    as p approaches 2."""
    p = 2.0 + delta
    want = float(mpmath.expint(mpmath.mpf(2) + mpmath.mpf(delta), x))
    got = exp_int(p, x)
    assert abs(got - want) <= 1e-12 * abs(want)


def test_near_integer_from_below():
    for n in (1, 2, 3, 5):
        for delta in (1e-4, 1e-8):
            p = n - delta
            want = float(mpmath.expint(mpmath.mpf(n) - mpmath.mpf(delta), 0.4))
            got = exp_int(p, 0.4)
            assert abs(got - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("p,x", [(400.0, 1.0), (400.0, 1e-3), (172.0, 0.5), (171.995, 1.0)])
def test_order_past_the_float_factorials(p, x):
    # within 0.01 of an integer n >= 172 the series once formed (n-1)!,
    # which leaves the floats; its term now underflows instead
    want = float(mpmath.expint(mpmath.mpf(p), x))
    assert abs(exp_int(p, x) - want) <= 1e-15 * abs(want)


def test_recurrence():
    # p E_{p+1}(x) + x E_p(x) = e^{-x}
    p, x = 2.0, 0.7
    lhs = p * exp_int(p + 1.0, x) + x * exp_int(p, x)
    assert abs(lhs - math.exp(-x)) <= 1e-11


def test_upper_bound():
    # integrand z^{-p} e^{-xz} <= e^{-xz} on z >= 1
    assert exp_int(2.0, 5.0) < math.exp(-5.0) / 5.0


def test_monotone_in_p_and_x():
    xs = [0.1, 1.0, 10.0]
    ps = [1.0, 2.0, 3.0]
    for x in xs:
        vals = [exp_int(p, x) for p in ps]
        assert vals[0] > vals[1] > vals[2]
    for p in ps:
        vals = [exp_int(p, x) for x in xs]
        assert vals[0] > vals[1] > vals[2]


@pytest.mark.parametrize("p,x", [(2.0, 1.0), (3.5, 2.2)])
def test_quadrature_round_trip(p, x):
    cert = DecayCertificate(rate=x, constant=math.exp(0.0))
    r = adaptive_quad(
        lambda z: z ** -p * np.exp(-x * z), 1.0, math.inf, 1e-13, decay=cert
    )
    assert abs(r.value - exp_int(p, x)) <= 1e-11


def test_domain_errors():
    with pytest.raises(ValueError):
        exp_int(2.0, 0.0)
    with pytest.raises(ValueError):
        exp_int(2.0, -1.0)
    with pytest.raises(ValueError):
        exp_int(0.0, 1.0)
    with pytest.raises(ValueError):
        exp_int(-1.5, 1.0)
    # a non-finite order or argument once stalled the continued fraction
    # (RuntimeError) or overflowed the series
    for p, x in ((math.inf, 2.0), (math.inf, 0.5), (math.nan, 2.0), (2.0, math.inf)):
        with pytest.raises(ValueError, match="requires a finite"):
            exp_int(p, x)
    with pytest.raises(ValueError, match="finite argument x > 0, got nan"):
        exp_int(2.0, np.array([0.5, 3.0, math.nan]))


def test_array_argument():
    xs = np.array([0.5, 1.0, 2.0, 20.0])
    got = exp_int(2.0, xs)
    want = np.array([exp_int(2.0, float(x)) for x in xs])
    np.testing.assert_allclose(got, want, rtol=0, atol=0)


def _scalar_continued_fraction(p, x):
    # the modified Lentz loop one argument at a time, the reference for the
    # array recurrence in exp_int
    tiny = 1e-300
    b = x + p
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 400):
        a = -i * (p - 1.0 + i)
        b += 2.0
        d = a * d + b
        if d == 0.0:
            d = tiny
        c = b + a / c
        if c == 0.0:
            c = tiny
        d = 1.0 / d
        delta = c * d
        h *= delta
        if abs(delta - 1.0) < 4.0 * np.finfo(float).eps:
            return h * math.exp(-x)
    raise RuntimeError("reference continued fraction stalled")


@pytest.mark.parametrize("p", [0.5, 1.0, 1.5, 2.0, 3.0 + 1e-9, 4.5])
def test_array_matches_scalar_loop(p):
    # both branches: the series below x = 1, the continued fraction above;
    # the recurrence is the same, the gap is np.exp against math.exp
    xs = np.concatenate([np.geomspace(1e-3, 1.0, 40), np.geomspace(1.0 + 1e-12, 60.0, 400)])
    got = exp_int(p, xs)
    want = np.array(
        [_series(p, x) if x <= 1.0 else _scalar_continued_fraction(p, x) for x in xs]
    )
    assert np.max(np.abs(got - want) / np.abs(want)) <= 4e-16
