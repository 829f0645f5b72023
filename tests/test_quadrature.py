"""Engine checks for the adaptive panel integrator.

The integrator is the independent reference for every closed form in the
package, so its own checks lean on analytically known integrals only.
"""

import importlib
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nldiff.grids import build_grid
from nldiff.kernels import laplace_kernel
from nldiff.quadrature import (
    DecayCertificate,
    PowerDecayCertificate,
    QuadratureError,
    _T7,
    _T15,
    _W7,
    _W15,
    adaptive_quad,
    adaptive_quad_many,
    _versine_panels,
    versine_transform,
)


def test_polynomial():
    r = adaptive_quad(lambda x: x * x, 0.0, 1.0, 1e-12)
    assert abs(r.value - 1.0 / 3.0) <= 1e-12
    assert r.converged
    assert r.abs_error_estimate <= 1e-12


def test_exponential_tail():
    cert = DecayCertificate(rate=1.0, constant=1.0)
    r = adaptive_quad(lambda y: np.exp(-y), 0.0, math.inf, 1e-10, decay=cert)
    assert abs(r.value - 1.0) <= 1e-10


def test_power_tail():
    cert = PowerDecayCertificate(degree=3.0, constant=1.0)
    r = adaptive_quad(lambda y: y ** -3.0, 1.0, math.inf, 1e-11, decay=cert)
    assert abs(r.value - 0.5) <= 1e-10


def test_two_sided_infinite():
    # |exp(-y^2)| <= e * exp(-2|y|) everywhere
    cert = DecayCertificate(rate=2.0, constant=math.e)
    r = adaptive_quad(lambda y: np.exp(-(y ** 2)), -math.inf, math.inf, 1e-11, decay=cert)
    assert abs(r.value - math.sqrt(math.pi)) <= 1e-9


def test_breakpoint_resolves_kink():
    r = adaptive_quad(
        lambda y: np.exp(-np.abs(y)), -1.0, 1.0, 1e-13, breakpoints=(0.0,)
    )
    assert abs(r.value - 2.0 * (1.0 - math.exp(-1.0))) <= 1e-13


def test_zero_tolerance_means_machine_best():
    r = adaptive_quad(np.sin, 0.0, math.pi, 0.0)
    assert r.converged
    assert abs(r.value - 2.0) <= 1e-14


class TestHatExample:
    """The first off-center weight of the exponential kernel at h = 1/2.

    The closed form -F'(x1) + (F(x2) - F(x1))/h covers the hat's outer
    half y in [h, 2h] only; the inner half is the job of the second moment
    coefficient, not of any hat integral.  Both halves are pinned here
    (outer from the closed form, totals cross-checked with scipy offline).
    """

    H = 0.5
    OUTER = 0.064614111315125622
    FULL = 0.15481812174617549

    @staticmethod
    def _integrand(y):
        hat = np.maximum(0.0, 1.0 - np.abs(y - 0.5) / 0.5)
        return hat * 0.5 * np.exp(-np.abs(y))

    def test_outer_half_matches_closed_form(self):
        r = adaptive_quad(self._integrand, self.H, 2.0 * self.H, 1e-13)
        closed = 0.5 * math.exp(-0.5) + 2.0 * (
            0.5 * math.exp(-1.0) - 0.5 * math.exp(-0.5)
        )
        assert abs(r.value - closed) <= 1e-13
        assert abs(r.value - self.OUTER) <= 1e-13

    def test_full_hat_value(self):
        r = adaptive_quad(self._integrand, 0.0, 2.0 * self.H, 1e-13)
        assert abs(r.value - self.FULL) <= 1e-13

    def test_halves_sum_to_full(self):
        inner = adaptive_quad(self._integrand, 0.0, self.H, 1e-13).value
        assert abs(inner + self.OUTER - self.FULL) <= 1e-12


def test_order_preserving():
    f = lambda x: np.sin(x) ** 2
    g = lambda x: np.sin(x) ** 2 + 0.01
    tol = 1e-10
    vf = adaptive_quad(f, 0.0, 3.0, tol).value
    vg = adaptive_quad(g, 0.0, 3.0, tol).value
    assert vf <= vg + 2.0 * tol


def test_infinite_bound_requires_certificate():
    with pytest.raises(ValueError):
        adaptive_quad(lambda y: np.exp(-y), 0.0, math.inf, 1e-10)


@pytest.mark.parametrize(
    "rate, constant", [(math.inf, 1.0), (1.0, math.inf), (math.nan, 1.0), (1.0, math.nan)]
)
def test_decay_certificate_refuses_non_finite_fields(rate, constant):
    # an infinite rate once truncated the tail at 0 and returned value 0,
    # error nan, converged, for an integral whose value is 1
    with pytest.raises(ValueError, match="positive finite rate and constant"):
        adaptive_quad(
            lambda y: np.exp(-y), 0.0, math.inf, 1e-10, decay=DecayCertificate(rate, constant)
        )
    with pytest.raises(ValueError, match="positive finite rate and constant"):
        DecayCertificate(rate, constant)


@pytest.mark.parametrize(
    "degree, constant", [(math.inf, 1.0), (2.0, math.inf), (math.nan, 1.0), (2.0, math.nan)]
)
def test_power_decay_certificate_refuses_non_finite_fields(degree, constant):
    with pytest.raises(ValueError, match="finite degree > 1 and constant > 0"):
        PowerDecayCertificate(degree, constant)


def test_non_convergence_carries_best_estimate(quadrature_budget):
    quadrature_budget(sys.modules[__name__], rounds=2)
    with pytest.raises(QuadratureError) as info:
        adaptive_quad(lambda x: np.cos(1000.0 * x), 0.0, 300.0, 1e-14)
    best = info.value.result
    assert not best.converged
    assert best.abs_error_estimate > 1e-14
    assert best.evaluations > 0


def _oscillatory_exact(a, t):
    # int_0^t e^(-x) cos(a x) dx
    return (1.0 + math.exp(-t) * (a * math.sin(a * t) - math.cos(a * t))) / (1.0 + a * a)


@pytest.mark.parametrize(
    "integrand, lower, upper, tol, kwargs, exact, evaluations",
    [
        # a ladder from 0 towards the truncation point
        (lambda y: np.exp(-y) * (1.0 + 0.3 * np.cos(3.0 * y)), 0.0, math.inf, 1e-12,
         {"decay": DecayCertificate(1.0, 1.3)}, 1.03, 748),
        # ladders both ways and an edge at 0
        (lambda y: np.exp(-np.abs(y - 0.5)), -math.inf, math.inf, 1e-11,
         {"decay": DecayCertificate(1.0, math.exp(0.5))}, 2.0, 440),
        # a ladder down from 0 and an edge at 0 from the lower cut alone
        (lambda y: np.exp(-np.abs(y)), -math.inf, 1.0, 1e-12,
         {"decay": DecayCertificate(1.0, 1.0)}, 2.0 - math.exp(-1.0), 286),
        # many rounds of freezing and bisecting
        (lambda x: np.cos(40.0 * x) * np.exp(-x), 0.0, 10.0, 1e-12, {},
         _oscillatory_exact(40.0, 10.0), 5434),
        (lambda y: np.exp(-np.abs(y)), -1.0, 1.0, 1e-13, {"breakpoints": (0.0,)},
         2.0 * (1.0 - math.exp(-1.0)), 44),
        # a log singularity: the per-panel share counts the frozen panels too
        (lambda y: np.log(y), 0.0, 1.0, 1e-12, {}, -1.0, 1738),
    ],
)
def test_refinement_rules_pin_evaluation_counts(
    integrand, lower, upper, tol, kwargs, exact, evaluations
):
    # the counts follow from the share, freezing, ladder and breakpoint rules
    r = adaptive_quad(integrand, lower, upper, tol, **kwargs)
    assert abs(r.value - exact) <= 10.0 * tol
    assert r.evaluations == evaluations


def test_many_abutting_intervals():
    # an edge shared by neighbouring integrals belongs to both
    batch = adaptive_quad_many(
        lambda y, owner: np.exp(-y), [0.0, 1.0, 2.0], [1.0, 2.0, 3.0], 1e-13
    )
    alone = [adaptive_quad(lambda y: np.exp(-y), a, a + 1.0, 1e-13) for a in (0.0, 1.0, 2.0)]
    np.testing.assert_allclose(batch.value, [r.value for r in alone], rtol=1e-14)
    assert batch.evaluations == sum(r.evaluations for r in alone)


def test_certificate_tail_bounds():
    cert = DecayCertificate(rate=2.0, constant=3.0)
    # integral of 3 e^(-2y) from 5 on
    assert abs(cert.tail_bound(5.0) - 1.5 * math.exp(-10.0)) <= 1e-18
    point = cert.truncation_point(1e-12)
    assert cert.tail_bound(point) <= 1e-12 * (1.0 + 1e-12)

    pcert = PowerDecayCertificate(degree=4.0, constant=2.0)
    assert abs(pcert.tail_bound(10.0) - 2.0 / 3.0 * 10.0 ** -3.0) <= 1e-18


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=-4.0, max_value=6.0),
    st.floats(min_value=0.0, max_value=5.0),
    st.floats(min_value=0.1, max_value=5.0),
    st.floats(min_value=0.1, max_value=10.0),
)
def test_times_power_bounds_the_weighted_tail(degree, offset, rate, constant):
    # a decreasing factor is bounded by its value at the offset, which must
    # stay away from zero
    assume(degree >= 0.0 or offset >= 0.1)
    cert = DecayCertificate(rate, constant).times_power(degree, offset)
    y = np.linspace(0.0, 80.0 / rate, 40001)
    weighted = (offset + y) ** degree * constant * np.exp(-rate * y)
    assert np.all(weighted <= cert.constant * np.exp(-cert.rate * y))


def test_times_power_forms_the_peak_in_logs():
    # 2000 ** 100 leaves the floats and e^-100 is tiny; their product, the
    # peak of y ** 100 e^(-0.05 y), does not
    cert = DecayCertificate(0.1, 1.0).times_power(100)
    assert cert.rate == 0.05
    want = math.exp(100.0 * math.log(2000.0) - 100.0) * 1.0000001
    assert cert.constant == pytest.approx(want, rel=1e-13)
    assert cert.constant == pytest.approx(4.7157570e286, rel=1e-7)


def test_times_power_refuses_a_constant_beyond_the_floats():
    with pytest.raises(ValueError, match="degree 200"):
        DecayCertificate(1e-3, 1.0).times_power(200)


def test_times_power_degree_zero_is_identity():
    cert = DecayCertificate(rate=2.0, constant=3.0)
    assert cert.times_power(0) is cert
    assert cert.times_power(0.0, 4.0) is cert


def test_times_power_caps_an_offset_whose_power_would_underflow():
    # 1e6 ** -1000 is 0, which once left a zero constant and a refused
    # certificate; the offset is lowered to e^0.69, where the power is e^-690
    cert = DecayCertificate(1.0, 2.0).times_power(-1000.0, 1e6)
    assert cert.constant == pytest.approx(2.0 * math.exp(-690.0) * 1.0000001, rel=1e-12, abs=0.0)
    # an entry below the cap keeps offset ** degree bit for bit
    offsets = np.array([1.5, 1e6, 1.9])
    capped = DecayCertificate(1.0, 2.0).times_power(-1000.0, offsets)
    assert capped.constant[1] == cert.constant
    for i in (0, 2):
        assert capped.constant[i] == 2.0 * offsets[i] ** -1000.0 * 1.0000001


@pytest.mark.parametrize(
    "degree, offset",
    [(2.0, -5.0), (-2.0, 0.0), (-2.5, -1.5), (1.0, math.nan), (1.0, math.inf), (0.0, -1.0)],
)
def test_times_power_refuses_a_bad_offset(degree, offset):
    # (|y| - 5)^2 e^-|y| is 25 at y = 0, where a constant of 0.178 once
    # claimed to bound it; offset 0 with a negative degree once divided by
    # zero, and a negative offset with a fractional degree went complex
    cert = DecayCertificate(1.0, 1.0)
    with pytest.raises(ValueError, match="got offset %r" % offset):
        cert.times_power(degree, offset)
    # one bad entry refuses the whole array
    with pytest.raises(ValueError, match="got offset %r" % offset):
        cert.times_power(degree, np.array([1.0, offset, 2.0]))


@pytest.mark.parametrize("degree", [-2.0, 0.0, 2.0])
def test_array_certificate_matches_scalar_certificates(degree):
    # entry i of every method is, bit for bit, the scalar certificate of entry i
    constants = np.array([0.3, 1.0, 2.5, 7e5])
    offsets = np.array([0.25, 1.0, 3.5, 40.0])
    starts = np.array([-1.0, 0.0, 2.0, 30.0])
    budgets = np.array([1e-3, 1e-12, 1e-300, 5.0])
    cert = DecayCertificate(0.7, constants)
    product = cert.times_power(degree, offsets)
    for i, constant in enumerate(constants):
        scalar = DecayCertificate(0.7, constant)
        alone = scalar.times_power(degree, offsets[i])
        assert product.rate == alone.rate
        assert product.constant[i] == alone.constant
        assert product.tail_bound(starts)[i] == alone.tail_bound(starts[i])
        assert cert.tail_bound(starts)[i] == scalar.tail_bound(starts[i])
        assert cert.tail_bound(2.0)[i] == scalar.tail_bound(2.0)
        assert cert.truncation_point(budgets)[i] == scalar.truncation_point(budgets[i])


def test_array_certificate_refuses_a_bad_entry():
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="positive finite rate and constant"):
            DecayCertificate(1.0, [1.0, bad, 2.0])
        with pytest.raises(ValueError, match="positive finite rate and constant"):
            DecayCertificate([1.0, bad, 2.0], 1.0)
        with pytest.raises(ValueError, match="finite degree > 1 and constant > 0"):
            PowerDecayCertificate(2.0, [1.0, bad])
    for bad in (1.0, 0.5, math.inf, math.nan):
        with pytest.raises(ValueError, match="finite degree > 1 and constant > 0"):
            PowerDecayCertificate([2.0, bad], 1.0)
    with pytest.raises(ValueError, match="one-dimensional"):
        DecayCertificate(1.0, [[1.0, 2.0]])
    # the peak of y ** 100 e^(-0.05 y) times 1e30 leaves the floats, times 1 not
    DecayCertificate(0.1, [1.0]).times_power(100)
    with pytest.raises(ValueError, match="degree 100 leaves the floats"):
        DecayCertificate(0.1, [1.0, 1e30]).times_power(100)


def test_array_certificate_constant_is_read_only():
    source = np.array([1.0, 2.0])
    cert = DecayCertificate(1.0, source)
    with pytest.raises(ValueError, match="read-only"):
        cert.constant[0] = 5.0
    source[0] = 5.0
    assert cert.constant[0] == 1.0
    # every array field of both classes is a read-only copy
    for cert, name in (
        (DecayCertificate(source, 1.0), "rate"),
        (PowerDecayCertificate(source + 1.0, 1.0), "degree"),
        (PowerDecayCertificate(2.0, source), "constant"),
    ):
        with pytest.raises(ValueError, match="read-only"):
            getattr(cert, name)[0] = 7.0
    source[0] = 9.0
    assert cert.constant[0] == 5.0


@pytest.mark.parametrize("rate", [0.7, np.array([0.7, 0.2, 1.5, 0.7, 3.0, 0.7])])
def test_times_power_of_a_degree_array_matches_each_degree(rate):
    # entry i is, bit for bit, the certificate degree[i] gives alone; -1 is
    # one of the exponents numpy rounds otherwise as one scalar
    degrees = np.array([-1.0, -2.5, 0.0, 1.0, 2.0, 4.0])
    offsets = np.array([0.55, 3.0, 0.0, 1.0, 2.5, 0.0])
    constants = np.array([0.3, 1.0, 2.5, 7e5, 4.0, 1.0])
    rates = np.broadcast_to(rate, degrees.shape)
    cert = DecayCertificate(rate, constants)
    product = cert.times_power(degrees, offsets)
    for i, degree in enumerate(degrees):
        alone = DecayCertificate(rates[i], constants[i]).times_power(degree, offsets[i])
        assert product.rate[i] == alone.rate
        assert product.constant[i] == alone.constant
    # a zero degree keeps the entry's rate and constant
    assert (product.rate[2], product.constant[2]) == (rates[2], constants[2])
    # and a negative one scales it by offset ** degree as numpy rounds a
    # scalar exponent, in an array of degrees too
    assert product.constant[0] == 0.3 * np.power(0.55, -1.0) * 1.0000001
    assert cert.times_power(np.zeros(6), offsets) is cert
    # the refusal names the degree whose constant leaves the floats
    with pytest.raises(ValueError, match="degree 200 leaves the floats"):
        DecayCertificate(1e-3, 1.0).times_power(np.array([1.0, 200.0]))


def test_power_certificate_arrays_match_scalars():
    # degree 3 takes the exponent 1/2 in truncation_point, degree 2 the
    # exponent -1 in tail_bound and degree 1.5 the exponent 2: numpy
    # rounds each otherwise when it is one scalar exponent, and does so at
    # the bases 4.75, 2.2 and 0.1 here
    degrees = np.array([4.0, 3.0, 2.0, 1.5, 2.5])
    constants = np.array([3.5, 9.5, 1.0, 0.2, 9.0])
    starts = np.array([0.5, 2.0, 2.2, 30.0, 1e3])
    budgets = np.array([1e-11, 1.0, 1e-300, 4.0, 3e-9])
    cert = PowerDecayCertificate(4.0, constants).times_power(4.0 - degrees)
    np.testing.assert_array_equal(cert.degree, degrees)
    for i, degree in enumerate(degrees):
        alone = PowerDecayCertificate(degree, constants[i])
        assert cert.tail_bound(starts)[i] == alone.tail_bound(starts[i])
        assert cert.tail_bound(2.0)[i] == alone.tail_bound(2.0)
        assert cert.truncation_point(budgets)[i] == alone.truncation_point(budgets[i])
    with pytest.raises(ValueError, match="finite degree > 1"):
        PowerDecayCertificate(4.0, 1.0).times_power(np.array([0.0, 3.0]))


def test_power_certificate_times_power():
    cert = PowerDecayCertificate(degree=4.0, constant=2.0)
    product = cert.times_power(2)
    assert (product.degree, product.constant) == (2.0, 2.0)
    for degree in (3.0, 3.5):
        with pytest.raises(ValueError):
            cert.times_power(degree)


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=0.2, max_value=4.0), st.floats(min_value=0.1, max_value=2.0))
def test_exponential_integral_identity(a, b):
    # int_0^b e^(-a y) dy has an elementary antiderivative
    r = adaptive_quad(lambda y: np.exp(-a * y), 0.0, b, 1e-12)
    assert abs(r.value - (1.0 - math.exp(-a * b)) / a) <= 1e-11


def test_versine_transform_closed_form():
    # int_0^R e^-x (1 - cos(a x)) dx with a = j pi / R, R = 20
    radius, modes = 20.0, 200
    result = versine_transform(lambda x: np.exp(-x), radius, modes, 1e-12)
    a = np.arange(modes + 1) * math.pi / radius
    sign = (-1.0) ** np.arange(modes + 1)
    want = (1.0 - math.exp(-radius)) - (1.0 - sign * math.exp(-radius)) / (1.0 + a * a)
    assert result.value[0] == 0.0
    assert np.abs(result.value - want).max() <= 1e-14
    assert result.converged and result.abs_error_estimate <= 1e-12
    # the P = modes table and the 2P table, 15 nodes per panel
    assert result.evaluations == 15 * 3 * modes


def versine_panels_by_offset(f, radius, modes, panels):
    """The versine table with one integrand call and one rfft per Gauss offset."""
    nodes, weights = np.polynomial.legendre.leggauss(15)
    width = radius / panels
    ramp = np.arange(panels)
    modes_phase = (math.pi / panels) * np.arange(modes + 1)
    plain = 0.0
    cosine = np.zeros(modes + 1)
    for offset, weight in zip(0.5 * (1.0 + nodes), weights):
        a = (0.5 * width * weight) * np.asarray(f(width * (ramp + offset)), dtype=float)
        spectrum = np.fft.rfft(a, 2 * panels)[: modes + 1]
        phase = offset * modes_phase
        cosine += spectrum.real * np.cos(phase) + spectrum.imag * np.sin(phase)
        plain += float(a.sum())
    table = plain - cosine
    table[0] = 0.0
    return table


@pytest.mark.parametrize(
    "f",
    [
        lambda x: 0.5 * np.exp(-x),
        lambda x: np.exp(-x) - 0.9 * np.exp(-2.0 * x),
        lambda x: np.where(x < 0.3, 1.0, 0.5),
    ],
    ids=["laplace", "mixed", "step"],
)
@pytest.mark.parametrize("radius, modes, panels", [(10.0, 64, 64), (10.0, 256, 512), (3.0, 5, 5)])
def test_versine_panels_match_the_per_offset_loop(f, radius, modes, panels):
    # the batch adds the offsets' rows in the loop's order: equal bit for bit
    np.testing.assert_array_equal(
        _versine_panels(f, radius, modes, panels),
        versine_panels_by_offset(f, radius, modes, panels),
    )


def test_versine_transform_cap_carries_best_table(monkeypatch):
    # a jump between panel edges converges at first order, far too slowly
    monkeypatch.setattr(importlib.import_module("nldiff.quadrature"), "_VERSINE_PANEL_CAP", 256)
    with pytest.raises(QuadratureError, match="within 256 panels") as err:
        versine_transform(lambda x: np.where(x < 0.3, 1.0, 0.5), 10.0, 64, 1e-10)
    best = err.value.result
    assert not best.converged
    assert best.value.shape == (65,)
    assert 1e-10 < best.abs_error_estimate < math.inf
    assert best.evaluations == 15 * (64 + 128 + 256)


_INTERVAL = st.tuples(
    st.sampled_from(["finite", "upper", "lower", "both"]),
    st.floats(min_value=-4.0, max_value=4.0),
    st.floats(min_value=0.05, max_value=12.0),
    st.floats(min_value=0.3, max_value=3.0),
    st.floats(min_value=-2.0, max_value=2.0),
    st.floats(min_value=-14.0, max_value=-6.0),
)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(_INTERVAL, min_size=1, max_size=6),
    st.sampled_from([0.0, 1e-12]),
    st.lists(st.floats(min_value=-6.0, max_value=6.0), max_size=3),
)
def test_many_matches_one_at_a_time(intervals, rel, breakpoints):
    # integrand i: e^(-rate_i |y - shift_i|) (1 + 0.3 cos 3y), bounded by
    # 1.3 e^(rate_i |shift_i|) e^(-rate_i |y|): entry i of one certificate
    lower, upper, tols, rates, shifts = [], [], [], [], []
    for kind, start, width, rate, shift, log_tol in intervals:
        lower.append(-math.inf if kind in ("lower", "both") else start)
        upper.append(
            math.inf if kind in ("upper", "both") else start + width if kind == "finite" else start
        )
        tols.append(10.0 ** log_tol)
        rates.append(rate)
        shifts.append(shift)
    rates, shifts = np.array(rates), np.array(shifts)
    constants = 1.3 * np.exp(rates * np.abs(shifts))

    def f(y, owner):
        return np.exp(-rates[owner] * np.abs(y - shifts[owner])) * (1.0 + 0.3 * np.cos(3.0 * y))

    batch = adaptive_quad_many(
        f, lower, upper, tols, rel=rel, decay=DecayCertificate(rates, constants),
        breakpoints=breakpoints,
    )
    alone = [
        adaptive_quad(
            lambda y, i=i: f(y, np.full(y.shape, i)),
            lower[i],
            upper[i],
            tols[i],
            rel=rel,
            decay=DecayCertificate(rates[i], constants[i]),
            breakpoints=breakpoints,
        )
        for i in range(len(intervals))
    ]
    want = np.array([r.value for r in alone])
    np.testing.assert_allclose(batch.value, want, rtol=1e-14, atol=0.0)
    # a gap between the two rules can sit at the rounding level, where a
    # matrix product row rounds by its place in the batch
    gaps = np.abs(batch.abs_error_estimate - [r.abs_error_estimate for r in alone])
    assert np.all(gaps <= 1e-14 * np.abs(want))
    assert batch.evaluations == sum(r.evaluations for r in alone)
    assert batch.converged


def test_many_exhaustion_carries_every_best_estimate(quadrature_budget):
    # every call below runs with three rounds, in which the smooth integrals
    # converge and the oscillatory one does not
    quadrature_budget(sys.modules[__name__], rounds=3)

    def f(y, owner):
        return np.where(owner == 1, np.cos(1000.0 * y), np.exp(-y))

    with pytest.raises(QuadratureError, match="on 1 of 3 integrals") as info:
        adaptive_quad_many(f, [0.0, 0.0, 0.0], [1.0, 300.0, 2.0], 1e-14)
    best = info.value.result
    assert not best.converged
    assert best.value.shape == best.abs_error_estimate.shape == (3,)
    # the two that converge keep their own answers, the third its best one
    for i, upper in ((0, 1.0), (2, 2.0)):
        alone = adaptive_quad(lambda y: np.exp(-y), 0.0, upper, 1e-14).value
        assert abs(best.value[i] - alone) <= 1e-15 * alone
        assert abs(alone - -math.expm1(-upper)) <= 1e-14
    assert best.abs_error_estimate[1] > 1e-14
    with pytest.raises(QuadratureError) as solo:
        adaptive_quad(lambda y: np.cos(1000.0 * y), 0.0, 300.0, 1e-14)
    assert abs(best.value[1] - solo.value.result.value) <= 1e-14
    assert best.evaluations == (
        adaptive_quad(lambda y: np.exp(-y), 0.0, 1.0, 1e-14).evaluations
        + adaptive_quad(lambda y: np.exp(-y), 0.0, 2.0, 1e-14).evaluations
        + solo.value.result.evaluations
    )


def test_many_panel_cap_is_per_integral(quadrature_budget):
    # integral 1 alone outgrows a cap of 8 panels; integral 0 never does
    quadrature_budget(sys.modules[__name__], panels=8)

    def f(y, owner):
        return np.where(owner == 1, np.cos(1000.0 * y), np.exp(-y))

    with pytest.raises(QuadratureError, match="on 1 of 2 integrals") as info:
        adaptive_quad_many(f, [0.0, 0.0], [1.0, 300.0], 1e-14)
    alone = adaptive_quad(lambda y: np.exp(-y), 0.0, 1.0, 1e-14).value
    assert abs(info.value.result.value[0] - alone) <= 1e-15 * alone


def test_many_empty_interval_and_bad_input():
    r = adaptive_quad_many(lambda y, owner: np.ones_like(y), [1.0, 0.0], [1.0, 2.0], 1e-12)
    np.testing.assert_allclose(r.value, [0.0, 2.0], atol=1e-14)
    # the empty interval is never evaluated
    assert r.evaluations == 22
    # a list of certificates, the form the batch once took, is refused
    # before any evaluation
    calls = []

    def f(y, owner):
        calls.append(y)
        return np.exp(-y)

    for listed in ([DecayCertificate(1.0, 1.0)] * 2, (DecayCertificate(1.0, 1.0), None)):
        with pytest.raises(ValueError, match="one certificate per batch, not a (list|tuple)"):
            adaptive_quad_many(f, [0.0, 0.0], math.inf, 1e-10, decay=listed)
    assert calls == []
    with pytest.raises(ValueError, match="requires a decay certificate"):
        adaptive_quad_many(f, [0.0, 0.0], [1.0, math.inf], 1e-10)
    for cert, wrong in (
        (DecayCertificate(1.0, [1.0, 1.0, 1.0]), "constant per integral, got 3"),
        (DecayCertificate([1.0], 1.0), "rate per integral, got 1"),
        (PowerDecayCertificate([2.0, 3.0, 4.0], 1.0), "degree per integral, got 3"),
        (PowerDecayCertificate(2.0, [1.0]), "constant per integral, got 1"),
    ):
        with pytest.raises(ValueError, match="one certificate %s for 2" % wrong):
            adaptive_quad_many(f, [0.0, 0.0], math.inf, 1e-10, decay=cert)
    with pytest.raises(ValueError, match="must not exceed"):
        adaptive_quad_many(lambda y, owner: y, [0.0, 2.0], [1.0, 1.0], 1e-10)
    # a NaN tolerance once bisected until the panel budget ran out
    for tol, rel in ((math.nan, 0.0), (1e-10, math.nan), ([1e-10, math.nan], 0.0)):
        with pytest.raises(ValueError, match="tolerances must be nonnegative, not NaN"):
            adaptive_quad_many(lambda y, owner: y, [0.0, 0.0], 1.0, tol, rel=rel)
    with pytest.raises(ValueError, match="not NaN"):
        adaptive_quad(lambda y: y, 0.0, 1.0, math.nan)


@pytest.mark.parametrize("q", [2.0, 400.0])
def test_many_array_certificate_matches_the_list(q):
    # the whole-line route's tails at M=64: one certificate with a constant
    # per node gives what one integral per node with its scalar certificate
    # gives
    kernel = laplace_kernel()
    grid = build_grid(10.0, 64)
    xi = grid.spacing * np.arange(-32, 33)
    radius, edge = grid.weight_radius, grid.half_width
    offsets = np.minimum((radius + xi) / edge, math.exp(min(690.0 / q, 700.0)))
    cert = kernel.decay().times_power(-q, offsets)
    tol = np.maximum(1e-12 * cert.tail_bound(radius), 1e-300)

    def f(s, owner):
        return (edge / np.abs(xi[owner] + s)) ** q * kernel.evaluate(s)

    batch = adaptive_quad_many(f, np.full(xi.size, radius), math.inf, tol, rel=1e-12, decay=cert)
    alone = [
        adaptive_quad(
            lambda s, i=i: f(s, np.full(s.shape, i)), radius, math.inf, tol[i], rel=1e-12,
            decay=kernel.decay().times_power(-q, offset),
        )
        for i, offset in enumerate(offsets)
    ]
    np.testing.assert_array_equal(batch.value, [r.value for r in alone])
    np.testing.assert_array_equal(batch.abs_error_estimate, [r.abs_error_estimate for r in alone])
    assert batch.evaluations == sum(r.evaluations for r in alone)


def test_upper_tail_beyond_its_truncation_point_is_empty():
    # at tol 1e-300 the truncation point sits near 690, below the endpoint
    cert = DecayCertificate(1.0, 0.5)
    r = adaptive_quad(lambda y: 0.5 * np.exp(-y), 800.0, math.inf, 1e-300, decay=cert)
    assert (r.value, r.abs_error_estimate, r.evaluations) == (0.0, cert.tail_bound(800.0), 0)
    r = adaptive_quad(lambda y: np.exp(-y), 20.0, math.inf, 1e-3, decay=DecayCertificate(1.0, 1.0))
    assert (r.value, r.abs_error_estimate, r.evaluations) == (0.0, math.exp(-20.0), 0)


def test_lower_tail_beyond_its_truncation_point_is_empty():
    cert = DecayCertificate(1.0, 1.0)
    r = adaptive_quad_many(
        lambda y, owner: np.exp(-np.abs(y)), [-math.inf, -math.inf], [-20.0, 0.0], 1e-3,
        decay=cert,
    )
    assert r.value[0] == 0.0 and r.abs_error_estimate[0] == math.exp(-20.0)
    # its neighbour in the batch is integrated as it would be alone
    alone = adaptive_quad(lambda y: np.exp(-np.abs(y)), -math.inf, 0.0, 1e-3, decay=cert)
    assert r.value[1] == alone.value and r.evaluations == alone.evaluations


def test_gauss_rules_equal_leggauss():
    for size, nodes, weights in ((15, _T15, _W15), (7, _T7, _W7)):
        want_nodes, want_weights = np.polynomial.legendre.leggauss(size)
        assert np.array_equal(nodes, want_nodes)
        assert np.array_equal(weights, want_weights)


def test_import_leaves_numpy_polynomial_out():
    # a fresh interpreter: this one has numpy.polynomial from the test above
    package = importlib.import_module("nldiff")
    root = os.path.dirname(os.path.dirname(os.path.abspath(package.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([root, os.environ.get("PYTHONPATH", "")]))
    script = "import sys, nldiff; nldiff.registry(); print('numpy.polynomial' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"
