"""Engine checks for the adaptive panel integrator.

The integrator is the independent reference for every closed form in the
package, so its own checks lean on analytically known integrals only.
"""

import importlib
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nldiff.quadrature import (
    DecayCertificate,
    PowerDecayCertificate,
    QuadratureError,
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


def test_non_convergence_carries_best_estimate():
    with pytest.raises(QuadratureError) as info:
        adaptive_quad(
            lambda x: np.cos(1000.0 * x), 0.0, 300.0, 1e-14, max_rounds=2
        )
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


def test_times_power_degree_zero_is_identity():
    cert = DecayCertificate(rate=2.0, constant=3.0)
    assert cert.times_power(0) is cert
    assert cert.times_power(0.0, 4.0) is cert


def test_power_certificate_times_power():
    cert = PowerDecayCertificate(degree=4.0, constant=2.0)
    assert cert.times_power(2) == PowerDecayCertificate(degree=2.0, constant=2.0)
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
    # 1.3 e^(rate_i |shift_i|) e^(-rate_i |y|), with its own certificate
    lower, upper, tols, certs, rates, shifts = [], [], [], [], [], []
    for kind, start, width, rate, shift, log_tol in intervals:
        lower.append(-math.inf if kind in ("lower", "both") else start)
        upper.append(
            math.inf if kind in ("upper", "both") else start + width if kind == "finite" else start
        )
        tols.append(10.0 ** log_tol)
        certs.append(DecayCertificate(rate, 1.3 * math.exp(rate * abs(shift))))
        rates.append(rate)
        shifts.append(shift)
    rates, shifts = np.array(rates), np.array(shifts)

    def f(y, owner):
        return np.exp(-rates[owner] * np.abs(y - shifts[owner])) * (1.0 + 0.3 * np.cos(3.0 * y))

    batch = adaptive_quad_many(
        f, lower, upper, tols, rel=rel, decay=certs, breakpoints=breakpoints
    )
    alone = [
        adaptive_quad(
            lambda y, i=i: f(y, np.full(y.shape, i)),
            lower[i],
            upper[i],
            tols[i],
            rel=rel,
            decay=certs[i],
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


def test_many_exhaustion_carries_every_best_estimate():
    def f(y, owner):
        return np.where(owner == 1, np.cos(1000.0 * y), np.exp(-y))

    with pytest.raises(QuadratureError, match="on 1 of 3 integrals") as info:
        adaptive_quad_many(f, [0.0, 0.0, 0.0], [1.0, 300.0, 2.0], 1e-14, max_rounds=3)
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
        adaptive_quad(lambda y: np.cos(1000.0 * y), 0.0, 300.0, 1e-14, max_rounds=3)
    assert abs(best.value[1] - solo.value.result.value) <= 1e-14
    assert best.evaluations == (
        adaptive_quad(lambda y: np.exp(-y), 0.0, 1.0, 1e-14).evaluations
        + adaptive_quad(lambda y: np.exp(-y), 0.0, 2.0, 1e-14).evaluations
        + solo.value.result.evaluations
    )


def test_many_panel_cap_is_per_integral():
    # integral 1 alone outgrows a cap of 8 panels; integral 0 never does
    def f(y, owner):
        return np.where(owner == 1, np.cos(1000.0 * y), np.exp(-y))

    with pytest.raises(QuadratureError, match="on 1 of 2 integrals") as info:
        adaptive_quad_many(f, [0.0, 0.0], [1.0, 300.0], 1e-14, panel_cap=8)
    alone = adaptive_quad(lambda y: np.exp(-y), 0.0, 1.0, 1e-14).value
    assert abs(info.value.result.value[0] - alone) <= 1e-15 * alone


def test_many_empty_interval_and_bad_input():
    r = adaptive_quad_many(lambda y, owner: np.ones_like(y), [1.0, 0.0], [1.0, 2.0], 1e-12)
    np.testing.assert_allclose(r.value, [0.0, 2.0], atol=1e-14)
    # the empty interval is never evaluated
    assert r.evaluations == 22
    with pytest.raises(ValueError, match="one decay certificate per integral"):
        adaptive_quad_many(
            lambda y, owner: np.exp(-y), [0.0, 0.0], math.inf, 1e-10,
            decay=[DecayCertificate(1.0, 1.0)],
        )
    with pytest.raises(ValueError, match="requires a decay certificate"):
        adaptive_quad_many(
            lambda y, owner: np.exp(-y), [0.0, 0.0], [1.0, math.inf], 1e-10,
            decay=[DecayCertificate(1.0, 1.0), None],
        )
    with pytest.raises(ValueError, match="must not exceed"):
        adaptive_quad_many(lambda y, owner: y, [0.0, 2.0], [1.0, 1.0], 1e-10)


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
