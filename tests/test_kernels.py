"""Kernel moments, tail masses, and the standing-assumption validator.

Closed forms are tested against the adaptive engine (an independent code
path) and against a handful of values frozen from scipy.integrate.quad.
"""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nldiff.assembly import DecayModel, realline_boundary_terms
from nldiff.expint import exp_int
from nldiff.grids import build_grid, compute_weights
from nldiff.harness import registry
from nldiff.kernels import (
    SignClass,
    _exp_moment,
    _exponential_sum_kernel,
    build_kernel,
    eval_kernel,
    laplace_kernel,
    mixed_exponential_kernel,
    moment_f,
    tail_mass,
    validate_kernel,
)
from nldiff.quadrature import adaptive_quad


@pytest.fixture(scope="module")
def laplace():
    return laplace_kernel()


@pytest.fixture(scope="module")
def mixed():
    return mixed_exponential_kernel()


def brute_moment(kernel, h, index):
    if index == 1:
        v = adaptive_quad(lambda y: y * y * kernel.evaluate(y), 0.0, h, 0.0, rel=1e-14).value
        return v / (h * h)
    if index == 2:
        v = adaptive_quad(lambda y: y * y * kernel.evaluate(y), 0.0, h, 0.0, rel=1e-14).value
        return v * h * h
    if index == 3:
        return adaptive_quad(lambda y: y ** 4 * kernel.evaluate(y), 0.0, h, 0.0, rel=1e-14).value
    bps = tuple(s for s in kernel.sign_changes if 0.0 < s)
    v = adaptive_quad(
        lambda y: np.abs(kernel.evaluate(y)),
        h,
        math.inf,
        1e-16,
        rel=1e-13,
        decay=kernel.decay(),
        breakpoints=bps,
    ).value
    return v * h * h


class TestLaplace:
    def test_pointwise(self, laplace):
        assert laplace.evaluate(0.0) == 0.5
        assert abs(float(laplace.evaluate(2.0)) - 0.5 * math.exp(-2.0)) <= 1e-16
        ys = np.linspace(-8, 8, 301)
        np.testing.assert_allclose(laplace.evaluate(ys), laplace.evaluate(-ys), atol=0)

    def test_unit_mass(self, laplace):
        assert abs(laplace.norm_l1 - 1.0) <= 1e-11

    def test_tail_mass_closed(self, laplace):
        assert abs(tail_mass(laplace, 10.0) - math.exp(-10.0)) <= 1e-18
        assert abs(tail_mass(laplace, 0.0) - 1.0) <= 1e-15

    def test_tail_mass_monotone(self, laplace):
        radii = np.linspace(0.5, 12.0, 24)
        vals = [tail_mass(laplace, float(r)) for r in radii]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("h", [1.0, 0.1, 0.01])
    @pytest.mark.parametrize("index", [1, 2, 3, 4])
    def test_moments_match_brute_quadrature(self, laplace, h, index):
        closed = moment_f(laplace, h, index)
        brute = brute_moment(laplace, h, index)
        assert abs(closed - brute) <= 1e-10 * max(abs(brute), 1e-300)

    def test_second_moment_scaling_exact(self, laplace):
        for h in (0.7, 0.2, 0.025):
            f1 = moment_f(laplace, h, 1)
            f2 = moment_f(laplace, h, 2)
            assert f2 == h ** 4 * f1


class TestMixed:
    def test_pointwise(self, mixed):
        assert float(mixed.evaluate(0.0)) == -0.5
        z = math.log(4.0 / 3.0)
        assert float(mixed.evaluate(z - 1e-3)) < 0.0 < float(mixed.evaluate(z + 1e-3))
        assert abs(float(mixed.evaluate(z))) <= 1e-3
        assert mixed.sign_class is SignClass.MIXED_WITH_POSITIVE_TAIL
        assert mixed.sign_changes == (-z, z)

    def test_signed_mass_is_one_but_l1_mass_larger(self, mixed):
        signed = adaptive_quad(
            mixed.evaluate, -math.inf, math.inf, 1e-12, decay=mixed.decay(),
            breakpoints=mixed.sign_changes,
        ).value
        assert abs(signed - 1.0) <= 1e-11
        assert mixed.norm_l1 > 1.2

    def test_tail_mass_closed(self, mixed):
        want = 3.0 * math.exp(-10.0) - 2.0 * math.exp(-20.0)
        assert abs(tail_mass(mixed, 10.0) - want) <= 1e-15
        for radius in (2.0, 5.0, 10.0):
            assert tail_mass(mixed, radius) > 0.0

    @pytest.mark.parametrize("h", [1.0, 0.1, 0.01])
    @pytest.mark.parametrize("index", [1, 2, 3, 4])
    def test_moments_match_brute_quadrature(self, mixed, h, index):
        closed = moment_f(mixed, h, index)
        brute = brute_moment(mixed, h, index)
        assert abs(closed - brute) <= 1e-10 * max(abs(brute), 1e-300)

    def test_first_moment_negative_at_small_h(self, mixed):
        # near zero the kernel is negative, so the singular-part moment is too
        assert moment_f(mixed, 0.05, 1) < 0.0


# values frozen from scipy.integrate.quad at h = 5/32
FROZEN_F1 = [("laplace", 0.023172635066757347), ("mixed", -0.013038359767354823)]


@pytest.mark.parametrize("name,want", FROZEN_F1)
def test_frozen_first_moments(name, want, laplace, mixed):
    kernel = laplace if name == "laplace" else mixed
    got = moment_f(kernel, 2.0 * 5.0 / 64.0, 1)
    assert abs(got - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("h", [0.5, 0.1])
def test_moment_magnitude_bounds(h, laplace, mixed):
    for kernel in (laplace, mixed):
        l1 = kernel.norm_l1
        assert abs(moment_f(kernel, h, 2)) <= h ** 4 * l1 * (1.0 + 1e-12)
        assert abs(moment_f(kernel, h, 3)) <= h ** 4 * l1 * (1.0 + 1e-12)
        assert abs(moment_f(kernel, h, 4)) <= h ** 2 * l1 * (1.0 + 1e-12)


class TestValidator:
    def test_builtins_pass(self, laplace, mixed):
        for kernel in (laplace, mixed):
            report = validate_kernel(kernel)
            assert report.passed, report.checks
            assert abs(report.mass - 1.0) <= 1e-8
            assert abs(report.first_moment) <= 1e-8
            assert all(v > 0.0 for v in report.tail_positivity.values())

    def test_moments_match_the_exponential_sums(self, laplace, mixed):
        # the integral of y^k c exp(-a |y|) over the line is 2 c k! / a^(k+1)
        cases = ((laplace, laplace.terms), (mixed, mixed.terms),
                 (laplace.without_closed_forms(), laplace.terms))
        for kernel, terms in cases:
            report = validate_kernel(kernel)
            got = (report.mass, report.second_moment, report.fourth_moment)
            for k, value in zip((0, 2, 4), got):
                want = sum(2.0 * c * math.factorial(k) / a ** (k + 1) for c, a in terms)
                assert value == pytest.approx(want, rel=1e-10)
            assert abs(report.first_moment) <= 1e-10

    def test_doubled_mass_fails(self):
        bad = build_kernel(
            lambda y: np.exp(-np.abs(y)),
            decay_rate=1.0,
            decay_constant=1.0,
            sign_class=SignClass.NONNEGATIVE,
            name="unnormalized",
        )
        report = validate_kernel(bad)
        assert not report.passed
        assert not report.checks["mass_normalized"]
        assert report.checks["symmetric"]

    def test_asymmetric_fails(self):
        bad = build_kernel(
            lambda y: 0.5 * np.exp(-np.abs(np.asarray(y) - 0.2)),
            decay_rate=1.0,
            decay_constant=1.0,
            sign_class=SignClass.NONNEGATIVE,
            name="shifted",
        )
        report = validate_kernel(bad)
        assert not report.passed
        assert not report.checks["symmetric"]

    def test_negative_dip_fails_nonnegative_claim(self):
        # negative near the origin, positive in the tails
        dip = build_kernel(
            lambda y: 0.75 * np.exp(-np.abs(y)) - np.exp(-2.0 * np.abs(y)),
            decay_rate=1.0,
            decay_constant=1.0,
            sign_class=SignClass.NONNEGATIVE,
            name="dipping",
        )
        report = validate_kernel(dip)
        assert not report.checks["nonnegative"]

    def test_antiderivative_checks_present_for_laplace(self, laplace):
        report = validate_kernel(laplace)
        assert report.checks["first_antiderivative"]
        assert report.checks["second_antiderivative"]


def test_build_kernel_derives_decay_constant():
    k = build_kernel(
        lambda y: 0.5 * np.exp(-np.abs(y)),
        decay_rate=1.0,
        sign_class=SignClass.NONNEGATIVE,
        name="derived",
    )
    assert k.decay_constant >= 0.5
    assert k.decay_constant <= 2.0


@pytest.mark.parametrize("rate", [math.inf, math.nan, 0.0, -1.0])
def test_build_kernel_refuses_a_non_finite_or_nonpositive_rate_before_probing(rate):
    calls = []

    def evaluate(y):
        calls.append(y)
        return 0.5 * np.exp(-np.abs(y))

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="decay_rate must be positive and finite"):
            build_kernel(evaluate, decay_rate=rate, sign_class=SignClass.NONNEGATIVE)
    assert calls == []


def test_build_kernel_rejects_a_false_decay_rate():
    # e^{-|y|/2} / 4 declared at rate 1: the probe ratio grows like e^{y/2},
    # and the constant read off it (1.5e8) would still fail beyond the probe
    with pytest.raises(ValueError, match="decay_rate 1 is false"):
        build_kernel(
            lambda y: 0.25 * np.exp(-np.abs(y) / 2.0),
            decay_rate=1.0,
            sign_class=SignClass.NONNEGATIVE,
        )
    honest = build_kernel(
        lambda y: 0.25 * np.exp(-np.abs(y) / 2.0), decay_rate=0.5, sign_class=SignClass.NONNEGATIVE
    )
    assert abs(honest.norm_l1 - 1.0) <= 1e-12


def test_build_kernel_rejects_a_decay_constant_below_the_peak():
    # 0.5 e^{-|y|} has |nu(y)| e^{y} = 0.5 everywhere; a constant of 1e-6
    # would certify a norm_l1 that is off by 1e-7
    with pytest.raises(ValueError, match=r"decay_constant 1e-06 is false: .* reaches 0\.5 "):
        build_kernel(
            lambda y: 0.5 * np.exp(-np.abs(y)),
            decay_rate=1.0,
            decay_constant=1e-6,
            sign_class=SignClass.NONNEGATIVE,
        )
    # a constant equal to the peak builds despite the rounding of the probe
    exact = build_kernel(
        lambda y: 0.5 * np.exp(-np.abs(y)),
        decay_rate=1.0,
        decay_constant=0.5,
        sign_class=SignClass.NONNEGATIVE,
    )
    assert exact.decay_constant == 0.5


def test_build_kernel_probes_out_to_the_truncation_points():
    # the second term overtakes e^{-|y|} near y = 92: |nu(y)| e^{y} is 52 at
    # y = 100, far past the y = 40 a shorter probe would stop at
    with pytest.raises(ValueError, match="decay_rate 1 is false") as caught:
        build_kernel(
            lambda y: 0.5 * np.exp(-np.abs(y)) + 1e-20 * np.exp(-np.abs(y) / 2.0),
            decay_rate=1.0,
            sign_class=SignClass.NONNEGATIVE,
        )
    peaks = re.search(r"peaks at (\S+) below y = 531 and at (\S+) beyond", str(caught.value))
    near, far = float(peaks.group(1)), float(peaks.group(2))
    assert 1e90 < near < far


def test_decay_probe_skips_underflow_without_warnings():
    # 1 / cosh overflows in cosh near y = 710, inside the probe at rate 1/2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        kernel = build_kernel(
            lambda y: 1.0 / (np.pi * np.cosh(y)), decay_rate=0.5, sign_class=SignClass.NONNEGATIVE
        )
    assert abs(kernel.norm_l1 - 1.0) <= 1e-12
    assert 1.0 / np.pi <= kernel.decay_constant <= 1.25 * 2.0 / np.pi


def test_true_decay_rates_still_build():
    kernels = [laplace_kernel(), mixed_exponential_kernel()]
    kernels += [entry.build(10.0).problem.kernel for entry in registry().values()]
    for kernel in kernels:
        for constant in (kernel.decay_constant, None):
            rebuilt = build_kernel(
                kernel.evaluate,
                decay_rate=kernel.decay_rate,
                decay_constant=constant,
                sign_class=kernel.sign_class,
                sign_changes=kernel.sign_changes,
            )
            assert abs(rebuilt.norm_l1 - kernel.norm_l1) <= 1e-11


def test_eval_kernel_shapes(laplace):
    scalar = eval_kernel(laplace, 1.5)
    assert isinstance(scalar, float)
    arr = eval_kernel(laplace, np.array([0.0, 1.5]))
    assert arr.shape == (2,)
    assert arr[1] == scalar


def test_without_closed_forms_same_values(mixed):
    stripped = mixed.without_closed_forms()
    assert mixed.terms is not None and stripped.terms is None
    for radius in (1.0, 4.0):
        a = tail_mass(mixed, radius)
        b = tail_mass(stripped, radius)
        assert abs(a - b) <= 1e-11 * abs(a)
    for index in (1, 3, 4):
        a = moment_f(mixed, 0.2, index)
        b = moment_f(stripped, 0.2, index)
        assert abs(a - b) <= 1e-10 * max(abs(a), 1e-300)


@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=0.5, max_value=15.0))
def test_tail_mass_routes_agree(radius):
    kernel = laplace_kernel()
    closed = tail_mass(kernel, radius)
    quad = tail_mass(kernel.without_closed_forms(), radius)
    assert abs(closed - quad) <= 1e-9 * abs(closed)


# the hand-written formulas the built-ins carried before they were derived
# from their (c, a) terms
_Z = math.log(4.0 / 3.0)
_ORACLES = {
    "laplace": dict(
        nu=lambda y: 0.5 * np.exp(-np.abs(y)),
        first=lambda y: -0.5 * np.sign(y) * np.exp(-np.abs(y)),
        second=lambda y: 0.5 * np.exp(-np.abs(y)),
        tail=lambda r: math.exp(-r),
        m1=lambda h: 0.5 * _exp_moment(1.0, 2, h) / (h * h),
        m3=lambda h: 0.5 * _exp_moment(1.0, 4, h),
        # substitute t = center + s: e^center / 2 * int_a^inf t^-p e^-t dt
        exterior=lambda x, r, p: 0.5 * np.exp(x) * (r + x) ** (1.0 - p) * exp_int(p, r + x),
    ),
    "mixed": dict(
        nu=lambda y: 1.5 * np.exp(-np.abs(y)) - 2.0 * np.exp(-2.0 * np.abs(y)),
        first=lambda y: -np.sign(y) * (1.5 * np.exp(-np.abs(y)) - np.exp(-2.0 * np.abs(y))),
        second=lambda y: 1.5 * np.exp(-np.abs(y)) - 0.5 * np.exp(-2.0 * np.abs(y)),
        tail=lambda r: 3.0 * math.exp(-r) - 2.0 * math.exp(-2.0 * r),
        m1=lambda h: (1.5 * _exp_moment(1.0, 2, h) - 2.0 * _exp_moment(2.0, 2, h)) / (h * h),
        m3=lambda h: 1.5 * _exp_moment(1.0, 4, h) - 2.0 * _exp_moment(2.0, 4, h),
        exterior=lambda x, r, p: (
            1.5 * np.exp(x) * (x + r) ** (1.0 - p) * exp_int(p, x + r)
            - 2.0 * np.exp(2.0 * x) * (x + r) ** (1.0 - p) * exp_int(p, 2.0 * (x + r))
        ),
    ),
}


@pytest.mark.parametrize("name", ["laplace", "mixed"])
def test_builtins_match_their_hand_written_formulas_bit_for_bit(name, laplace, mixed):
    kernel = laplace if name == "laplace" else mixed
    oracle = _ORACLES[name]
    ys = np.concatenate([np.linspace(-30.0, 30.0, 1201), [0.0, _Z, -_Z, 1e-300]])
    np.testing.assert_array_equal(kernel.evaluate(ys), oracle["nu"](ys))
    np.testing.assert_array_equal(kernel.antiderivative_first(ys), oracle["first"](ys))
    np.testing.assert_array_equal(kernel.antiderivative_second(ys), oracle["second"](ys))
    for radius in (0.0, 0.1, _Z, 1.0, 5.0, 10.0, 40.0):
        assert tail_mass(kernel, radius) == oracle["tail"](radius)
    for h in (1e-3, 0.01, 5.0 / 32.0, 0.25, _Z, 0.5, 1.0, 3.0):
        assert moment_f(kernel, h, 1) == oracle["m1"](h)
        assert moment_f(kernel, h, 2) == h ** 4 * oracle["m1"](h)
        assert moment_f(kernel, h, 3) == oracle["m3"](h)
    for half_width in (0.5, 5.0, 10.0, 20.0, 40.0):
        grid = build_grid(half_width, 100)
        centers = grid.spacing * np.arange(-50, 51)
        for p in (1.5, 2.0, 3.0):
            np.testing.assert_array_equal(
                kernel.exterior_moment(centers, grid.weight_radius, p),
                oracle["exterior"](centers, grid.weight_radius, p),
            )


def test_builtins_derive_their_decay_and_sign_facts(laplace, mixed):
    assert (laplace.decay_rate, laplace.decay_constant) == (1.0, 0.5)
    assert (mixed.decay_rate, mixed.decay_constant) == (1.0, 3.5)
    assert laplace.sign_class is SignClass.NONNEGATIVE and laplace.sign_changes == ()
    assert laplace.terms == ((0.5, 1.0),)
    assert mixed.terms == ((1.5, 1.0), (-2.0, 2.0))


def test_a_three_term_sum_matches_the_quadrature_route():
    # nu = e^{-y} (1.5 - 3.5 x + x^2) with x = e^{-y}: the factor is
    # (x - 1/2)(x - 3), so nu < 0 below log 2 and > 0 beyond
    kernel = _exponential_sum_kernel(
        [(1.5, 1.0), (-3.5, 2.0), (1.0, 3.0)], (math.log(2.0),), "three-term"
    )
    assert kernel.sign_class is SignClass.MIXED_WITH_POSITIVE_TAIL
    assert kernel.sign_changes == (-math.log(2.0), math.log(2.0))
    assert (kernel.decay_rate, kernel.decay_constant) == (1.0, 6.0)
    reference = kernel.without_closed_forms()
    for radius in (0.3, 1.0, 5.0, 10.0):
        closed, quad = tail_mass(kernel, radius), tail_mass(reference, radius)
        assert abs(closed - quad) <= 1e-12 * abs(quad)
    for h in (0.05, 0.5, 1.0, 2.0):
        for index in (1, 3, 4):
            closed, quad = moment_f(kernel, h, index), moment_f(reference, h, index)
            assert abs(closed - quad) <= 1e-12 * abs(quad)
    grid = build_grid(5.0, 64)
    closed = compute_weights(kernel, grid, method="closed").weights
    quad = compute_weights(kernel, grid, method="quadrature").weights
    np.testing.assert_allclose(closed, quad, rtol=0.0, atol=1e-12 * np.abs(quad).max())
    # the whole-line exterior moments, of this sum and of the mixed kernel
    for summed in (kernel, mixed_exponential_kernel()):
        for half_width in (5.0, 10.0, 20.0, 40.0):
            grid = build_grid(half_width, 64)
            for p in (1.5, 2.0, 3.0):
                decay = DecayModel(p)
                closed, _ = realline_boundary_terms(summed, grid, decay, method="closed")
                quad, _ = realline_boundary_terms(summed, grid, decay, method="quadrature")
                np.testing.assert_allclose(closed, quad, rtol=1e-12, atol=0.0)
