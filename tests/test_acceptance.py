"""Release gate.

One test per release criterion; the terminal summary prints a PASS/FAIL
line for each (see conftest).  Every test times its own work and fails if
it blows the stated budget, so a pass here certifies both the numbers and
the cost of getting them.
"""

import math
import time

import numpy as np
import pytest

from nldiff.assembly import DecayModel, assemble, realline_boundary_terms
from nldiff.expint import exp_int
from nldiff.grids import build_grid, compute_weights
from nldiff.harness import (
    algebraic_forcing,
    audit_closed_forms,
    compatibility_check,
    registry,
    run_convergence,
)
from nldiff.kernels import laplace_kernel, mixed_exponential_kernel, moment_f, tail_mass
from nldiff.quadrature import DecayCertificate, PowerDecayCertificate, adaptive_quad
from nldiff.solve import stability_report

ORDER_BAND = (1.7, 2.3)


def fitted_order(problem_id, half_width, step_counts):
    report = run_convergence(problem_id, [half_width], step_counts)
    errors = [row.linf_error for row in report.rows]
    return report.fitted_orders[(problem_id, half_width)], errors


@pytest.mark.acceptance(num=1, title="smooth Dirichlet case converges at second order")
def test_dirichlet_sech_convergence():
    start = time.perf_counter()
    order, errors = fitted_order("dirichlet-sech", 10.0, [100, 200, 400, 800])
    elapsed = time.perf_counter() - start
    assert ORDER_BAND[0] <= order <= ORDER_BAND[1]
    for coarse, fine in zip(errors, errors[1:]):
        assert coarse / fine >= 3.4
    assert elapsed < 10.0


@pytest.mark.acceptance(num=2, title="whole-line scheme converges and beats the window floor")
def test_realline_algebraic_convergence():
    start = time.perf_counter()
    finest = {}
    orders = {}
    # the same h ladder {0.2, 0.1, 0.05} at every half width
    for half_width, steps in ((10.0, [100, 200, 400]), (20.0, [200, 400, 800]), (40.0, [400, 800, 1600])):
        orders[half_width], errors = fitted_order("realline-algebraic", half_width, steps)
        finest[half_width] = errors[-1]
    elapsed = time.perf_counter() - start
    assert ORDER_BAND[0] <= orders[40.0] <= ORDER_BAND[1]
    # widening the window lowers the truncation floor
    assert finest[40.0] < finest[10.0]
    assert elapsed < 60.0


@pytest.mark.acceptance(num=3, title="discontinuous flux-closure case converges at first order")
def test_neumann_discontinuous_convergence():
    start = time.perf_counter()
    # h ladder {0.25, 0.125, 0.0625} at every half width
    for half_width, steps in ((8.0, [64, 128, 256]), (16.0, [128, 256, 512]), (32.0, [256, 512, 1024])):
        order, _ = fitted_order("neumann-discontinuous", half_width, steps)
        assert 0.8 <= order <= 1.2
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0


@pytest.mark.acceptance(num=4, title="sign-changing kernel keeps second order and positivity")
def test_mixed_kernel_dirichlet():
    start = time.perf_counter()
    order, _ = fitted_order("dirichlet-mixed-kernel", 10.0, [100, 200, 400])
    case = registry()["dirichlet-mixed-kernel"].build(10.0)
    system = assemble(case.problem, build_grid(10.0, 200))
    report = stability_report(system)
    elapsed = time.perf_counter() - start
    assert ORDER_BAND[0] <= order <= ORDER_BAND[1]
    assert report.min_eigenvalue is not None and report.min_eigenvalue > 0.0
    assert elapsed < 20.0


@pytest.mark.acceptance(num=5, title="stability battery over six grids")
def test_stability_battery():
    start = time.perf_counter()
    kernel = laplace_kernel()
    dirichlet = registry()["dirichlet-sech"]
    line = registry()["realline-algebraic"]
    for half_width in (5.0, 10.0, 20.0):
        for steps in (64, 256):
            grid = build_grid(half_width, steps)
            d = stability_report(assemble(dirichlet.build(half_width).problem, grid))
            r = stability_report(assemble(line.build(half_width).problem, grid))
            assert d.min_eigenvalue > 0.0
            assert r.contraction_norm < 1.0
            mass = tail_mass(kernel, grid.weight_radius)
            assert abs(d.symbol_values[0] - mass) <= 1e-8
            assert d.symbol_values.min() > 0.0
            assert r.symbol_values.min() > 0.0
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0


def brute_moment(kernel, h, index):
    if index == 1:
        return adaptive_quad(lambda y: y * y * kernel.evaluate(y), 0.0, h, 0.0, rel=1e-14).value / (h * h)
    if index == 2:
        return adaptive_quad(lambda y: y * y * kernel.evaluate(y), 0.0, h, 0.0, rel=1e-14).value * h * h
    if index == 3:
        return adaptive_quad(lambda y: y ** 4 * kernel.evaluate(y), 0.0, h, 0.0, rel=1e-14).value
    breaks = tuple(s for s in kernel.sign_changes if s > h)
    value = adaptive_quad(
        lambda y: np.abs(kernel.evaluate(y)),
        h,
        math.inf,
        1e-16,
        rel=1e-13,
        decay=kernel.decay(),
        breakpoints=breaks,
    ).value
    return value * h * h


@pytest.mark.acceptance(num=6, title="closed forms match brute quadrature to 1e-9 relative")
def test_oracle_equivalences():
    start = time.perf_counter()
    kernels = (laplace_kernel(), mixed_exponential_kernel())

    # quadrature weights, both routes, every node
    for kernel in kernels:
        grid = build_grid(5.0, 64)
        closed = compute_weights(kernel, grid, method="closed").weights
        brute = compute_weights(kernel, grid, method="quadrature").weights
        live = closed != 0.0
        gap = np.abs(closed[live] - brute[live]) / np.abs(closed[live])
        assert gap.max() <= 1e-9

    # exterior-data boundary terms and kernel tail masses, via the
    # registration audit (closed against quadrature, two probes each)
    checks = audit_closed_forms()
    assert len(checks) == 8
    assert max(c.gap for c in checks) <= 1e-9

    # whole-line exterior moments, closed route against quadrature route
    grid = build_grid(10.0, 100)
    decay = DecayModel(2.0)
    for kernel in kernels:
        b1_closed, b2_closed = realline_boundary_terms(kernel, grid, decay, method="closed")
        b1_brute, b2_brute = realline_boundary_terms(kernel, grid, decay, method="quadrature")
        assert float(np.max(np.abs(b1_closed - b1_brute) / np.abs(b1_closed))) <= 1e-9
        assert float(np.max(np.abs(b2_closed - b2_brute) / np.abs(b2_closed))) <= 1e-9

    # near-origin kernel moments
    for kernel in kernels:
        for h in (1.0, 0.1, 0.01):
            for index in (1, 2, 3, 4):
                closed = moment_f(kernel, h, index)
                brute = brute_moment(kernel, h, index)
                assert abs(closed - brute) / abs(brute) <= 1e-9

    # tail masses on a wider radius set than the audit uses
    for kernel in kernels:
        bare = kernel.without_closed_forms()
        for radius in (5.0, 10.0, 20.0):
            closed = tail_mass(kernel, radius)
            brute = tail_mass(bare, radius)
            assert abs(closed - brute) / abs(brute) <= 1e-9

    # the exponential-integral family against its defining integral
    for p in (1.5, 2.0, 3.0, 4.5):
        for x in (0.3, 1.0, 5.0, 20.0):
            def integrand(t, p=p, x=x):
                t = np.asarray(t, dtype=float)
                return t ** -p * np.exp(-x * t)

            brute = adaptive_quad(
                integrand, 1.0, math.inf, 1e-300, rel=1e-13, decay=DecayCertificate(x, 1.0)
            ).value
            assert abs(exp_int(p, x) - brute) / abs(brute) <= 1e-9

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0


@pytest.mark.acceptance(num=7, title="moment preflight accepts the balanced forcing, rejects perturbed ones")
def test_compatibility_preflight():
    start = time.perf_counter()
    cert = PowerDecayCertificate(4.0, 3.5)
    clean = compatibility_check(algebraic_forcing, cert, tol=1e-8)
    assert clean.passed
    assert abs(clean.mean) <= 1e-8 and abs(clean.first_moment) <= 1e-8

    def even_shift(x):
        x = np.asarray(x, dtype=float)
        return algebraic_forcing(x) + 1e-3 * np.exp(-x * x)

    def odd_shift(x):
        x = np.asarray(x, dtype=float)
        return algebraic_forcing(x) + 1e-3 * x * np.exp(-x * x)

    assert not compatibility_check(even_shift, cert, tol=1e-8).passed
    assert not compatibility_check(odd_shift, cert, tol=1e-8).passed
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0


@pytest.mark.acceptance(num=8, title="window closures compared: smooth tie, algebraic split")
def test_boundary_condition_comparison():
    start = time.perf_counter()
    # on the rapidly decaying forcing all three closures converge alike,
    # on the same h ladder (the flux closure solves a doubled window)
    for problem_id, steps in (
        ("comparison-sech-realline", [100, 200, 400]),
        ("comparison-sech-dirichlet", [100, 200, 400]),
        ("comparison-sech-neumann", [200, 400, 800]),
    ):
        order, _ = fitted_order(problem_id, 20.0, steps)
        assert ORDER_BAND[0] <= order <= ORDER_BAND[1]

    # on the algebraically decaying forcing the zero-exterior closure stalls
    # while the whole-line scheme keeps converging
    steps = [200, 400, 800, 1600, 3200]
    _, line_errors = fitted_order("comparison-algebraic-realline", 20.0, steps)
    _, diri_errors = fitted_order("comparison-algebraic-dirichlet", 20.0, steps)
    assert min(diri_errors) > 1e-4
    assert diri_errors[-1] / line_errors[-1] >= 10.0
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
