"""Lattice construction and quadrature weights.

Weight values are pinned three ways: against scipy.integrate.quad literals
frozen offline, against the package's own per-hat quadrature route, and
against the exact sum identity that ties the weights to the kernel's
near-origin mass.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nldiff.grids import _hat_integrals, build_grid, compute_weights, hat_tail_integral
from nldiff.kernels import laplace_kernel, mixed_exponential_kernel, moment_f
from nldiff.quadrature import adaptive_quad


@pytest.fixture(scope="module")
def laplace():
    return laplace_kernel()


@pytest.fixture(scope="module")
def mixed():
    return mixed_exponential_kernel()


class TestGrid:
    def test_geometry(self):
        g = build_grid(10.0, 100)
        assert g.spacing == 0.2
        assert g.weight_radius == 20.0
        nodes = g.nodes()
        assert nodes.shape == (201,)
        assert nodes[0] == -20.0
        assert nodes[-1] == 20.0
        assert g.node(3) == pytest.approx(0.6, abs=1e-15)

    @pytest.mark.parametrize("steps", [3, 5, 99])
    def test_odd_steps_rejected(self, steps):
        with pytest.raises(ValueError):
            build_grid(10.0, steps)

    def test_too_few_steps_rejected(self):
        with pytest.raises(ValueError):
            build_grid(10.0, 2)

    def test_nonpositive_half_width_rejected(self):
        with pytest.raises(ValueError):
            build_grid(0.0, 8)
        with pytest.raises(ValueError):
            build_grid(-1.0, 8)

    @pytest.mark.parametrize("half_width", [math.inf, -math.inf, math.nan])
    def test_nonfinite_half_width_rejected(self, half_width):
        with pytest.raises(ValueError, match="finite"):
            build_grid(half_width, 8)


class TestHatTailIntegral:
    def test_interior_matches_direct_quadrature(self, laplace):
        g = build_grid(2.0, 8)
        h = g.spacing
        for j in (2, 3, 7):
            xj = g.node(j)
            hat = lambda y: np.maximum(0.0, 1.0 - np.abs(y - xj) / h)
            direct = adaptive_quad(
                lambda y: hat(y) * laplace.evaluate(y), xj - h, xj + h, 0.0,
                rel=1e-13, breakpoints=(xj,),
            ).value
            assert hat_tail_integral(laplace, g, j) == pytest.approx(direct, rel=1e-12)

    def test_closed_interior_value(self, laplace):
        # grid (L=2, M=8), j=3: (1/h)[F(x4) - 2F(x3) + F(x2)], F = e^{-|y|}/2
        g = build_grid(2.0, 8)
        want = 2.0 * (
            0.5 * math.exp(-2.0) - math.exp(-1.5) + 0.5 * math.exp(-1.0)
        )
        assert hat_tail_integral(laplace, g, 3) == pytest.approx(want, rel=1e-14)

    def test_even_in_j(self, laplace, mixed):
        g = build_grid(5.0, 64)
        for kernel in (laplace, mixed):
            for j in (1, 2, 31, 64):
                assert hat_tail_integral(kernel, g, j) == hat_tail_integral(kernel, g, -j)

    def test_edge_cases_match_quadrature_fallback(self, laplace):
        g = build_grid(2.0, 8)
        stripped = laplace.without_closed_forms()
        for j in (1, 8):
            closed = hat_tail_integral(laplace, g, j)
            fallback = hat_tail_integral(stripped, g, j)
            assert closed == pytest.approx(fallback, rel=1e-10)

    def test_out_of_range_rejected(self, laplace):
        g = build_grid(2.0, 8)
        with pytest.raises(ValueError):
            hat_tail_integral(laplace, g, 0)
        with pytest.raises(ValueError):
            hat_tail_integral(laplace, g, 9)


# weights frozen from scipy.integrate.quad hat integrals at (L=5, M=64)
FROZEN_WEIGHTS = {
    "laplace": [(1, 0.054910263965970221), (7, 0.026221880596477398), (64, 1.8695249671930146e-06)],
    "mixed": [(1, -0.021107660647873019), (7, 0.043317851619384867), (64, 5.6082165052773287e-06)],
}


class TestWeights:
    def test_center_weight_zero(self, laplace):
        ws = compute_weights(laplace, build_grid(5.0, 64))
        assert ws.weight(0) == 0.0

    def test_even(self, laplace, mixed):
        g = build_grid(10.0, 100)
        for kernel in (laplace, mixed):
            ws = compute_weights(kernel, g)
            for j in range(1, 101):
                assert ws.weight(j) == ws.weight(-j)

    def test_nonnegative_kernel_gives_nonnegative_weights(self, laplace):
        ws = compute_weights(laplace, build_grid(10.0, 100))
        assert ws.weights.min() >= 0.0

    def test_frozen_spot_values(self, laplace, mixed):
        g = build_grid(5.0, 64)
        for name, kernel in (("laplace", laplace), ("mixed", mixed)):
            ws = compute_weights(kernel, g)
            for j, want in FROZEN_WEIGHTS[name]:
                assert ws.weight(j) == pytest.approx(want, rel=1e-9)

    def test_routes_agree(self, laplace, mixed):
        # per node, including the tiny weights next to the mixed kernel's
        # sign change (j = +-23 at M = 1600)
        for grid, rtol in ((build_grid(5.0, 64), 1e-10), (build_grid(10.0, 1600), 1e-9)):
            for kernel in (laplace, mixed):
                closed = compute_weights(kernel, grid, method="closed").weights
                quad = compute_weights(kernel, grid, method="quadrature").weights
                nz = closed != 0.0
                gaps = np.abs(closed[nz] - quad[nz]) / np.abs(closed[nz])
                assert gaps.max() <= rtol

    def test_quadrature_route_is_one_batch(self, mixed, counted):
        # the reference is one adaptive quadrature per hat
        kernel, count = counted(mixed.without_closed_forms())
        grid = build_grid(10.0, 1600)
        m, h = grid.steps, grid.spacing
        nodes = np.arange(1, m + 1)
        batch = _hat_integrals(kernel, grid, nodes)
        assert count[0] == 70444
        count[0] = 0
        loop = np.empty(m)
        for r, node in enumerate(nodes):
            center = h * node
            lo = h * (node if node == 1 else node - 1)
            hi = h * (node if node == m else node + 1)

            def integrand(y, center=center):
                return np.clip(1.0 - np.abs(y - center) / h, 0.0, None) * kernel.evaluate(y)

            breaks = (center,) if lo < center < hi else ()
            loop[r] = adaptive_quad(integrand, lo, hi, 0.0, rel=1e-13, breakpoints=breaks).value
        assert count[0] == 70444
        np.testing.assert_allclose(batch, loop, rtol=1e-14, atol=0.0)

    def test_quadrature_route_touches_no_closed_form(self, laplace):
        # terms far from the kernel's own: any closed form leaking into the
        # quadrature route would show as a wrong weight or tail mass
        rigged = dataclasses.replace(laplace, terms=((5.0, 0.1),))
        g = build_grid(5.0, 64)
        truth = compute_weights(laplace, g)
        quad = compute_weights(rigged, g, method="quadrature")
        np.testing.assert_allclose(quad.weights, truth.weights, rtol=1e-10)
        assert quad.tail_mass == pytest.approx(truth.tail_mass, rel=1e-10)
        wrong = compute_weights(rigged, g)
        assert not np.allclose(wrong.weights, truth.weights, rtol=1e-2)
        assert not wrong.tail_mass == pytest.approx(truth.tail_mass, rel=1e-2)
        with pytest.raises(ValueError, match="no closed forms"):
            compute_weights(laplace.without_closed_forms(), g, method="closed")

    def test_interior_weights_track_kernel(self, laplace):
        # w_j = nu(x_j) h + O(h^2) away from the edges
        g = build_grid(10.0, 400)
        h = g.spacing
        ws = compute_weights(laplace, g)
        for j in (5, 40, 200, 399):
            expected = float(laplace.evaluate(g.node(j))) * h
            assert abs(ws.weight(j) - expected) <= 1.0 * h * h

    def test_sum_identity(self, laplace, mixed):
        """1 - (sum of weights + tail mass) equals the kernel mass the hats
        cannot see: 2 int_0^h (1 - y^2/h^2) nu dy, exactly.

        The sum converges to 1 only at O(h), and overshoots 1 for the
        sign-changing kernel where nu(0) < 0; only the nonnegative kernel
        obeys the one-sided bound.
        """
        for kernel in (laplace, mixed):
            for half_width, steps in ((10.0, 100), (10.0, 4096), (5.0, 64)):
                g = build_grid(half_width, steps)
                ws = compute_weights(kernel, g)
                h = g.spacing
                near = adaptive_quad(kernel.evaluate, 0.0, h, 0.0, rel=1e-14).value
                deficit = 2.0 * (near - moment_f(kernel, h, 1))
                total = ws.total + ws.tail_mass
                assert abs((1.0 - total) - deficit) <= 1e-12

    def test_sum_one_sided_for_nonnegative_kernel(self, laplace):
        for half_width, steps in ((10.0, 100), (10.0, 4096)):
            ws = compute_weights(laplace, build_grid(half_width, steps))
            assert ws.total + ws.tail_mass <= 1.0 + 1e-12

    def test_sum_approaches_one_under_refinement(self, laplace):
        g_coarse = build_grid(10.0, 128)
        g_fine = build_grid(10.0, 2048)
        gap = lambda g: abs(
            1.0 - (compute_weights(laplace, g).total + compute_weights(laplace, g).tail_mass)
        )
        coarse, fine = gap(g_coarse), gap(g_fine)
        assert fine < coarse / 10.0
        # first order: the gap tracks (4/3) nu(0) h
        h = g_fine.spacing
        assert fine == pytest.approx(4.0 / 3.0 * 0.5 * h, rel=0.05)


@settings(max_examples=15, deadline=None)
@given(
    st.floats(min_value=2.0, max_value=12.0),
    st.sampled_from([8, 16, 32, 64]),
)
def test_weight_sum_below_one_any_laplace_grid(half_width, steps):
    kernel = laplace_kernel()
    ws = compute_weights(kernel, build_grid(half_width, steps))
    assert 0.0 < ws.total + ws.tail_mass <= 1.0 + 1e-12
