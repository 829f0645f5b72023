"""System assembly for the three problem variants.

The beyond-support boundary terms carry the subtlest code in the package, so
they are pinned against scipy.integrate.quad literals frozen offline and
against the closed expressions, through both evaluation routes.
"""

import dataclasses
import inspect
import math

import numpy as np
import pytest

from nldiff.assembly import (
    DecayModel,
    DirichletProblem,
    DiscreteSystem,
    GrowthCertificate,
    NeumannProblem,
    RealLineProblem,
    assemble,
    assemble_dirichlet,
    _dirichlet_boundary,
    assemble_realline,
    dirichlet_boundary_term,
    neumann_to_realline,
    realline_boundary_terms,
)
from nldiff.grids import build_grid, compute_weights
from nldiff.harness import mixed_boundary, mixed_forcing, sech_boundary, sech_forcing
from nldiff.kernels import SignClass, build_kernel, laplace_kernel, mixed_exponential_kernel
from nldiff.expint import exp_int
from nldiff.quadrature import DecayCertificate, adaptive_quad, adaptive_quad_many


def sech(x):
    return 1.0 / np.cosh(np.asarray(x, dtype=float))


def make_sech_problem(kernel, boundary):
    return DirichletProblem(
        kernel=kernel,
        forcing=sech_forcing if kernel.name == "laplace-exponential" else mixed_forcing,
        exterior_data=sech,
        closed_boundary_term=boundary,
        exterior_growth=GrowthCertificate(0.0, 1.0),
    )


# dirichlet boundary terms frozen from scipy.integrate.quad on the sech data,
# grid (L=5, M=64), nodes i=0 and i=16
FROZEN_B = {
    "laplace": {0: 2.0611536203116825e-09, 16: 1.2639588754549185e-08},
    "mixed": {0: 6.1832113243309472e-09, 16: 3.7917236033182903e-08},
}

# real line exterior moments frozen the same way, laplace kernel,
# grid (L=10, M=100), algebraic decay exponent q=2
FROZEN_B1 = {
    -50: 8.6946324056546901e-10,
    0: 2.3512141077141694e-10,
    50: 1.0755043686424086e-10,
}


class TestDirichletBoundaryTerm:
    @pytest.mark.parametrize("name", ["laplace", "mixed"])
    def test_closed_route_matches_frozen(self, name):
        kernel = laplace_kernel() if name == "laplace" else mixed_exponential_kernel()
        boundary = sech_boundary if name == "laplace" else mixed_boundary
        problem = make_sech_problem(kernel, boundary)
        grid = build_grid(5.0, 64)
        for i, want in FROZEN_B[name].items():
            assert dirichlet_boundary_term(problem, grid, i) == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("name", ["laplace", "mixed"])
    def test_quadrature_route_matches_frozen(self, name):
        kernel = laplace_kernel() if name == "laplace" else mixed_exponential_kernel()
        problem = make_sech_problem(kernel, None)
        grid = build_grid(5.0, 64)
        for i, want in FROZEN_B[name].items():
            assert dirichlet_boundary_term(problem, grid, i) == pytest.approx(want, rel=1e-9)

    def test_assembly_route_is_one_batch(self, counted):
        # the reference is the one-node case, once per unknown
        kernel, count = counted(laplace_kernel())
        problem = make_sech_problem(kernel, None)
        grid = build_grid(10.0, 400)
        count[0] = 0
        assemble_dirichlet(problem, grid)
        assert count[0] == 57200
        count[0] = 0
        loop = np.array([dirichlet_boundary_term(problem, grid, i) for i in range(-199, 200)])
        assert count[0] == 57200
        batch = _dirichlet_boundary(problem, grid, grid.spacing * np.arange(-199, 200))
        np.testing.assert_array_equal(batch, loop)

    def test_even_in_node_index(self):
        problem = make_sech_problem(laplace_kernel(), sech_boundary)
        grid = build_grid(5.0, 64)
        assert dirichlet_boundary_term(problem, grid, 16) == dirichlet_boundary_term(
            problem, grid, -16
        )

    def test_index_outside_solution_range(self):
        problem = make_sech_problem(laplace_kernel(), sech_boundary)
        grid = build_grid(5.0, 64)
        dirichlet_boundary_term(problem, grid, 31)
        for i in (32, -32, 100):
            with pytest.raises(ValueError):
                dirichlet_boundary_term(problem, grid, i)

    def test_index_must_be_an_integer(self):
        # index 1.5 once returned 2.1e-9, the boundary term at no node
        problem = make_sech_problem(laplace_kernel(), None)
        grid = build_grid(5.0, 64)
        with pytest.raises(TypeError, match="node index must be an integer"):
            dirichlet_boundary_term(problem, grid, 1.5)
        assert dirichlet_boundary_term(problem, grid, np.int64(16)) == dirichlet_boundary_term(
            problem, grid, 16
        )

    @pytest.mark.parametrize("half_width", [5.0, 10.0])
    @pytest.mark.parametrize("degree", [0.0, 1.0])
    def test_one_tail_per_node_matches_the_two_tail_sum(self, half_width, degree):
        # each node's beyond-support term as one integral of g(x - y) +
        # g(x + y) against its left and right tails integrated apart, each
        # under its own certificate, as they were before the two folded
        kernel = laplace_kernel()
        growth = GrowthCertificate(degree, 1.0)
        problem = dataclasses.replace(make_sech_problem(kernel, None), exterior_growth=growth)
        grid = build_grid(half_width, 64)
        radius = grid.weight_radius
        x = grid.spacing * np.arange(-31, 32)
        one = _dirichlet_boundary(problem, grid, x)

        base = DecayCertificate(kernel.decay_rate, kernel.decay_constant * growth.constant)
        side_cert = base.times_power(degree, 1.0 + np.abs(x))
        sides = [
            adaptive_quad_many(
                lambda y, owner: sech(x[owner] - sign * y) * kernel.evaluate(y),
                np.full(x.size, radius), math.inf,
                np.maximum(1e-12 * side_cert.tail_bound(radius), 1e-300), rel=1e-12,
                decay=side_cert,
            ).value
            for sign in (1.0, -1.0)
        ]
        pair = DecayCertificate(kernel.decay_rate, 2.0 * kernel.decay_constant * growth.constant)
        tail = pair.times_power(degree, 1.0 + np.abs(x)).tail_bound(radius)
        assert np.all(np.abs(one - (sides[0] + sides[1])) <= 1e-12 * tail)

    def test_refuses_without_closed_form_or_certificate(self):
        problem = DirichletProblem(
            kernel=laplace_kernel(),
            forcing=sech_forcing,
            exterior_data=sech,
        )
        grid = build_grid(5.0, 64)
        with pytest.raises(ValueError):
            dirichlet_boundary_term(problem, grid, 0)
        with pytest.raises(ValueError):
            assemble(problem, grid)


class TestDirichletSystem:
    def test_zero_exterior_data_leaves_forcing_alone(self):
        problem = DirichletProblem(
            kernel=laplace_kernel(),
            forcing=lambda x: np.cos(x),
            exterior_data=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
            closed_boundary_term=lambda x, radius: np.zeros_like(np.asarray(x, dtype=float)),
        )
        grid = build_grid(5.0, 64)
        system = assemble(problem, grid)
        np.testing.assert_array_equal(system.rhs, np.cos(grid.spacing * system.indices))

    def test_matrix_is_symmetric_toeplitz(self):
        problem = make_sech_problem(laplace_kernel(), sech_boundary)
        grid = build_grid(5.0, 64)
        system = assemble(problem, grid)
        a = system.operator.dense()
        assert a.shape == (63, 63)
        np.testing.assert_array_equal(a, a.T)
        for off in (0, 1, 17):
            diag = np.diagonal(a, off)
            np.testing.assert_array_equal(diag, diag[0])

    def test_diagonal_and_offdiagonal_entries(self):
        kernel = laplace_kernel()
        grid = build_grid(5.0, 64)
        ws = compute_weights(kernel, grid)
        system = assemble(make_sech_problem(kernel, sech_boundary), grid)
        matrix = system.operator.dense()
        assert matrix[0, 0] == ws.total + ws.tail_mass
        assert matrix[3, 10] == -ws.weights[grid.steps + 7]

    def test_variant_and_bookkeeping(self):
        grid = build_grid(5.0, 64)
        system = assemble(make_sech_problem(laplace_kernel(), sech_boundary), grid)
        assert system.variant == "dirichlet"
        assert system.indices[0] == -31 and system.indices[-1] == 31
        assert system.problem.exterior_data is not None


def three_problems():
    """A Dirichlet, a whole-line and a flux-closure problem on one kernel."""
    kernel = laplace_kernel()
    return {
        "dirichlet": make_sech_problem(kernel, sech_boundary),
        "realline": RealLineProblem(kernel=kernel, forcing=np.cos, decay=DecayModel(2.0)),
        "neumann": NeumannProblem(
            kernel=kernel,
            forcing=np.cos,
            exterior_forcing=np.sin,
            split_radius=1.0,
            decay=DecayModel(2.0),
        ),
    }


class TestDiscreteSystem:
    def test_fields_are_the_problem_grid_operator_and_rhs(self):
        names = [field.name for field in dataclasses.fields(DiscreteSystem)]
        assert names == ["problem", "grid", "operator", "rhs"]

    def test_frozen(self):
        system = assemble(three_problems()["realline"], build_grid(5.0, 64))
        for name in ("problem", "grid", "operator", "rhs", "variant", "indices"):
            with pytest.raises(AttributeError):
                setattr(system, name, None)

    @pytest.mark.parametrize("variant", ["dirichlet", "realline", "neumann"])
    def test_variant_follows_the_problem(self, variant):
        problem = three_problems()[variant]
        system = assemble(problem, build_grid(5.0, 64))
        assert system.variant == variant
        # the flux closure keeps its own problem, not the whole-line rewrite
        assert system.problem is problem

    @pytest.mark.parametrize("steps", [4, 6, 64, 400])
    def test_indices_are_the_assemblers_ranges(self, steps):
        k = steps // 2
        want = {
            "dirichlet": np.arange(-k + 1, k),
            "realline": np.arange(-k, k + 1),
            "neumann": np.arange(-k, k + 1),
        }
        for variant, problem in three_problems().items():
            system = assemble(problem, build_grid(5.0, steps))
            assert system.operator.size == want[variant].size
            np.testing.assert_array_equal(system.indices, want[variant])


def loop_exterior_sums(weights, g_right, g_left, idx):
    # direct O(n M) sums: node i against the exterior nodes h*(k + t)
    m = weights.grid.steps
    k = m // 2
    w = weights.weights
    right, left = np.empty(idx.size), np.empty(idx.size)
    for r, i in enumerate(idx):
        js = np.arange(-m, i - k + 1)
        right[r] = w[js + m] @ g_right[i - k - js]
        js = np.arange(i + k, m + 1)
        left[r] = w[js + m] @ g_left[js - i - k]
    return right, left


class TestExteriorSums:
    def test_dirichlet_convolution_matches_direct_sums(self):
        kernel = laplace_kernel()
        grid = build_grid(4.0, 40)
        ws = compute_weights(kernel, grid)
        # an asymmetric exterior so the two sides cannot stand in for each other
        data = lambda x: np.exp(-0.1 * np.asarray(x, dtype=float)) / (1.0 + np.asarray(x) ** 2)
        problem = DirichletProblem(
            kernel=kernel,
            forcing=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
            exterior_data=data,
            closed_boundary_term=lambda x, radius: np.zeros_like(np.asarray(x, dtype=float)),
        )
        system = assemble(problem, grid)
        h, k, m = grid.spacing, grid.steps // 2, grid.steps
        ext = h * np.arange(k, k + m + 1)
        right, left = loop_exterior_sums(ws, data(ext), data(-ext), system.indices)
        want = right + left
        np.testing.assert_allclose(system.rhs, want, rtol=0, atol=1e-14 * np.abs(want).max())

    def test_realline_convolution_matches_direct_sums(self):
        kernel = mixed_exponential_kernel()
        grid = build_grid(4.0, 40)
        ws = compute_weights(kernel, grid)
        decay = DecayModel(1.5)
        system = assemble_realline(RealLineProblem(kernel, np.cos, decay), grid)
        h, k, m = grid.spacing, grid.steps // 2, grid.steps
        prof = np.zeros(m + 1)
        prof[1:] = (grid.half_width / (h * np.arange(k + 1, k + m + 1))) ** 1.5
        right, left = loop_exterior_sums(ws, prof, prof, system.indices)
        b1, b2 = realline_boundary_terms(kernel, grid, decay)
        edge = system.operator.edge
        scale = np.abs(edge).max()
        np.testing.assert_allclose(edge, right + b1, rtol=0, atol=1e-14 * scale)
        np.testing.assert_allclose(edge[::-1], left + b2, rtol=0, atol=1e-14 * scale)


class TestRealLineBoundaryTerms:
    def test_frozen_values(self):
        grid = build_grid(10.0, 100)
        b1, _ = realline_boundary_terms(laplace_kernel(), grid, DecayModel(2.0))
        for i, want in FROZEN_B1.items():
            assert b1[i + 50] == pytest.approx(want, rel=1e-9)

    def test_closed_identity(self):
        # laplace kernel: b1_i = L^q * e^{x_i}/2 * (R + x_i)^{1-q} E_q(R + x_i)
        grid = build_grid(10.0, 100)
        q = 2.0
        b1, _ = realline_boundary_terms(laplace_kernel(), grid, DecayModel(q))
        radius = grid.weight_radius
        for i in (-50, -7, 0, 13, 50):
            arg = radius + grid.node(i)
            want = 10.0 ** q * 0.5 * math.exp(grid.node(i)) * arg ** (1.0 - q) * exp_int(q, arg)
            assert b1[i + 50] == pytest.approx(want, rel=1e-13)

    def test_mirror_is_exact_reverse(self):
        grid = build_grid(10.0, 100)
        b1, b2 = realline_boundary_terms(laplace_kernel(), grid, DecayModel(2.0))
        np.testing.assert_array_equal(b2, b1[::-1])

    def test_routes_agree(self):
        grid = build_grid(10.0, 100)
        decay = DecayModel(2.0)
        closed, _ = realline_boundary_terms(laplace_kernel(), grid, decay, method="closed")
        quad, _ = realline_boundary_terms(laplace_kernel(), grid, decay, method="quadrature")
        np.testing.assert_allclose(quad, closed, rtol=1e-9)

    def test_quadrature_route_is_one_batch(self, counted):
        # the reference is one adaptive quadrature per node
        kernel, count = counted(laplace_kernel())
        grid = build_grid(10.0, 400)
        b1, _ = realline_boundary_terms(kernel, grid, DecayModel(2.0), method="quadrature")
        assert count[0] == 105864
        count[0] = 0
        radius = grid.weight_radius
        cert = kernel.decay().times_power(-2.0, radius - grid.half_width)
        tol = 1e-12 * cert.tail_bound(radius)
        loop = np.array(
            [
                10.0 ** 2
                * adaptive_quad(
                    lambda s: np.abs(center + s) ** -2.0 * kernel.evaluate(s),
                    radius,
                    math.inf,
                    tol,
                    rel=1e-12,
                    decay=cert,
                ).value
                for center in grid.spacing * np.arange(-200, 201)
            ]
        )
        assert count[0] == 105864
        np.testing.assert_allclose(b1, loop, rtol=1e-14, atol=0.0)

    def test_quadrature_route_touches_no_closed_form(self):
        # terms far from the kernel's own: a closed moment leaking into the
        # quadrature route would show as a wrong number
        grid = build_grid(10.0, 100)
        decay = DecayModel(2.0)
        rigged = dataclasses.replace(laplace_kernel(), terms=((5.0, 0.1),))
        quad, _ = realline_boundary_terms(rigged, grid, decay, method="quadrature")
        closed, _ = realline_boundary_terms(laplace_kernel(), grid, decay)
        np.testing.assert_allclose(quad, closed, rtol=1e-9)
        wrong, _ = realline_boundary_terms(rigged, grid, decay)
        assert not np.allclose(wrong, closed, rtol=1e-2)

    def test_mixed_kernel_closed_moment_matches_quadrature(self):
        grid = build_grid(5.0, 64)
        kernel = mixed_exponential_kernel()
        decay = DecayModel(2.0)
        b1, _ = realline_boundary_terms(kernel, grid, decay)
        assert np.all(np.isfinite(b1)) and b1.min() > 0.0
        closed, _ = realline_boundary_terms(kernel, grid, decay, method="closed")
        quad, _ = realline_boundary_terms(kernel, grid, decay, method="quadrature")
        np.testing.assert_array_equal(closed, b1)
        np.testing.assert_allclose(closed, quad, rtol=1e-12)
        with pytest.raises(ValueError):
            realline_boundary_terms(kernel.without_closed_forms(), grid, decay, method="closed")

    @pytest.mark.parametrize("half_width", [360.0, 720.0])
    def test_far_windows_on_both_routes(self, half_width):
        # from L=360 every tail starts beyond the quadrature route's
        # truncation point; at L=720 e^(a x) overflows in the closed moment
        grid = build_grid(half_width, int(2 * half_width))
        decay = DecayModel(2.0)
        for kernel in (laplace_kernel(), mixed_exponential_kernel()):
            closed, _ = realline_boundary_terms(kernel, grid, decay, method="closed")
            quad, _ = realline_boundary_terms(kernel, grid, decay, method="quadrature")
            assert np.all(np.isfinite(closed)) and closed.min() >= 0.0
            assert closed.max() <= 1e-300 and not quad.any()

    @pytest.mark.parametrize("kernel", [laplace_kernel(), mixed_exponential_kernel()])
    def test_steep_decay_on_both_routes(self, kernel):
        # 10 ** 400 leaves the floats and (x + R) ** -399 underflows; the
        # ratio (L / |x + s|) ** 400 does neither
        grid = build_grid(10.0, 100)
        decay = DecayModel(400.0)
        closed, _ = realline_boundary_terms(kernel, grid, decay, method="closed")
        quad, _ = realline_boundary_terms(kernel, grid, decay, method="quadrature")
        assert np.all(np.isfinite(closed)) and closed.min() > 0.0
        np.testing.assert_allclose(quad, closed, rtol=0.0, atol=1e-9 * closed.max())
        # at the left edge node the ratio starts at 1 and falls like
        # e^(-40 t) against the kernel's e^(-t), so B1 is near nu(R) / 41
        kernel_at_radius = float(kernel.evaluate(np.array([grid.weight_radius]))[0])
        assert closed[0] == pytest.approx(kernel_at_radius / 41.0, rel=0.05)

    @pytest.mark.parametrize("kernel", [laplace_kernel(), mixed_exponential_kernel()])
    def test_steep_decay_on_a_narrow_window(self, kernel):
        # at L = 0.5 the exterior moments take E_400 at arguments <= 1, the
        # series branch, whose x**399 / 399! once overflowed in the factorial
        grid = build_grid(0.5, 16)
        decay = DecayModel(400.0)
        closed, _ = realline_boundary_terms(kernel, grid, decay, method="closed")
        quad, _ = realline_boundary_terms(kernel, grid, decay, method="quadrature")
        np.testing.assert_allclose(closed, quad, rtol=1e-12, atol=1e-300)
        system = assemble(RealLineProblem(kernel, np.cos, decay), grid)
        assert np.all(np.isfinite(system.rhs))

    @pytest.mark.parametrize("exponent", [400.0, 1000.0])
    @pytest.mark.parametrize("kernel", [laplace_kernel(), mixed_exponential_kernel()])
    def test_steep_decay_certified_per_node(self, kernel, exponent):
        # node i's ratio is bounded by (L / (R + x_i))^q, its own bound; one
        # tolerance from the worst node left the far nodes up to 88% off at
        # q = 400.  At q = 1000 the far nodes' bounds would underflow; they
        # run at the 1e-300 tolerance floor instead of being refused
        grid = build_grid(10.0, 100)
        decay = DecayModel(exponent)
        closed, _ = realline_boundary_terms(kernel, grid, decay, method="closed")
        quad, _ = realline_boundary_terms(kernel, grid, decay, method="quadrature")
        np.testing.assert_allclose(quad, closed, rtol=1e-9, atol=1e-300)

    def test_closed_route_is_a_capability_not_a_name(self):
        # e^{-2|y|} carrying the exponential kernel's name has no closed
        # moment; the exp_int formula is off by four orders of magnitude here
        impostor = build_kernel(
            lambda y: np.exp(-2.0 * np.abs(y)),
            decay_rate=2.0,
            sign_class=SignClass.NONNEGATIVE,
            name="laplace-exponential",
        )
        grid = build_grid(5.0, 64)
        decay = DecayModel(2.0)
        auto, _ = realline_boundary_terms(impostor, grid, decay)
        quad, _ = realline_boundary_terms(impostor, grid, decay, method="quadrature")
        np.testing.assert_allclose(auto, quad, rtol=1e-9)
        with pytest.raises(ValueError):
            realline_boundary_terms(impostor, grid, decay, method="closed")
        assert laplace_kernel().without_closed_forms().terms is None

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            realline_boundary_terms(
                laplace_kernel(), build_grid(5.0, 64), DecayModel(2.0), method="bogus"
            )


class TestRealLineSystem:
    def test_interior_block_matches_dirichlet_core(self):
        kernel = laplace_kernel()
        grid = build_grid(5.0, 64)
        line = assemble_realline(
            RealLineProblem(kernel=kernel, forcing=np.cos, decay=DecayModel(2.0)), grid
        )
        diri = assemble_dirichlet(make_sech_problem(kernel, sech_boundary), grid)
        line_matrix = line.operator.dense()
        assert line_matrix.shape == (65, 65)
        np.testing.assert_array_equal(line_matrix[1:-1, 1:-1], diri.operator.dense())

    def test_edge_columns_absorb_exterior(self):
        kernel = laplace_kernel()
        grid = build_grid(5.0, 64)
        ws = compute_weights(kernel, grid)
        problem = RealLineProblem(kernel=kernel, forcing=np.cos, decay=DecayModel(2.0))
        system = assemble_realline(problem, grid)
        matrix = system.operator.dense()
        base = ws.total + ws.tail_mass
        # edge columns sit strictly below the unmodified toeplitz values
        assert matrix[0, 0] < base
        assert matrix[-1, -1] < base
        assert matrix[5, 0] < -ws.weights[grid.steps + 5]
        np.testing.assert_array_equal(system.rhs, np.cos(grid.spacing * system.indices))
        assert system.variant == "realline"
        assert system.problem is problem


class TestNeumann:
    def test_closed_forcing_branches(self):
        problem = NeumannProblem(
            kernel=laplace_kernel(),
            forcing=lambda x: np.asarray(x, dtype=float) ** 2,
            exterior_forcing=lambda x: np.full_like(np.asarray(x, dtype=float), 7.0),
            split_radius=1.0,
            decay=DecayModel(2.0),
        )
        closed = neumann_to_realline(problem)
        vals = closed.forcing(np.array([-2.0, -1.0, -0.5, 0.0, 0.999, 1.0, 3.0]))
        np.testing.assert_array_equal(
            vals, [7.0, 7.0, 0.25, 0.0, 0.999 ** 2, 7.0, 7.0]
        )

    def test_degenerate_split_matches_realline(self):
        # identical interior and exterior branches collapse to the plain
        # whole-line problem
        kernel = laplace_kernel()
        grid = build_grid(5.0, 64)
        f = lambda x: np.cos(np.asarray(x, dtype=float))
        neumann = NeumannProblem(
            kernel=kernel,
            forcing=f,
            exterior_forcing=f,
            split_radius=1.0,
            decay=DecayModel(2.0),
        )
        line = RealLineProblem(kernel=kernel, forcing=f, decay=DecayModel(2.0))
        sys_n = assemble(neumann, grid)
        sys_l = assemble(line, grid)
        np.testing.assert_array_equal(sys_n.operator.dense(), sys_l.operator.dense())
        np.testing.assert_array_equal(sys_n.rhs, sys_l.rhs)
        assert sys_n.variant == "neumann"
        assert sys_n.problem is neumann

    def test_split_radius_must_sit_inside_grid(self):
        problem = NeumannProblem(
            kernel=laplace_kernel(),
            forcing=np.cos,
            exterior_forcing=np.cos,
            split_radius=5.0,
            decay=DecayModel(2.0),
        )
        with pytest.raises(ValueError):
            assemble(problem, build_grid(5.0, 64))

    def test_split_radius_positive(self):
        with pytest.raises(ValueError):
            NeumannProblem(
                kernel=laplace_kernel(),
                forcing=np.cos,
                exterior_forcing=np.cos,
                split_radius=0.0,
                decay=DecayModel(2.0),
            )


class TestCertificates:
    def test_decay_model_validation(self):
        with pytest.raises(ValueError):
            DecayModel(0.0)
        with pytest.raises(ValueError):
            DecayModel(-1.0)

    @pytest.mark.parametrize("exponent", [math.inf, math.nan])
    def test_decay_model_refuses_a_non_finite_exponent(self, exponent):
        # an infinite exponent would reach exp_int and stall its continued
        # fraction at assembly
        with pytest.raises(ValueError, match="positive and finite"):
            DecayModel(exponent)

    def test_decay_profile_clamps_at_edge(self):
        model = DecayModel(2.0)
        np.testing.assert_allclose(
            model.profile(np.array([0.5, 10.0, -20.0]), 10.0), [1.0, 1.0, 0.25]
        )

    def test_growth_certificate_validation(self):
        with pytest.raises(ValueError):
            GrowthCertificate(-1.0, 1.0)
        with pytest.raises(ValueError):
            GrowthCertificate(1.0, 0.0)

    @pytest.mark.parametrize(
        "degree, constant", [(math.nan, 1.0), (math.inf, 1.0), (0.0, math.inf), (0.0, math.nan)]
    )
    def test_growth_certificate_refuses_non_finite_fields(self, degree, constant):
        # a NaN degree once passed `degree < 0 or constant <= 0` and failed
        # only at assembly, in the decay certificate built from it
        with pytest.raises(ValueError, match="finite degree >= 0 and constant > 0"):
            GrowthCertificate(degree, constant)

    def test_one_decay_certificate_per_batch(self, monkeypatch):
        # each route call builds one certificate for its whole batch, with a
        # constant per integral, and not one per node (399 and 401 at M=400)
        built = []
        validate = DecayCertificate.__post_init__

        def counting(cert):
            built.append(cert)
            validate(cert)

        monkeypatch.setattr(DecayCertificate, "__post_init__", counting)
        grid = build_grid(10.0, 400)
        for kernel in (laplace_kernel(), mixed_exponential_kernel()):
            built.clear()
            realline_boundary_terms(kernel, grid, DecayModel(2.0), method="quadrature")
            assert 1 <= len(built) <= 4
        problem = make_sech_problem(laplace_kernel(), None)
        # sech is also bounded by (1 + |x|)^1, which gives every node its
        # own constant
        for growth in (problem.exterior_growth, GrowthCertificate(1.0, 1.0)):
            built.clear()
            assemble(dataclasses.replace(problem, exterior_growth=growth), grid)
            assert 1 <= len(built) <= 4

    def test_unknown_problem_type(self):
        with pytest.raises(TypeError):
            assemble(object(), build_grid(5.0, 64))


def test_assembly_takes_no_weight_table():
    # a table built for another grid would enter assembly unchecked, and the
    # residual check would certify the wrong system (nodal values 0.52 off
    # on dirichlet-sech at L = 10 with the table of L = 5)
    for assembler in (assemble, assemble_dirichlet, assemble_realline):
        assert list(inspect.signature(assembler).parameters) == ["problem", "grid"]
