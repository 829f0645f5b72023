"""Linear solve, reconstruction, and stability diagnostics.

The symbol samples have independent closed forms for both built-in kernels,
derived by integrating 2 sin^2 against the exponentials term by term; those
pin _symbol_samples through the public stability report.  The package's own
closed samples are checked against the quadrature table of the same kernel
stripped of its terms, and their rounding bound against 50-digit samples.
A kernel without closed forms is checked against one adaptive quadrature
per mode instead.
"""

import dataclasses
import importlib
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nldiff.assembly import (
    DecayModel,
    DirichletProblem,
    NeumannProblem,
    RealLineProblem,
    assemble,
)
from nldiff.grids import build_grid
from nldiff.harness import registry
from nldiff.kernels import (
    SignClass,
    build_kernel,
    laplace_kernel,
    mixed_exponential_kernel,
    tail_mass,
)
from nldiff.operator import MAX_DENSE_SIZE, StructuredOperator, fast_length
from nldiff.quadrature import _versine_panels, adaptive_quad
from nldiff.solve import (
    SolveError,
    _preconditioned_cg,
    _symbol_samples,
    evaluate_solution,
    solve,
    stability_report,
)


def sech(x):
    return 1.0 / np.cosh(np.asarray(x, dtype=float))


def _dense_sine_block(operator):
    """Leading n x n block of 2 / (n' + 1) S diag(1 / lambda) S, S the DST-I
    of length n' = fast_length(n + 1) - 1, lambda_j the symbol truncated to
    the column's lags at pi j / (n' + 1); a lambda_j <= 0 takes the smallest
    Fejer sample."""
    n = operator.size
    half = fast_length(n + 1)
    j = np.arange(1, half)[:, None]
    # j k taken mod 2 (n' + 1) keeps every argument below 2 pi
    sine = np.sin(math.pi * ((j * np.arange(1, n + 1)) % (2 * half)) / half)
    cosine = np.cos(math.pi * ((j * np.arange(1, n)) % (2 * half)) / half)
    column = operator.column
    eigenvalues = column[0] + 2.0 * (cosine @ column[1:])
    eigenvalues[eigenvalues <= 0.0] = operator.circulant_eigenvalues().min()
    return (2.0 / half) * ((sine.T / eigenvalues) @ sine)


@pytest.fixture(scope="module")
def sech_system():
    case = registry()["dirichlet-sech"].build(10.0)
    return assemble(case.problem, build_grid(10.0, 400))


@pytest.fixture(scope="module")
def line_system():
    case = registry()["realline-algebraic"].build(10.0)
    return assemble(case.problem, build_grid(10.0, 100))


class TestSolve:
    def test_residual_diagnostics(self, sech_system):
        solution = solve(sech_system)
        d = solution.diagnostics
        assert d["residual_inf"] <= d["residual_bound"]
        assert d["residual_l2_weighted"] == pytest.approx(
            math.sqrt(sech_system.grid.spacing) * d["residual_l2"], rel=1e-15
        )

    def test_sech_dirichlet_accuracy(self, sech_system):
        solution = solve(sech_system)
        truth = sech(sech_system.grid.spacing * solution.system.indices)
        assert np.abs(solution.values - truth).max() <= 5e-4

    def test_singular_matrix_raises_with_condition_estimate(self, sech_system):
        size = sech_system.operator.size
        broken = dataclasses.replace(
            sech_system, operator=StructuredOperator(np.zeros(size))
        )
        with pytest.raises(SolveError) as err:
            solve(broken)
        assert err.value.condition_estimate == math.inf
        assert err.value.iterations == 0
        assert err.value.residual == np.abs(sech_system.rhs).max()

    def test_tail_recorded_for_realline(self, line_system):
        solution = solve(line_system)
        decay = solution.system.problem.decay
        assert decay.exponent == 2.0
        assert solution.system.variant == "realline"
        # the tail is anchored at the last node value, bit for bit
        w = line_system.grid.half_width
        assert evaluate_solution(solution, 3.0 * w) == (
            solution.values[-1] * decay.profile(3.0 * w, w)
        )

    def test_no_tail_for_dirichlet(self, sech_system):
        system = solve(sech_system).system
        assert system.variant == "dirichlet"
        assert isinstance(system.problem, DirichletProblem)
        assert system.problem.exterior_data is not None

    @pytest.mark.parametrize("method", ["structured", "dense"])
    def test_solution_keeps_its_system(self, sech_system, line_system, method):
        for system in (sech_system, line_system):
            solution = solve(system, method=method)
            assert solution.system is system
            assert [f.name for f in dataclasses.fields(solution)] == [
                "system", "values", "diagnostics",
            ]


class TestStructuredRoute:
    def test_diagnostics_name_route_and_iterations(self, sech_system, line_system):
        for system in (sech_system, line_system):
            fast = solve(system)
            assert fast.diagnostics["route"] == "structured"
            assert 0 < fast.diagnostics["iterations"] < 40
            dense = solve(system, method="dense")
            assert dense.diagnostics["route"] == "dense"
            assert dense.diagnostics["iterations"] == 0
            assert dense.diagnostics["residual_inf"] <= dense.diagnostics["residual_bound"]

    def test_unknown_method(self, sech_system):
        with pytest.raises(ValueError):
            solve(sech_system, method="lu")

    @pytest.mark.parametrize("size", [129, 401, 1601, 2049, 3199])
    def test_preconditioner_matches_length_n_circulant_solve(self, size):
        # the dense leading n x n block of tau^{-1} = 2 / (n' + 1) S diag(1 /
        # lambda) S, on the mixed kernel's core, whose column changes sign
        case = registry()["dirichlet-mixed-kernel"].build(10.0)
        operator = assemble(case.problem, build_grid(10.0, size + 1)).operator
        assert operator.size == size
        block = _dense_sine_block(operator)
        assert np.abs(block - block.T).max() <= 1e-15 * np.abs(block).max()
        np.linalg.cholesky(block)
        rhs = np.random.default_rng(size).standard_normal((3, size))
        want = rhs @ block.T
        got = operator.sine_preconditioner(operator.circulant_eigenvalues().min())(rhs)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_preconditioner_floors_a_negative_sine_eigenvalue(self, sech_system):
        # the core of test_cg_breakdown_on_an_indefinite_core: its truncated
        # symbol 1 + 4 cos((n - 1) pi j / (n' + 1)) goes negative, and those
        # eigenvalues take the smallest Fejer sample, which is positive
        size = sech_system.operator.size
        column = np.zeros(size)
        column[0], column[-1] = 1.0, 2.0
        operator = StructuredOperator(column)
        eigenvalues = operator.circulant_eigenvalues()
        assert eigenvalues.min() > 0.0
        block = _dense_sine_block(operator)
        np.linalg.cholesky(block)
        rhs = np.random.default_rng(size).standard_normal((2, size))
        want = rhs @ block.T
        got = operator.sine_preconditioner(eigenvalues.min())(rhs)
        # the smallest eigenvalue kept, 5.2e-3 against a largest of 5.0,
        # magnifies the rounding of the symbol about a thousandfold
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_solve_toeplitz_oracle(self):
        from scipy.linalg import solve_toeplitz

        case = registry()["dirichlet-mixed-kernel"].build(10.0)
        system = assemble(case.problem, build_grid(10.0, 1000))
        want = solve_toeplitz(system.operator.column, system.rhs)
        got = solve(system).values
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_default_route_allocates_no_square_array(self):
        case = registry()["dirichlet-sech"].build(10.0)
        grid = build_grid(10.0, 6400)
        tracemalloc.start()
        try:
            solve(assemble(case.problem, grid))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a 6399^2 float64 matrix alone is 328 MB
        assert peak < 20e6

    @pytest.mark.parametrize(
        "problem_id, bytes_per_unknown",
        # measured 208 and 104 with the sine preconditioner, once the
        # previous iteration's image and preconditioned residual are freed
        # before the next matvec (224 and 112 while they were kept)
        [("realline-algebraic", 215), ("dirichlet-sech", 108)],
    )
    def test_solve_memory_per_unknown_at_two_to_the_sixteen(self, problem_id, bytes_per_unknown):
        case = registry()[problem_id].build(10.0)
        system = assemble(case.problem, build_grid(10.0, 1 << 16))
        tracemalloc.start()
        try:
            solve(system)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bytes_per_unknown * system.operator.size

    def test_cg_batches_the_rhs_and_one_boundary_column(
        self, sech_system, line_system, monkeypatch
    ):
        module = importlib.import_module("nldiff.solve")
        cg = module._preconditioned_cg
        rows = []

        def recording(operator, eigenvalues, rhs):
            rows.append(rhs.shape[0])
            return cg(operator, eigenvalues, rhs)

        monkeypatch.setattr(module, "_preconditioned_cg", recording)
        case = registry()["neumann-discontinuous"].build(10.0)
        neumann_system = assemble(case.problem, build_grid(10.0, 100))
        for system in (sech_system, line_system, neumann_system):
            solve(system)
        assert rows == [1, 2, 2]

    def test_rows_leave_the_batch_at_their_own_iteration(self, line_system):
        # a zero row never enters, the boundary column converges (4 steps)
        # before a random row (5); compacting the batch must not disturb the
        # rows that stay
        operator = line_system.operator
        eigenvalues = operator.circulant_eigenvalues()
        rows = np.vstack(
            (
                np.zeros(operator.size),
                operator.edge,
                np.random.default_rng(5).standard_normal(operator.size),
            )
        )
        batched, iterations = _preconditioned_cg(operator, eigenvalues, rows)
        alone = [_preconditioned_cg(operator, eigenvalues, row[None, :]) for row in rows]
        assert [count for _, count in alone] == sorted({count for _, count in alone})
        assert alone[0][1] == 0 and iterations == alone[-1][1]
        for got, (want, _) in zip(batched, alone):
            assert np.abs(got - want[0]).max() <= 1e-14 * np.abs(want).max()

    def test_cg_preconditions_no_empty_batch(self, line_system, monkeypatch):
        # once the last row converges the loop ends: one preconditioning
        # before the first step and one after every step but the last
        batches = []
        build = StructuredOperator.sine_preconditioner

        def recording(operator, floor):
            precondition = build(operator, floor)

            def apply(residual):
                batches.append(residual.shape[0])
                return precondition(residual)

            return apply

        monkeypatch.setattr(StructuredOperator, "sine_preconditioner", recording)
        operator = line_system.operator
        rows = np.vstack((operator.edge, np.random.default_rng(5).standard_normal(operator.size)))
        _, iterations = _preconditioned_cg(operator, operator.circulant_eigenvalues(), rows)
        assert len(batches) == iterations and min(batches) > 0

    @pytest.mark.parametrize(
        "problem_id, half_width, steps, most",
        # the 22 cells of the Dirichlet and whole-line convergence sweeps, then
        # wider windows: the count must not grow with L
        [
            ("dirichlet-sech", 10.0, (800, 1600, 3200, 6400), 3),
            ("realline-algebraic", 10.0, (200, 400, 800), 5),
            ("realline-algebraic", 20.0, (400, 800, 1600), 4),
            ("realline-algebraic", 40.0, (800, 1600, 3200), 4),
            ("neumann-discontinuous", 8.0, (128, 256, 512), 5),
            ("neumann-discontinuous", 16.0, (256, 512, 1024), 4),
            ("neumann-discontinuous", 32.0, (512, 1024, 2048), 4),
            ("dirichlet-sech", 40.0, (8190,), 5),
            ("realline-algebraic", 80.0, (1600, 3200, 6400), 5),
        ],
    )
    def test_cg_iterations_on_the_sweep_cells(self, problem_id, half_width, steps, most):
        case = registry()[problem_id].build(half_width)
        for m in steps:
            system = assemble(case.problem, build_grid(case.solve_half_width, m))
            assert solve(system).diagnostics["iterations"] <= most

    def test_dense_oracle_refuses_large_systems(self):
        case = registry()["dirichlet-sech"].build(10.0)
        system = assemble(case.problem, build_grid(10.0, 100000))
        assert system.operator.size > MAX_DENSE_SIZE
        with pytest.raises(ValueError, match="refusing to materialise"):
            solve(system, method="dense")
        # the certificate has no O(n^2) step here: a Z-matrix core with a
        # positive Ritz vector
        report = stability_report(system)
        assert report.stable
        assert 0.0 < report.min_eigenvalue_lower <= report.min_eigenvalue


def _gaussian(x):
    return np.exp(-np.asarray(x, dtype=float) ** 2)


def _zero(x):
    return np.zeros_like(np.asarray(x, dtype=float))


def _variant_problem(variant, kernel, half_width):
    decay = DecayModel(2.0)
    if variant == "dirichlet":
        return DirichletProblem(
            kernel=kernel,
            forcing=_gaussian,
            exterior_data=lambda x: 0.1 * _gaussian(x / 4.0),
            closed_boundary_term=lambda x, radius: _zero(x),
        )
    if variant == "realline":
        return RealLineProblem(kernel=kernel, forcing=_gaussian, decay=decay)
    return NeumannProblem(
        kernel=kernel,
        forcing=_gaussian,
        exterior_forcing=_zero,
        split_radius=0.5 * half_width,
        decay=decay,
    )


_KERNELS = {"laplace": laplace_kernel(), "mixed": mixed_exponential_kernel()}


@pytest.mark.parametrize("half_width", [360.0, 720.0])
def test_far_whole_line_windows_solve_on_both_routes(half_width):
    # from L=360 every beyond-support tail starts past its quadrature
    # truncation point; at L=720 e^(a x) overflows in the closed moment
    grid = build_grid(half_width, int(2 * half_width))
    laplace = _KERNELS["laplace"]
    values = {}
    for name, kernel in (*_KERNELS.items(), ("bare", laplace.without_closed_forms())):
        system = assemble(_variant_problem("realline", kernel, half_width), grid)
        values[name] = solve(system).values
        assert np.all(np.isfinite(values[name]))
    np.testing.assert_allclose(values["bare"], values["laplace"], rtol=1e-9)


def test_steep_decay_model_assembles_and_solves():
    # q=400 at L=10: 10 ** 400 is beyond the floats, and the boundary terms
    # must not form it
    grid = build_grid(10.0, 200)
    values = {}
    for name, kernel in (*_KERNELS.items(), ("bare", _KERNELS["laplace"].without_closed_forms())):
        problem = RealLineProblem(kernel=kernel, forcing=_gaussian, decay=DecayModel(400.0))
        solution = solve(assemble(problem, grid))
        values[name] = solution.values
        assert np.all(np.isfinite(values[name]))
        outside = evaluate_solution(solution, np.array([-15.0, 12.0]))
        assert np.all(np.isfinite(outside))
        assert np.all(np.abs(outside) <= np.abs(values[name]).max())
    np.testing.assert_allclose(values["bare"], values["laplace"], rtol=1e-9)


@settings(max_examples=30, deadline=None)
@given(
    variant=st.sampled_from(["dirichlet", "realline", "neumann"]),
    kernel=st.sampled_from(sorted(_KERNELS)),
    half_width=st.floats(min_value=1.0, max_value=20.0),
    half_steps=st.integers(min_value=2, max_value=150),
)
# every variant and kernel at L = 10, M = 400, beside the random draws
@example(variant="dirichlet", kernel="laplace", half_width=10.0, half_steps=200)
@example(variant="dirichlet", kernel="mixed", half_width=10.0, half_steps=200)
@example(variant="realline", kernel="laplace", half_width=10.0, half_steps=200)
@example(variant="realline", kernel="mixed", half_width=10.0, half_steps=200)
@example(variant="neumann", kernel="laplace", half_width=10.0, half_steps=200)
@example(variant="neumann", kernel="mixed", half_width=10.0, half_steps=200)
def test_structured_solve_matches_dense_lu(variant, kernel, half_width, half_steps):
    problem = _variant_problem(variant, _KERNELS[kernel], half_width)
    system = assemble(problem, build_grid(half_width, 2 * half_steps))
    fast = solve(system).values
    dense = solve(system, method="dense").values
    assert np.abs(fast - dense).max() <= 1e-12 * np.abs(dense).max()


@settings(max_examples=30, deadline=None)
@given(
    variant=st.sampled_from(["dirichlet", "realline", "neumann"]),
    kernel=st.sampled_from(sorted(_KERNELS)),
    half_width=st.floats(min_value=1.0, max_value=20.0),
    half_steps=st.integers(min_value=2, max_value=400),
    width=st.floats(min_value=0.2, max_value=5.0),
    frequency=st.floats(min_value=0.0, max_value=3.0),
)
def test_even_forcing_gives_an_even_solution(
    variant, kernel, half_width, half_steps, width, frequency
):
    # the grid, the kernel, the exterior data and the boundary columns are
    # all symmetric, so reflection maps the solution to itself
    def even_forcing(x):
        x = np.asarray(x, dtype=float)
        return np.exp(-(x / width) * (x / width)) * np.cos(frequency * x)

    problem = dataclasses.replace(
        _variant_problem(variant, _KERNELS[kernel], half_width), forcing=even_forcing
    )
    system = assemble(problem, build_grid(half_width, 2 * half_steps))
    assert np.array_equal(system.rhs, system.rhs[::-1])
    values = solve(system).values
    assert np.abs(values - values[::-1]).max() <= 1e-13 * np.abs(values).max()


@settings(max_examples=30, deadline=None)
@given(
    variant=st.sampled_from(["dirichlet", "realline", "neumann"]),
    kernel=st.sampled_from(sorted(_KERNELS)),
    half_width=st.floats(min_value=1.0, max_value=20.0),
    half_steps=st.integers(min_value=2, max_value=150),
    bumps=st.lists(
        st.tuples(
            st.sampled_from([-1.0, 1.0]),
            st.floats(min_value=0.1, max_value=1.0),
            st.floats(min_value=-5.0, max_value=5.0),
            st.floats(min_value=0.2, max_value=5.0),
        ),
        min_size=1,
        max_size=4,
    ),
)
# a right-hand side of 1.9e-174, whose squared norm underflowed to 0, so CG
# took no step and returned zeros
@example(
    variant="neumann", kernel="laplace", half_width=1.0, half_steps=2,
    bumps=[(-1.0, 1.0, 5.0, 0.25)],
)
def test_residual_bound_holds_under_random_forcings(
    variant, kernel, half_width, half_steps, bumps
):
    # Gaussians off the origin give the forcing both an even and an odd part
    def forcing(x):
        x = np.asarray(x, dtype=float)
        total = np.zeros_like(x)
        for sign, amplitude, center, width in bumps:
            z = (x - center) / width
            total += sign * amplitude * np.exp(-z * z)
        return total

    problem = dataclasses.replace(
        _variant_problem(variant, _KERNELS[kernel], half_width), forcing=forcing
    )
    system = assemble(problem, build_grid(half_width, 2 * half_steps))
    fast = solve(system)
    dense = solve(system, method="dense").values
    assert fast.diagnostics["residual_inf"] <= fast.diagnostics["residual_bound"]
    assert np.abs(fast.values - dense).max() <= 1e-10 * np.abs(dense).max()


def test_residual_two_norm_survives_a_tiny_residual():
    # the @example above: its residual is near 1e-190, whose squares
    # underflowed, so the unscaled 2-norm read 0 beside a nonzero max-norm
    def forcing(x):
        z = (np.asarray(x, dtype=float) - 5.0) / 0.25
        return -np.exp(-z * z)

    problem = dataclasses.replace(
        _variant_problem("neumann", _KERNELS["laplace"], 1.0), forcing=forcing
    )
    diagnostics = solve(assemble(problem, build_grid(1.0, 4))).diagnostics
    assert diagnostics["residual_l2"] >= diagnostics["residual_inf"] > 0.0
    assert diagnostics["residual_l2_weighted"] > 0.0


class TestSolveFaults:
    def test_cg_breakdown_on_an_indefinite_core(self, sech_system):
        # unit diagonal with 2 in the corners: the (0, n-1) block has
        # eigenvalue -1 along e_0 - e_{n-1}, yet the Fejer samples
        # 1 + (4/n) cos((n-1) theta) are positive, so CG starts and breaks down
        size = sech_system.operator.size
        column = np.zeros(size)
        column[0], column[-1] = 1.0, 2.0
        rhs = np.zeros(size)
        rhs[0], rhs[-1] = 1.0, -1.0
        broken = dataclasses.replace(
            sech_system,
            operator=StructuredOperator(column),
            rhs=rhs,
        )
        with pytest.raises(SolveError, match="broke down") as err:
            solve(broken)
        assert err.value.condition_estimate == math.inf
        # the first step takes the residual from sqrt 2 to 1.472, and the
        # second meets the negative curvature
        assert err.value.iterations == 2
        assert err.value.residual == pytest.approx(1.4722193788437945)

    def test_cg_non_convergence(self, line_system, monkeypatch):
        module = importlib.import_module("nldiff.solve")
        monkeypatch.setattr(module, "_CG_MAX_ITERATIONS", 2)
        with pytest.raises(SolveError, match="did not converge") as err:
            solve(line_system)
        assert err.value.iterations == 2
        assert err.value.residual > 0.0
        assert 1.0 < err.value.condition_estimate < math.inf

    @pytest.mark.parametrize(
        "edges, scalar",
        # (z_0, z_{n-1}) of z = T^{-1} b_0, chosen so that 1 - z_0 - z_{n-1}
        # (even) or 1 - z_0 + z_{n-1} (odd) is exactly zero or not finite
        [
            ((0.5, 0.5), "even 0.000e+00"),
            ((0.75, 0.25), "even 0.000e+00"),
            ((0.5, -0.5), "odd 0.000e+00"),
            ((0.25, -0.75), "odd 0.000e+00"),
            ((math.nan, 0.0), "even nan"),
            ((0.0, math.inf), "even -inf"),
        ],
    )
    def test_singular_capacitance(self, line_system, monkeypatch, edges, scalar):
        module = importlib.import_module("nldiff.solve")
        cg = module._preconditioned_cg

        def forced(operator, eigenvalues, rhs):
            solved, iterations = cg(operator, eigenvalues, rhs)
            solved[1, [0, -1]] = edges
            return solved, iterations

        monkeypatch.setattr(module, "_preconditioned_cg", forced)
        with pytest.raises(SolveError, match="capacitance is singular") as err:
            solve(line_system)
        assert scalar in str(err.value)
        assert err.value.condition_estimate == math.inf
        assert err.value.iterations > 0

    def test_nan_forcing(self, sech_system):
        rhs = sech_system.rhs.copy()
        rhs[7] = math.nan
        with pytest.raises(SolveError, match="residual") as err:
            solve(dataclasses.replace(sech_system, rhs=rhs))
        assert math.isnan(err.value.residual)


class TestEvaluateSolution:
    def test_exact_at_nodes(self, sech_system):
        solution = solve(sech_system)
        nodes = sech_system.grid.spacing * solution.system.indices
        np.testing.assert_array_equal(evaluate_solution(solution, nodes), solution.values)

    def test_scalar_in_float_out(self, sech_system):
        solution = solve(sech_system)
        out = evaluate_solution(solution, 0.3)
        assert isinstance(out, float)

    def test_dirichlet_exterior_passthrough(self, sech_system):
        solution = solve(sech_system)
        pts = np.array([-15.0, 10.5, 30.0])
        # outside the window the evaluation hands back the problem's own
        # exterior data, bit for bit
        np.testing.assert_array_equal(
            evaluate_solution(solution, pts), solution.system.problem.exterior_data(pts)
        )
        np.testing.assert_allclose(evaluate_solution(solution, pts), sech(pts), rtol=1e-15)

    def test_realline_tail_extension(self, line_system):
        solution = solve(line_system)
        w = line_system.grid.half_width
        # q = 2 tail: the value at 2w is a quarter of the edge value
        assert evaluate_solution(solution, 2.0 * w) == pytest.approx(
            solution.values[-1] / 4.0, rel=1e-14
        )
        assert evaluate_solution(solution, -2.0 * w) == pytest.approx(
            solution.values[0] / 4.0, rel=1e-14
        )

    @pytest.mark.parametrize(
        "problem_id", ["dirichlet-sech", "realline-algebraic", "neumann-discontinuous"]
    )
    def test_matches_the_copied_field_reconstruction(self, problem_id):
        case = registry()[problem_id].build(10.0)
        system = assemble(case.problem, build_grid(case.solve_half_width, 200))
        solution = solve(system)
        w = system.grid.half_width
        # inside and outside the window, both tails, the nodes and the edges
        pts = np.concatenate([np.linspace(-4.5 * w, 4.5 * w, 2001), [-w, w]])
        problem = system.problem
        tail = exterior_data = None
        if system.variant == "dirichlet":
            exterior_data = problem.exterior_data
        else:
            tail = (problem.decay.exponent, float(solution.values[0]), float(solution.values[-1]))
        want = copied_field_reconstruction(
            system.grid, system.indices, solution.values, system.variant, tail,
            exterior_data, pts,
        )
        np.testing.assert_array_equal(evaluate_solution(solution, pts), want)


def copied_field_reconstruction(grid, indices, values, variant, tail, exterior_data, x):
    """The reconstruction from fields copied out of the system when it was
    solved: ``tail`` is (exponent, left value, right value) for the whole
    line and the flux closure, None for Dirichlet."""
    pts = np.atleast_1d(np.asarray(x, dtype=float))
    w = grid.half_width
    nodes = grid.spacing * indices
    if variant == "dirichlet":
        xp = np.concatenate([[-w], nodes, [w]])
        edge = np.asarray(exterior_data(np.array([-w, w])), dtype=float)
        out = np.interp(pts, xp, np.concatenate([[edge[0]], values, [edge[1]]]))
        outside = np.abs(pts) > w
        if np.any(outside):
            out[outside] = np.asarray(exterior_data(pts[outside]), dtype=float)
    else:
        exponent, left_value, right_value = tail
        out = np.interp(pts, nodes, values)
        outside = np.abs(pts) > w
        if np.any(outside):
            prof = DecayModel(exponent).profile(pts[outside], w)
            out[outside] = np.where(pts[outside] < 0, left_value, right_value) * prof
    return out


def laplace_symbol(j, radius):
    a = j * math.pi / radius
    return (a * a + (-1.0) ** j * math.exp(-radius)) / (1.0 + a * a)


def mixed_symbol(j, radius):
    a = j * math.pi / radius
    sigma = (-1.0) ** j
    return (
        1.0
        - 3.0 * (1.0 - sigma * math.exp(-radius)) / (1.0 + a * a)
        + 8.0 * (1.0 - sigma * math.exp(-2.0 * radius)) / (4.0 + a * a)
    )


class TestStability:
    def test_symbol_matches_closed_form_laplace(self, sech_system):
        report = stability_report(sech_system)
        radius = sech_system.grid.weight_radius
        want = np.array(
            [laplace_symbol(j, radius) for j in range(sech_system.grid.steps + 1)]
        )
        np.testing.assert_allclose(report.symbol_values, want, rtol=1e-9, atol=1e-13)

    def test_symbol_matches_closed_form_mixed(self):
        case = registry()["dirichlet-mixed-kernel"].build(5.0)
        system = assemble(case.problem, build_grid(5.0, 64))
        report = stability_report(system)
        radius = system.grid.weight_radius
        want = np.array([mixed_symbol(j, radius) for j in range(65)])
        np.testing.assert_allclose(report.symbol_values, want, rtol=1e-9, atol=1e-13)
        assert report.symbol_values.min() > 0.0

    def test_zeroth_sample_is_the_tail_mass(self, sech_system):
        report = stability_report(sech_system)
        radius = sech_system.grid.weight_radius
        assert report.symbol_values[0] == tail_mass(sech_system.problem.kernel, radius)

    def test_dirichlet_certificate(self):
        case = registry()["dirichlet-sech"].build(5.0)
        system = assemble(case.problem, build_grid(5.0, 64))
        report = stability_report(system)
        assert report.min_eigenvalue == pytest.approx(0.066234881732554443, rel=1e-10)
        assert 0.0 < report.min_eigenvalue - report.min_eigenvalue_lower < 1e-12
        assert report.contraction_norm is None
        assert report.stable is True
        assert report.symbol_values.min() == pytest.approx(
            4.5399929762484854e-05, rel=1e-10
        )

    def test_stability_needs_a_positive_lower_end(self, monkeypatch):
        # a positive Ritz value alone does not make the grid stable
        monkeypatch.setattr(
            StructuredOperator,
            "core_eigenvalue_bracket",
            lambda self, geometric=None: (-1e-12, 1e-12),
        )
        case = registry()["dirichlet-sech"].build(5.0)
        report = stability_report(assemble(case.problem, build_grid(5.0, 64)))
        assert (report.min_eigenvalue_lower, report.min_eigenvalue) == (-1e-12, 1e-12)
        assert not report.stable

    def test_realline_certificate(self, line_system):
        report = stability_report(line_system)
        assert report.min_eigenvalue is None
        assert report.min_eigenvalue_lower is None
        assert report.contraction_norm is not None
        assert 0.0 < report.contraction_norm < 1.0
        assert report.stable

    def test_symbol_lower_bound_formula(self, sech_system, line_system):
        # dirichlet reads the undamped bound, algebraic decay damps by 1 - 3^{-q}
        radius = sech_system.grid.weight_radius
        report = stability_report(sech_system)
        assert report.symbol_lower_bound == pytest.approx(
            math.exp(-2.0 * radius), rel=1e-12
        )
        line_report = stability_report(line_system)
        assert line_report.symbol_lower_bound == pytest.approx(
            (1.0 - 3.0 ** -2.0) * math.exp(-2.0 * line_system.grid.weight_radius),
            rel=1e-12,
        )

    def test_bound_sits_below_samples(self, sech_system):
        report = stability_report(sech_system)
        assert report.symbol_values.min() >= report.symbol_lower_bound

    @pytest.mark.parametrize("half_width, steps", [(5.0, 64), (10.0, 256)])
    def test_symbol_table_matches_per_mode_quadrature(self, half_width, steps):
        # a smooth kernel with no closed forms: weights, tail mass and symbol
        # all run on quadrature
        kernel = build_kernel(
            lambda y: 1.0 / (math.pi * np.cosh(y)),
            decay_rate=1.0,
            sign_class=SignClass.NONNEGATIVE,
        )
        problem = _variant_problem("dirichlet", kernel, half_width)
        system = assemble(problem, build_grid(half_width, steps))
        report = stability_report(system)
        want = _per_mode_symbols(kernel, system.grid, 1e-10)
        np.testing.assert_allclose(report.symbol_values, want, rtol=0.0, atol=1e-10)
        assert 0.0 <= report.symbol_error_estimate <= 1e-10

    def test_symbol_error_is_the_gap_between_resolutions(self, sech_system):
        # the Laplace kernel stripped of its terms takes the quadrature
        # table, which converges at the first comparison, M against 2M
        # panels; the estimate is that gap in symbol units, twice the versine's
        kernel = sech_system.problem.kernel.without_closed_forms()
        system = dataclasses.replace(
            sech_system, problem=dataclasses.replace(sech_system.problem, kernel=kernel)
        )
        grid = system.grid
        coarse, fine = (
            _versine_panels(kernel.evaluate, grid.weight_radius, grid.steps, panels)
            for panels in (grid.steps, 2 * grid.steps)
        )
        report = stability_report(system)
        assert report.symbol_error_estimate == 2.0 * np.abs(fine - coarse).max()
        mass = tail_mass(kernel, grid.weight_radius)
        np.testing.assert_array_equal(report.symbol_values, mass + 2.0 * fine)

    @pytest.mark.parametrize("kernel_name", ["laplace", "mixed"])
    @pytest.mark.parametrize("steps", [64, 256, 800])
    def test_closed_symbol_matches_the_versine_table(self, kernel_name, steps):
        # the closed samples against the quadrature table on the same kernel
        # stripped of its terms; the largest gap measured was 1.1e-15
        kernel = {"laplace": laplace_kernel, "mixed": mixed_exponential_kernel}[kernel_name]()
        grid = build_grid(10.0, steps)
        closed, closed_error = _symbol_samples(kernel, grid)
        table, table_error = _symbol_samples(kernel.without_closed_forms(), grid)
        assert np.abs(closed - table).max() <= 1e-12
        assert closed[0] == tail_mass(kernel, grid.weight_radius)
        assert 0.0 < closed_error < 1e-13 and table_error <= 1e-10

    @pytest.mark.parametrize("kernel_name", ["laplace", "mixed"])
    def test_closed_symbol_error_bounds_the_fifty_digit_samples(self, kernel_name):
        kernel = {"laplace": laplace_kernel, "mixed": mixed_exponential_kernel}[kernel_name]()
        grid = build_grid(5.0, 64)
        symbol, error = _symbol_samples(kernel, grid)
        with mpmath.workdps(50):
            radius = mpmath.mpf(grid.weight_radius)
            for j, sample in enumerate(symbol.tolist()):
                b2 = (j * mpmath.pi / radius) ** 2
                exact = mpmath.mpf(0)
                for c, a in kernel.terms:
                    c, a = mpmath.mpf(c), mpmath.mpf(a)
                    rest = mpmath.exp(-a * radius)
                    exact += 2 * c * rest / a
                    exact += 2 * c * (b2 * (1 - rest) - 2 * a * a * rest * (j % 2)) / (
                        a * (a * a + b2)
                    )
                assert abs(mpmath.mpf(sample) - exact) <= error

    def test_symbol_table_evaluation_count(self):
        calls = []
        base = laplace_kernel()

        def counted(y):
            calls.append(np.size(y))
            return base.evaluate(y)

        case = registry()["realline-algebraic"].build(10.0)
        system = assemble(case.problem, build_grid(10.0, 800))
        # stripped of its terms, the kernel takes the quadrature table
        kernel = dataclasses.replace(base.without_closed_forms(), evaluate=counted)
        stability_report(
            dataclasses.replace(system, problem=dataclasses.replace(system.problem, kernel=kernel))
        )
        # the P = M and 2P tables, one call each; one adaptive quadrature per
        # mode took 6e6.  The two tail masses, now by quadrature, add a few
        # hundred points in smaller calls
        assert [size for size in calls if size >= 15 * 800] == [15 * 800, 15 * 1600]
        assert sum(calls) <= 15 * 3 * 800 + 1000


def _per_mode_symbols(kernel, grid, tol):
    """The symbol table by one adaptive quadrature per mode, as an oracle."""
    radius = grid.weight_radius
    mass = tail_mass(kernel, radius)
    out = [mass]
    for j in range(1, grid.steps + 1):
        panels = max(1, min(j // 2, 256))
        edges = radius * np.arange(1, panels) / panels
        freq = j * math.pi / (2.0 * radius)

        def integrand(x, freq=freq):
            s = np.sin(freq * x)
            return 4.0 * s * s * kernel.evaluate(x)

        out.append(mass + adaptive_quad(integrand, 0.0, radius, tol, breakpoints=edges).value)
    return np.array(out)
