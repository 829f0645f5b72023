"""Problem registry, compatibility preflight, and convergence sweeps.

Exact solutions are pinned at hand-derived probe points, the registry's
self-audit is exercised with deliberately corrupted closed forms, and the
sweep machinery is checked on small grids so the suite stays fast.
"""

import dataclasses
import io
import math

import numpy as np
import pytest

from nldiff import harness
from nldiff.assembly import DirichletProblem, NeumannProblem, RealLineProblem, neumann_to_realline
from nldiff.harness import (
    CSV_HEADER,
    ClosedFormCheck,
    audit_closed_forms,
    algebraic_exact,
    algebraic_forcing,
    compatibility_check,
    emit_csv,
    jump_exact,
    jump_forcing_exterior,
    jump_forcing_interior,
    mixed_boundary,
    mixed_forcing,
    registry,
    run_convergence,
    sech_boundary,
    sech_forcing,
    validate_closed_boundary,
    validate_closed_tail_mass,
)
from nldiff.kernels import laplace_kernel
from nldiff.quadrature import DecayCertificate, PowerDecayCertificate

ALGEBRAIC_CERT = PowerDecayCertificate(4.0, 3.5)

EXPECTED_IDS = {
    "dirichlet-sech",
    "realline-algebraic",
    "neumann-discontinuous",
    "dirichlet-mixed-kernel",
    "comparison-sech-realline",
    "comparison-sech-dirichlet",
    "comparison-sech-neumann",
    "comparison-algebraic-realline",
    "comparison-algebraic-dirichlet",
    "comparison-algebraic-neumann",
}


class TestReferenceData:
    def test_algebraic_solution_probes(self):
        # at the origin: 1/2 + pi/4 - log(2)/2
        want = 0.5 + math.pi / 4.0 - 0.5 * math.log(2.0)
        assert float(algebraic_exact(0.0)) == pytest.approx(want, rel=1e-15)
        assert float(algebraic_exact(0.0)) == pytest.approx(0.93882457311747558, rel=1e-15)
        # far field 1/(2 x^2)
        assert 2.0 * 40.0 ** 2 * float(algebraic_exact(40.0)) == pytest.approx(
            0.99594127956805778, rel=1e-12
        )
        # even up to the cancellation noise of the arctan pair
        assert float(algebraic_exact(5.0)) == pytest.approx(
            float(algebraic_exact(-5.0)), rel=1e-11
        )

    def test_algebraic_forcing_shape(self):
        assert float(algebraic_forcing(0.0)) == 0.5
        assert float(algebraic_forcing(math.sqrt(2.0 / 3.0))) == pytest.approx(0.0, abs=1e-16)
        x = np.linspace(-30.0, 30.0, 401)
        assert np.abs(algebraic_forcing(x)).max() <= 0.5

    def test_jump_solution_probes(self):
        assert float(jump_exact(0.0)) == pytest.approx(-13.0 / 12.0, rel=1e-15)
        # the closure point carries the exterior branch
        assert float(jump_exact(1.0)) == pytest.approx(5.0 / 6.0, rel=1e-15)
        assert float(jump_exact(-1.0)) == pytest.approx(5.0 / 6.0, rel=1e-15)
        # interior limit differs by the jump 2/3
        assert float(jump_exact(1.0 - 1e-9)) == pytest.approx(1.0 / 6.0, abs=1e-8)
        assert float(jump_forcing_interior(0.0)) == pytest.approx(-2.0 / 3.0)
        assert float(jump_forcing_exterior(2.0)) == pytest.approx(1.0 / 16.0)

    def test_reference_functions_match_the_power_formulas(self):
        # the reference functions square twice instead of calling x ** 4 or
        # xe ** -4.0, which numpy evaluates slowly on negative bases; the
        # power formulas stay here as the oracle.  Where a formula cancels
        # (the forcing's zeros, algebraic_exact at large |x|, jump_exact
        # near |x| = sqrt(6)) a one-ulp change in a term is a larger relative
        # change in the value, so the gap is measured against the largest value
        x = np.concatenate((np.linspace(-80.0, 80.0, 51201), [-1.0, 1.0]))
        x2 = x * x
        forcing = (2.0 - 3.0 * x * x) / ((1.0 + x * x) * (x ** 4 + 4.0))
        exact = (
            forcing
            - x * np.arctan(x)
            + 0.5 * (x - 1.0) * np.arctan(x - 1.0)
            + 0.5 * (x + 1.0) * np.arctan(x + 1.0)
            + 0.5 * np.log1p(x2)
            - 0.25 * np.log(x ** 4 + 4.0)
        )
        inside = np.abs(x) < 1.0
        xi = np.where(inside, x, 0.0)
        xe = np.where(inside, 1.0, x)
        jump = np.where(
            inside,
            xi * xi - (xi * xi - 3.0) * (xi * xi - 1.0) / 12.0 - 5.0 / 6.0,
            xe ** -4.0 - 1.0 / (6.0 * xe * xe),
        )
        pairs = ((algebraic_forcing, forcing), (algebraic_exact, exact), (jump_exact, jump))
        for function, want in pairs:
            assert np.abs(function(x) - want).max() <= 1e-15 * np.abs(want).max()
        assert jump_exact(x)[-2:].tolist() == [5.0 / 6.0, 5.0 / 6.0]

    def test_forcings_survive_large_arguments(self):
        # overflow is guarded; harmless underflow to zero is expected
        with np.errstate(over="raise", invalid="raise"):
            vals = sech_forcing(np.array([0.0, 250.0, 400.0, 800.0]))
            assert np.all(np.isfinite(vals))
            vals = mixed_forcing(np.array([0.0, 250.0, 400.0, 800.0]))
            assert np.all(np.isfinite(vals))

    def test_mixed_forcing_continuous_at_series_switch(self):
        # the arctan defect flips from series to direct evaluation at w = 0.1
        t = -math.log(0.1)
        left = float(mixed_forcing(t - 1e-7))
        right = float(mixed_forcing(t + 1e-7))
        assert abs(left - right) <= 1e-6

    def test_boundary_terms_even_and_positive(self):
        for term in (sech_boundary, mixed_boundary):
            vals = term(np.array([-2.5, 0.0, 2.5]), 10.0)
            assert vals[0] == vals[2]
            assert np.all(vals > 0.0)


class TestRegistry:
    def test_ids(self):
        assert set(registry()) == EXPECTED_IDS

    def test_cached(self):
        assert registry() is registry()

    def test_expected_orders(self):
        reg = registry()
        assert reg["dirichlet-sech"].expected_order == 2.0
        assert reg["neumann-discontinuous"].expected_order == 1.0
        assert reg["comparison-algebraic-dirichlet"].expected_order is None
        assert reg["comparison-algebraic-neumann"].expected_order is None

    def test_discontinuities(self):
        reg = registry()
        assert reg["neumann-discontinuous"].discontinuities == (-1.0, 1.0)
        assert reg["dirichlet-sech"].discontinuities == ()

    def test_certificates_for_whole_line_forcings(self):
        reg = registry()
        for pid in (
            "realline-algebraic",
            "neumann-discontinuous",
            "comparison-sech-realline",
            "comparison-sech-neumann",
            "comparison-algebraic-realline",
            "comparison-algebraic-neumann",
        ):
            assert reg[pid].compat_certificate is not None
        assert reg["dirichlet-sech"].compat_certificate is None

    def test_built_case_geometry(self):
        reg = registry()
        case = reg["dirichlet-sech"].build(10.0)
        assert case.solve_half_width == 10.0
        assert isinstance(case.problem, DirichletProblem)
        # validators kept the closed boundary terms
        assert case.problem.closed_boundary_term is not None
        assert reg["dirichlet-mixed-kernel"].build(10.0).problem.closed_boundary_term is not None

        jump = reg["neumann-discontinuous"].build(8.0)
        assert isinstance(jump.problem, NeumannProblem)
        assert jump.problem.split_radius == 1.0

        line = reg["realline-algebraic"].build(10.0)
        assert isinstance(line.problem, RealLineProblem)
        assert line.problem.decay.exponent == 2.0

    def test_neumann_comparison_doubles_the_window(self):
        case = registry()["comparison-sech-neumann"].build(10.0)
        assert case.solve_half_width == 20.0
        assert isinstance(case.problem, NeumannProblem)
        assert case.problem.split_radius == 10.0
        # forcing is zeroed outside the original window
        closed = neumann_to_realline(case.problem).forcing
        np.testing.assert_array_equal(closed(np.array([10.0, 15.0, -40.0])), 0.0)

    def test_dirichlet_comparison_zeroes_exterior(self):
        case = registry()["comparison-sech-dirichlet"].build(10.0)
        assert isinstance(case.problem, DirichletProblem)
        np.testing.assert_array_equal(
            case.problem.exterior_data(np.array([10.0, 11.0, 25.0])), 0.0
        )


class TestCompatibility:
    def test_algebraic_forcing_passes(self):
        result = compatibility_check(algebraic_forcing, ALGEBRAIC_CERT)
        assert result.passed
        assert abs(result.mean) <= 1e-10
        assert abs(result.first_moment) <= 1e-10

    def test_jump_closed_forcing_passes(self):
        entry = registry()["neumann-discontinuous"]
        forcing = neumann_to_realline(entry.build(8.0).problem).forcing
        result = compatibility_check(forcing, entry.compat_certificate)
        assert result.passed

    def test_even_bump_breaks_the_mean(self):
        bump = lambda x: algebraic_forcing(x) + 1e-3 * np.exp(
            -np.asarray(x, dtype=float) ** 2
        )
        result = compatibility_check(bump, ALGEBRAIC_CERT)
        assert not result.passed
        assert result.mean == pytest.approx(1e-3 * math.sqrt(math.pi), rel=1e-6)
        assert abs(result.first_moment) <= 1e-10

    def test_odd_bump_breaks_the_first_moment(self):
        x_arr = lambda x: np.asarray(x, dtype=float)
        bump = lambda x: algebraic_forcing(x) + 1e-3 * x_arr(x) * np.exp(-x_arr(x) ** 2)
        result = compatibility_check(bump, ALGEBRAIC_CERT)
        assert not result.passed
        assert abs(result.mean) <= 1e-10
        assert result.first_moment == pytest.approx(
            1e-3 * math.sqrt(math.pi) / 2.0, rel=1e-6
        )

    def test_moment_certificate_needs_integrable_tail(self):
        with pytest.raises(ValueError):
            compatibility_check(algebraic_forcing, PowerDecayCertificate(2.0, 1.0))

    def test_exponential_certificate_accepted(self):
        f = lambda x: np.asarray(x, dtype=float) * np.exp(-np.asarray(x, dtype=float) ** 2)
        result = compatibility_check(f, DecayCertificate(1.0, 1.0))
        assert not result.passed
        assert result.first_moment == pytest.approx(math.sqrt(math.pi) / 2.0, rel=1e-8)

    def test_unknown_certificate_type(self):
        with pytest.raises(TypeError):
            compatibility_check(algebraic_forcing, object())


class TestClosedFormAudit:
    def test_shipped_closed_forms_all_pass(self):
        checks = audit_closed_forms()
        assert len(checks) == 8
        assert all(c.ok for c in checks)
        assert max(c.gap for c in checks) <= 1e-9

    def test_gap_uses_relative_scale_floored_at_one(self):
        check = ClosedFormCheck("demo", 0.5 + 1e-7, 0.5, 1e-6)
        assert check.gap == pytest.approx(1e-7, rel=1e-6)
        assert check.ok
        big = ClosedFormCheck("demo", 2000.0 + 1e-2, 2000.0, 1e-6)
        assert big.gap == pytest.approx(5e-6, rel=1e-6)
        assert not big.ok

    def test_wrong_boundary_term_is_demoted(self, caplog):
        problem = dataclasses.replace(
            registry()["dirichlet-sech"].build(5.0).problem,
            closed_boundary_term=lambda x, radius: np.full_like(
                np.asarray(x, dtype=float), 0.5
            ),
        )
        with caplog.at_level("WARNING", logger="nldiff.harness"):
            demoted, checks = validate_closed_boundary(problem, "corrupted")
        assert demoted.closed_boundary_term is None
        assert checks and not all(c.ok for c in checks)
        assert any("falling back to quadrature" in r.message for r in caplog.records)

    def test_correct_boundary_term_is_kept(self):
        problem = registry()["dirichlet-sech"].build(5.0).problem
        kept, checks = validate_closed_boundary(problem, "sech")
        assert kept.closed_boundary_term is problem.closed_boundary_term
        assert checks and all(c.ok for c in checks)

    def test_boundary_validation_skips_without_closed_form(self):
        problem = dataclasses.replace(
            registry()["dirichlet-sech"].build(5.0).problem, closed_boundary_term=None
        )
        same, checks = validate_closed_boundary(problem, "none")
        assert same is problem and checks == []

    def test_registry_and_audit_share_one_comparison(self, monkeypatch):
        monkeypatch.setattr(harness, "sech_boundary", lambda x, radius: 0.5 + 0.0 * x)
        monkeypatch.setattr(harness, "_REGISTRY", None)
        reg = registry()
        assert reg["dirichlet-sech"].build(5.0).problem.closed_boundary_term is None
        assert reg["dirichlet-mixed-kernel"].build(5.0).problem.closed_boundary_term is not None
        failing = [c.label for c in audit_closed_forms() if not c.ok]
        assert failing == ["sech-boundary[i=0]", "sech-boundary[i=16]"]

    def test_wrong_tail_mass_is_demoted(self, caplog):
        # (c, a) = (1, 1) makes the closed tail mass 2 exp(-r), twice the truth
        kernel = dataclasses.replace(laplace_kernel(), terms=((1.0, 1.0),))
        with caplog.at_level("WARNING", logger="nldiff.harness"):
            demoted, checks = validate_closed_tail_mass(kernel, "corrupted")
        assert demoted.terms is None
        assert checks and not all(c.ok for c in checks)

    def test_correct_tail_mass_is_kept(self):
        kernel = laplace_kernel()
        kept, checks = validate_closed_tail_mass(kernel, "laplace")
        assert kept is kernel
        assert all(c.ok for c in checks)


class TestRunConvergence:
    def test_unknown_problem(self):
        with pytest.raises(KeyError):
            run_convergence("no-such-problem", [5.0], [16, 32, 64])

    def test_needs_three_step_counts(self):
        with pytest.raises(ValueError):
            run_convergence("dirichlet-sech", [5.0], [16, 32])

    def test_needs_a_half_width(self):
        with pytest.raises(ValueError):
            run_convergence("dirichlet-sech", [], [16, 32, 64])

    def test_small_sweep_shape_and_order(self):
        report = run_convergence("dirichlet-sech", [5.0], [32, 64, 128])
        assert len(report.rows) == 3
        spacings = [r.steps for r in report.rows]
        assert spacings == [32, 64, 128]
        errs = [r.linf_error for r in report.rows]
        assert errs[0] > errs[1] > errs[2] > 0.0
        order = report.fitted_orders[("dirichlet-sech", 5.0)]
        assert 1.5 <= order <= 2.5
        for row in report.rows:
            assert row.fitted_order == order
            assert row.runtime_ms > 0.0
            assert row.spacing == 10.0 / row.steps

    def test_rows_ordered_by_half_width_then_refinement(self):
        report = run_convergence("dirichlet-sech", [8.0, 4.0], [64, 16, 32])
        key = [(r.half_width, r.steps) for r in report.rows]
        assert key == [(4.0, 16), (4.0, 32), (4.0, 64), (8.0, 16), (8.0, 32), (8.0, 64)]
        assert set(report.fitted_orders) == {
            ("dirichlet-sech", 4.0),
            ("dirichlet-sech", 8.0),
        }

    def test_threaded_sweep_matches_serial(self):
        serial = run_convergence("dirichlet-sech", [5.0], [32, 64, 128])
        threaded = run_convergence("dirichlet-sech", [5.0], [32, 64, 128], workers=3)
        for a, b in zip(serial.rows, threaded.rows):
            assert a.linf_error == b.linf_error
        assert serial.fitted_orders == threaded.fitted_orders


class TestEmitCsv:
    def test_header_and_roundtrip(self, tmp_path):
        report = run_convergence("dirichlet-sech", [5.0], [16, 32, 64])
        buf = io.StringIO()
        emit_csv(report, buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 4
        # 17 significant digits round-trip bit exactly
        for row, line in zip(report.rows, lines[1:]):
            fields = line.split(",")
            assert fields[0] == row.problem
            assert float(fields[1]) == row.half_width
            assert int(fields[2]) == row.steps
            assert float(fields[3]) == row.spacing
            assert float(fields[4]) == row.linf_error
            assert float(fields[5]) == row.fitted_order
            assert float(fields[6]) == row.runtime_ms

        path = tmp_path / "report.csv"
        emit_csv(report, path)
        assert path.read_text() == buf.getvalue()
