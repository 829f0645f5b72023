"""Command line front end, driven through main(argv)."""

import functools
import importlib
import math

import numpy as np
import pytest

from nldiff.cli import _parser, main
from nldiff.quadrature import adaptive_quad_many


def parse_kv(text):
    out = {}
    for line in text.strip().split("\n"):
        key, _, value = line.partition("=")
        out[key] = value
    return out


class TestSolve:
    def test_stdout_csv(self, capsys):
        assert main(["solve", "--problem", "dirichlet-sech", "--L", "5", "--M", "16"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "x,u"
        assert len(lines) == 16  # M - 1 interior nodes
        xs = np.array([float(l.split(",")[0]) for l in lines[1:]])
        us = np.array([float(l.split(",")[1]) for l in lines[1:]])
        np.testing.assert_allclose(xs, np.arange(-7, 8) * 10.0 / 16.0, atol=1e-15)
        # crude sanity: peak at the center, even to discretization error
        assert us.argmax() == 7
        assert us[7] == pytest.approx(1.0, abs=0.05)

    def test_out_file(self, tmp_path, capsys):
        dest = tmp_path / "solution.csv"
        assert (
            main(
                [
                    "solve",
                    "--problem",
                    "realline-algebraic",
                    "--L",
                    "5",
                    "--M",
                    "16",
                    "--out",
                    str(dest),
                ]
            )
            == 0
        )
        assert capsys.readouterr().out == ""
        lines = dest.read_text().strip().split("\n")
        assert lines[0] == "x,u"
        assert len(lines) == 18  # M + 1 nodes on the whole-line grid

    def test_unknown_problem(self, capsys):
        assert main(["solve", "--problem", "no-such", "--L", "5", "--M", "16"]) == 2
        err = capsys.readouterr().err.strip()
        assert "\n" not in err
        assert "unknown problem" in err
        assert "dirichlet-sech" in err


class TestConverge:
    def test_stdout_csv(self, capsys):
        code = main(
            ["converge", "--problem", "dirichlet-sech", "--L", "5", "--M", "16,32,64"]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "problem,L,M,h,linf_error,fitted_order,runtime_ms"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[0] == "dirichlet-sech"
        assert float(first[1]) == 5.0
        assert int(first[2]) == 16
        # fitted order repeats on every row of the group
        orders = {line.split(",")[5] for line in lines[1:]}
        assert len(orders) == 1

    def test_multiple_half_widths_and_out_file(self, tmp_path):
        dest = tmp_path / "sweep.csv"
        code = main(
            [
                "converge",
                "--problem",
                "dirichlet-sech",
                "--L",
                "4,8",
                "--M",
                "16,32,64",
                "--out",
                str(dest),
                "--workers",
                "2",
            ]
        )
        assert code == 0
        lines = dest.read_text().strip().split("\n")
        assert len(lines) == 7
        halves = [float(l.split(",")[1]) for l in lines[1:]]
        assert halves == [4.0, 4.0, 4.0, 8.0, 8.0, 8.0]

    def test_unknown_problem_lists_known_ids(self, capsys):
        code = main(["converge", "--problem", "no-such", "--L", "5", "--M", "16,32,64"])
        assert code == 2
        err = capsys.readouterr().err.strip()
        assert "\n" not in err
        assert "unknown problem" in err
        assert "realline-algebraic" in err

    def test_too_few_step_counts_is_a_clean_error(self, capsys):
        code = main(
            ["converge", "--problem", "dirichlet-sech", "--L", "5", "--M", "16,32"]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "at least 3 step counts" in captured.err


class TestCheck:
    def test_compatible_forcing_exits_zero(self, capsys):
        assert main(["check", "--problem", "realline-algebraic"]) == 0
        kv = parse_kv(capsys.readouterr().out)
        assert abs(float(kv["mean"])) <= 1e-9
        assert abs(float(kv["first_moment"])) <= 1e-9
        assert kv["passed"] == "true"
        assert float(kv["quad_tol"]) > 0.0

    def test_truncated_neumann_forcing_fails_honestly(self, capsys):
        # zeroing the sech forcing outside the window leaves a nonzero mean,
        # and the preflight reports it instead of hiding it
        assert main(["check", "--problem", "comparison-sech-neumann", "--L", "10"]) == 1
        kv = parse_kv(capsys.readouterr().out)
        assert kv["passed"] == "false"
        mean = float(kv["mean"])
        # the forcing runs like (3/2 - t) e^{-t} in the tail, so the dropped
        # mass is 2 (L - 1/2) e^{-L} to leading order
        assert mean == pytest.approx(2.0 * 9.5 * math.exp(-10.0), rel=1e-5)

    def test_loose_tolerance_flips_the_verdict(self, capsys):
        code = main(
            ["check", "--problem", "comparison-sech-neumann", "--L", "10", "--tol", "1e-2"]
        )
        assert code == 0
        assert parse_kv(capsys.readouterr().out)["passed"] == "true"

    def test_problem_without_certificate_exits_two(self, capsys):
        assert main(["check", "--problem", "dirichlet-sech"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "no whole-line forcing" in captured.err

    def test_quad_tol_reports_the_tolerance_used(self, capsys):
        main(["check", "--problem", "realline-algebraic", "--tol", "1e-12"])
        assert float(parse_kv(capsys.readouterr().out)["quad_tol"]) == 1e-13


class TestStability:
    def test_dirichlet_report(self, capsys):
        assert main(["stability", "--problem", "dirichlet-sech", "--L", "5", "--M", "64"]) == 0
        kv = parse_kv(capsys.readouterr().out)
        assert kv["variant"] == "dirichlet"
        assert kv["stable"] == "true"
        assert float(kv["min_eigenvalue"]) == pytest.approx(0.066234881732554443, rel=1e-10)
        assert 0.0 < float(kv["min_eigenvalue_lower"]) < float(kv["min_eigenvalue"])
        assert kv["contraction_norm"] == "nan"
        assert float(kv["symbol_min"]) == pytest.approx(4.5399929762484854e-05, rel=1e-10)
        assert float(kv["symbol_lower_bound"]) == pytest.approx(
            math.exp(-20.0), rel=1e-12
        )
        assert 0.0 <= float(kv["symbol_error"]) <= 1e-10

    def test_realline_report(self, capsys):
        assert (
            main(["stability", "--problem", "realline-algebraic", "--L", "5", "--M", "64"])
            == 0
        )
        kv = parse_kv(capsys.readouterr().out)
        assert kv["variant"] == "realline"
        assert kv["min_eigenvalue"] == "nan"
        assert kv["min_eigenvalue_lower"] == "nan"
        assert 0.0 < float(kv["contraction_norm"]) < 1.0

    def test_dense_certificate_too_large_is_a_clean_error(self, capsys):
        # the smallest-eigenvalue certificate takes O(n^2) time; it is
        # refused before the symbol quadratures
        assert (
            main(["stability", "--problem", "dirichlet-sech", "--L", "10", "--M", "100000"])
            == 2
        )
        assert "refusing to certify" in capsys.readouterr().err

    def test_neumann_variant_label(self, capsys):
        assert (
            main(
                ["stability", "--problem", "neumann-discontinuous", "--L", "8", "--M", "64"]
            )
            == 0
        )
        assert parse_kv(capsys.readouterr().out)["variant"] == "neumann"


class TestFailureExitCodes:
    """Solver and quadrature failures exit 3, apart from 1 (check failed,
    not stable) and 2 (bad input), with one line of diagnostics."""

    def test_solver_failure(self, capsys, monkeypatch):
        monkeypatch.setattr(importlib.import_module("nldiff.solve"), "_CG_MAX_ITERATIONS", 1)
        code = main(["solve", "--problem", "dirichlet-sech", "--L", "5", "--M", "64"])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.strip()
        assert "\n" not in err
        assert "did not converge" in err and "iterations=1" in err and "residual=" in err

    def test_singular_capacitance(self, capsys, monkeypatch):
        # z = T^{-1} b_0 with z_0 = z_{n-1} = 1/2 zeroes the even scalar
        module = importlib.import_module("nldiff.solve")
        cg = module._preconditioned_cg

        def forced(operator, eigenvalues, rhs):
            solved, iterations = cg(operator, eigenvalues, rhs)
            solved[1, [0, -1]] = 0.5
            return solved, iterations

        monkeypatch.setattr(module, "_preconditioned_cg", forced)
        code = main(["solve", "--problem", "realline-algebraic", "--L", "5", "--M", "64"])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.strip()
        assert "\n" not in err
        assert "capacitance is singular" in err and "iterations=" in err

    def test_quadrature_budget_exhaustion(self, capsys, monkeypatch):
        monkeypatch.setattr(
            importlib.import_module("nldiff.harness"),
            "adaptive_quad_many",
            functools.partial(adaptive_quad_many, max_rounds=1),
        )
        assert main(["check", "--problem", "realline-algebraic"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.strip()
        assert "\n" not in err
        assert "did not reach" in err and "best estimate" in err

    def test_batched_quadrature_exhaustion(self, capsys, monkeypatch):
        # building the registry audits the closed sech boundary terms against
        # the batched boundary quadrature
        monkeypatch.setattr(importlib.import_module("nldiff.harness"), "_REGISTRY", None)
        monkeypatch.setattr(
            importlib.import_module("nldiff.assembly"),
            "adaptive_quad_many",
            functools.partial(adaptive_quad_many, max_rounds=1),
        )
        code = main(["solve", "--problem", "dirichlet-sech", "--L", "5", "--M", "64"])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.strip()
        assert "\n" not in err
        assert "did not reach" in err and "of 2 integrals" in err and "best estimate" in err

    def test_symbol_table_exhaustion(self, capsys, monkeypatch):
        # a cap at the first table leaves no second resolution to compare
        monkeypatch.setattr(importlib.import_module("nldiff.quadrature"), "_VERSINE_PANEL_CAP", 64)
        code = main(["stability", "--problem", "realline-algebraic", "--L", "5", "--M", "64"])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.strip()
        assert "\n" not in err
        assert "versine transform did not reach" in err


class TestParser:
    def test_requires_subcommand(self, capsys):
        with pytest.raises(SystemExit):
            main([])

    def test_rejects_unknown_flag(self):
        with pytest.raises(SystemExit):
            main(["solve", "--problem", "dirichlet-sech", "--L", "5", "--M", "16", "--bad", "1"])

    def test_consecutive_calls_share_one_parser(self, tmp_path, capsys):
        # the tree is built once per process, and no call leaves a value
        # behind for the next: the second solve has no --out and prints
        dest = tmp_path / "solution.csv"
        solve_args = ["solve", "--problem", "dirichlet-sech", "--L", "5", "--M", "16"]
        assert main(solve_args + ["--out", str(dest)]) == 0
        assert main(["check", "--problem", "realline-algebraic"]) == 0
        assert parse_kv(capsys.readouterr().out)["passed"] == "true"
        with pytest.raises(SystemExit) as err:
            main(["solve", "--problem", "dirichlet-sech", "--L", "5"])
        assert err.value.code == 2
        assert "--M" in capsys.readouterr().err
        assert main(solve_args) == 0
        assert capsys.readouterr().out == dest.read_text()
        assert _parser() is _parser()
