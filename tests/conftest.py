import dataclasses
import functools
import importlib
import pathlib

import numpy as np
import pytest

# outcome per release criterion, filled by the acceptance marker hook
_ACCEPTANCE: dict[int, tuple[str, str]] = {}


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    marker = item.get_closest_marker("acceptance")
    if marker is None:
        return
    num = marker.kwargs.get("num", 0)
    title = marker.kwargs.get("title", item.name)
    if report.when == "call":
        _ACCEPTANCE[num] = (title, "PASS" if report.passed else "FAIL")
    elif report.when == "setup" and not report.passed:
        _ACCEPTANCE[num] = (title, "SKIP" if report.skipped else "FAIL")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE:
        terminalreporter.section("acceptance criteria")
        for num in sorted(_ACCEPTANCE):
            title, state = _ACCEPTANCE[num]
            terminalreporter.write_line("criterion %d: %s  (%s)" % (num, state, title))
    # the package's size, counted as `wc -l src/nldiff/*.py` counts it
    package = pathlib.Path(__file__).resolve().parent.parent / "src" / "nldiff"
    lines = sum(path.read_bytes().count(b"\n") for path in package.glob("*.py"))
    terminalreporter.write_line("src/ lines: %d" % lines)


@pytest.fixture
def counted():
    """kernel -> (the same kernel counting the points it is evaluated at,
    a one-element list holding the count)."""

    def wrap(kernel):
        count = [0]
        evaluate = kernel.evaluate

        def counting(y):
            count[0] += np.asarray(y).size
            return evaluate(y)

        return dataclasses.replace(kernel, evaluate=counting), count

    return wrap


@pytest.fixture
def quadrature_budget(monkeypatch):
    """(module, rounds=None, panels=None) -> None.  For this test, the
    adaptive quadratures and certified tails that ``module`` calls by the
    names it imported run with at most ``rounds`` refinement rounds and
    ``panels`` live panels per integral; calls from every other module keep
    the package's budget."""
    quadrature = importlib.import_module("nldiff.quadrature")

    def limit(module, rounds=None, panels=None):
        budget = {
            name: value
            for name, value in (("_MAX_ROUNDS", rounds), ("_PANEL_CAP", panels))
            if value is not None
        }

        def limited(entry):
            @functools.wraps(entry)
            def call(*args, **kwargs):
                saved = {name: getattr(quadrature, name) for name in budget}
                for name, value in budget.items():
                    setattr(quadrature, name, value)
                try:
                    return entry(*args, **kwargs)
                finally:
                    for name, value in saved.items():
                        setattr(quadrature, name, value)

            return call

        for name in ("adaptive_quad", "adaptive_quad_many", "_certified_tails"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, limited(getattr(module, name)))

    return limit
