import dataclasses

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
    if not _ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_ACCEPTANCE):
        title, state = _ACCEPTANCE[num]
        terminalreporter.write_line("criterion %d: %s  (%s)" % (num, state, title))


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
