"""Every operation of the three bench workloads passes once.

`bench/workloads.py` drives the package only through its public names and
checks each sweep cell against `bench/reference.json` to a relative 1e-6,
so a broken public call or a drifted cell would otherwise show only in a
bench run.  The module is loaded by path and registered in `sys.modules`
first, because its dataclasses look their module up while being created.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

_BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def workloads(monkeypatch):
    name = "nldiff_bench_workloads"
    spec = importlib.util.spec_from_file_location(name, _BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_every_workload_op_passes_against_the_reference(workloads, tmp_path):
    reference = json.loads((_BENCH / "reference.json").read_text())
    failures = {}
    for workload in workloads.WORKLOADS:
        out_dir = tmp_path / workload
        out_dir.mkdir()
        for op in workloads.build(workload, 0, out_dir, reference):
            result = op.run()
            if result.failures:
                failures["%s: %s" % (workload, op.label)] = result.failures
    assert not failures
