"""The bench tracer's names resolve in the package.

`bench/tracer.py` wraps functions it looks up by (layer, name) only when a
traced bench run installs it, so a renamed or deleted function would break
`bench/run.py --trace 1` without failing any other test.  The tracer
imports only the standard library, so it is loaded here by path.
"""

import importlib
import importlib.util
from pathlib import Path

_TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("nldiff_bench_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracer = _load_tracer()
    missing = [
        "%s.%s" % (layer, name)
        for layer, name in tracer.TRACED + (tracer.CELL_HOOK,)
        if not callable(getattr(importlib.import_module("nldiff." + layer), name, None))
    ]
    assert not missing, "bench/tracer.py traces names the package lacks: %s" % missing
