"""Spans around nldiff's public functions, recorded from outside the package.

Per-layer metrics and the end-to-end metric each should move:

- ``quadrature.*``, ``solve.stability_report.self_ms``, ``kernels.self_ms``,
  ``grids.compute_weights.self_ms``: ``pass_s`` on certify (about zero on
  the sweeps; ``kernels`` also feeds ``setup_s``).
- ``assembly.assemble.self_ms``, ``solve.solve.self_ms``: ``pass_s`` on
  both sweeps; ``assembly.matrix_bytes``: ``peak_rss_mb`` on
  sweep-dirichlet.
- ``assembly.realline_boundary_terms.self_ms``, ``expint.*``,
  ``assembly.dirichlet_boundary_term.calls``: ``pass_s`` on
  sweep-wholeline (closed route) and certify (quadrature route).
- ``solve.evaluate_solution``, ``harness.*``, ``cli.main``: ``pass_s`` on
  the sweeps (probe lattice, CSV) and certify.
- ``solve.residual_margin`` is a certificate margin and must stay below 1.

A traced function is replaced at every name that a module of the package
binds it to, so a caller that did ``from .quadrature import adaptive_quad``
reaches the wrapper as well.  Modules are looked up in ``sys.modules``:
``nldiff/__init__`` rebinds the attribute ``nldiff.solve`` to the function
``solve``, so ``import nldiff.solve as m`` would hand back the function and
a wrapper installed on it would count nothing.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# (layer, function); a span is named "<layer>.<function>"
TRACED = (
    ("quadrature", "adaptive_quad"),
    ("expint", "exp_int"),
    ("kernels", "tail_mass"),
    ("kernels", "moment_f"),
    ("grids", "compute_weights"),
    ("assembly", "assemble"),
    ("assembly", "realline_boundary_terms"),
    ("assembly", "dirichlet_boundary_term"),
    ("solve", "solve"),
    ("solve", "evaluate_solution"),
    ("solve", "stability_report"),
    ("harness", "run_convergence"),
    ("harness", "compatibility_check"),
    ("harness", "audit_closed_forms"),
    ("cli", "main"),
)

# A call to this private helper starts one sweep cell, so it opens a new
# request without a span of its own (a span would take the probe lattice
# out of run_convergence's self time).  Without it a whole invocation is
# one request.
CELL_HOOK = ("harness", "_run_cell")


def _package_modules() -> list:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "nldiff" or name.startswith("nldiff."))
    ]


def _count_evaluations(tracer: "Tracer", result) -> None:
    tracer.counters["quadrature.evals"] += result.evaluations


def _count_matrix_bytes(tracer: "Tracer", system) -> None:
    matrix = getattr(system, "matrix", None)
    tracer.counters["assembly.matrix_bytes"] += getattr(matrix, "nbytes", 0)


def _record_residual_margin(tracer: "Tracer", solution) -> None:
    diagnostics = solution.diagnostics
    margin = diagnostics["residual_inf"] / diagnostics["residual_bound"]
    key = "solve.residual_margin"
    tracer.counters[key] = max(tracer.counters[key], margin)


# counters read off a traced function's return value
_RESULT_HOOKS = {
    "quadrature.adaptive_quad": _count_evaluations,
    "assembly.assemble": _count_matrix_bytes,
    "solve.solve": _record_residual_margin,
}


class Tracer:
    """Holds the spans of one traced pass in memory.

    A span is ``(name, start, end, parent, request)``; ``parent`` is the
    index of the enclosing span or None, and ``request`` the id of the
    request (sweep cell or certify step) that was open when it started.
    Calls must come from one thread: the open spans form a single stack.
    """

    def __init__(self) -> None:
        self.spans: list = []
        self.requests: list[str] = []
        self.counters: dict[str, float] = defaultdict(int)
        self._stack: list[int] = []
        self._undo: list = []

    def begin_request(self, label: str) -> None:
        self.requests.append(label)

    def _span(self, name: str, fn):
        on_result = _RESULT_HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, len(self.requests) - 1)
            if on_result is not None:
                on_result(self, result)
            return result

        return wrapper

    def _cell(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.begin_request("cell " + ",".join(str(a) for a in args[1:]))
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Replace every traced function wherever the package binds it."""
        replacements = []
        for layer, fn in TRACED:
            original = getattr(sys.modules["nldiff." + layer], fn)
            replacements.append((original, self._span(layer + "." + fn, original)))
        hook = getattr(sys.modules["nldiff." + CELL_HOOK[0]], CELL_HOOK[1], None)
        if hook is not None:
            replacements.append((hook, self._cell(hook)))
        modules = _package_modules()
        for original, wrapper in replacements:
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._undo.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()

    def summary(self) -> dict[str, float]:
        """Calls and self time per span name and per layer, plus counters.

        Self time is a span's duration minus the durations of its direct
        children; calls are sequential, so children never overlap.
        """
        out: dict[str, float] = {
            "quadrature.evals": 0,
            "assembly.matrix_bytes": 0,
            "solve.residual_margin": 0.0,
        }
        for layer, fn in TRACED:
            for key in (layer, layer + "." + fn):
                out[key + ".calls"] = 0
                out[key + ".self_ms"] = 0.0
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        for (name, start, end, _, _), child in zip(self.spans, covered):
            for key in (name.split(".", 1)[0], name):
                out[key + ".calls"] += 1
                out[key + ".self_ms"] += 1e3 * (end - start - child)
        out.update(self.counters)
        return out

    def write_spans(self, stream, pass_index: int) -> None:
        """Append the spans as JSON lines, times in seconds from the first."""
        origin = self.spans[0][1] if self.spans else 0.0
        for index, (name, start, end, parent, request) in enumerate(self.spans):
            record = {
                "pass": pass_index,
                "id": index,
                "name": name,
                "start": start - origin,
                "end": end - origin,
                "parent": parent,
                "request": request,
                "request_label": self.requests[request] if request >= 0 else None,
            }
            stream.write(json.dumps(record) + "\n")
