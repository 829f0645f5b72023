"""Child process of the benchmark; ``run.py`` starts one per measurement.

    worker.py setup --cpu C         time `import nldiff` plus registry()
    worker.py run --cpu C --workload W --seed N --seconds S --trace 0|1 --out DIR
    worker.py sample --cpu C        time reference units until stdin closes
    worker.py record                rewrite reference.json from one pass

``setup``, ``run`` and ``sample`` pin themselves to CPU ``C``; ``setup`` and
``run`` report the start and end of each measured interval on the clock of
``speed.now()`` and its wall and CPU time.  ``run`` repeats passes of the
workload until the next one would overrun ``--seconds``.  With
``--trace 1`` it alternates an untraced and a traced pass; the median
difference of each pair is the tracing overhead.  Every pass must give
bit-identical outcomes.  The last line of standard output is one JSON
object.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

import speed

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = Path(__file__).resolve().parent / "reference.json"


def _import_nldiff():
    sys.path.insert(0, str(ROOT / "src"))
    import nldiff

    return nldiff


def _check_source(nldiff) -> None:
    where = Path(nldiff.__file__).resolve().parent
    if where != (ROOT / "src" / "nldiff").resolve():
        raise SystemExit("nldiff was imported from %s, not from %s/src" % (where, ROOT))


class _Interval:
    """Start and end on the sampler's clock, wall time and CPU time."""

    def __enter__(self) -> "_Interval":
        self.start, self._wall, self._cpu = speed.now(), time.perf_counter(), time.process_time()
        return self

    def __exit__(self, *exc) -> None:
        self.cpu_s = time.process_time() - self._cpu
        self.wall_s = time.perf_counter() - self._wall
        self.end = speed.now()

    def record(self) -> dict:
        return {"start": self.start, "end": self.end, "wall_s": self.wall_s, "cpu_s": self.cpu_s}


def cmd_setup() -> dict:
    with _Interval() as interval:
        nldiff = _import_nldiff()
        nldiff.registry()
    _check_source(nldiff)
    return interval.record()


def _run_pass(ops, tracer) -> dict:
    failures, outcome, cells, attempted = [], {}, 0, 0
    if tracer is not None:
        tracer.install()
    try:
        with _Interval() as interval:
            for op in ops:
                if tracer is not None:
                    tracer.begin_request(op.label)
                attempted += op.attempted
                try:
                    result = op.run()
                except Exception as exc:  # a failed step counts; the pass goes on
                    message = "%s: %s: %s" % (op.label, type(exc).__name__, exc)
                    failures.extend([message] * op.attempted)
                    outcome[op.label] = message
                    continue
                failures.extend("%s: %s" % (op.label, f) for f in result.failures)
                outcome[op.label] = result.outcome
                cells += result.cells
    finally:
        if tracer is not None:
            tracer.uninstall()
    return {
        **interval.record(),
        "attempted": attempted,
        "failures": failures,
        "outcome": outcome,
        "cells": cells,
    }


def cmd_run(workload: str, seed: int, seconds: float, trace: bool, out_dir: Path) -> dict:
    nldiff = _import_nldiff()
    _check_source(nldiff)
    nldiff.registry()  # lazy set-up finishes before timing

    import numpy as np
    import tracer as tracing
    import workloads

    out_dir.mkdir(parents=True, exist_ok=True)
    reference = json.loads(REFERENCE.read_text())
    ops = workloads.build(workload, seed, out_dir, reference)

    untraced, traced, tracers = [], [], []
    start = time.perf_counter()
    while True:
        untraced.append(_run_pass(ops, None))
        if trace:
            tracers.append(tracing.Tracer())
            traced.append(_run_pass(ops, tracers[-1]))
        elapsed = time.perf_counter() - start
        rounds = len(untraced)
        if elapsed * (rounds + 1) / rounds > seconds:
            break

    passes = untraced + traced
    first = passes[0]["outcome"]
    failures = [f for p in passes for f in p["failures"]]
    result = {
        "workload": workload,
        "passes": [{k: p[k] for k in ("start", "end", "wall_s", "cpu_s")} for p in untraced],
        "traced_wall_s": [p["wall_s"] for p in traced],
        "attempted": sum(p["attempted"] for p in passes),
        "failed": len(failures),
        "failures": failures[:20],
        "identical": all(p["outcome"] == first for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numpy": np.__version__,
        "blas": np.show_config(mode="dicts")["Build Dependencies"]["blas"],
    }
    if trace:
        summaries = []
        with open(out_dir / "spans.jsonl", "w") as spans:
            for index, (tracer, p) in enumerate(zip(tracers, traced)):
                tracer.write_spans(spans, index)
                summaries.append({**tracer.summary(), "harness.cells": p["cells"]})
        layers = {k: statistics.median(s[k] for s in summaries) for k in summaries[0]}
        # each traced pass runs right after an untraced one; pairing them
        # keeps slow drift of the machine out of the difference
        layers["trace.overhead_ms"] = 1e3 * statistics.median(
            t["wall_s"] - u["wall_s"] for u, t in zip(untraced, traced)
        )
        result["layers"] = layers
    (out_dir / "outcome.json").write_text(json.dumps(first, indent=1))
    return result


def cmd_record() -> dict:
    """Recompute reference.json: the per-cell errors of both sweeps and the
    preflight outcome of every registry entry with a certificate."""
    nldiff = _import_nldiff()
    _check_source(nldiff)
    import workloads

    reference: dict = {"linf_error": {}, "compatible": {}}
    with tempfile.TemporaryDirectory(dir=ROOT / "bench") as scratch:
        for workload in workloads.WORKLOADS:
            for op in workloads.build(workload, 0, Path(scratch), None):
                for key, values in op.run().recorded.items():
                    reference[key].update(values)
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return {"recorded": sum(len(v) for v in reference.values())}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("record")
    for name in ("setup", "sample"):
        sub.add_parser(name).add_argument("--cpu", type=int, required=True)
    run = sub.add_parser("run")
    run.add_argument("--cpu", type=int, required=True)
    run.add_argument("--workload", required=True)
    run.add_argument("--seed", type=int, required=True)
    run.add_argument("--seconds", type=float, required=True)
    run.add_argument("--trace", type=int, choices=(0, 1), required=True)
    run.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    if args.command == "sample":
        speed.sample(args.cpu)
        return
    if args.command != "record":
        speed.pin(args.cpu)
    if args.command == "setup":
        result = cmd_setup()
    elif args.command == "record":
        result = cmd_record()
    else:
        result = cmd_run(args.workload, args.seed, args.seconds, bool(args.trace), args.out)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
