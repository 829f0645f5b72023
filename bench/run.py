"""Benchmark of nldiff: one workload, end to end or traced per layer.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout; nldiff is imported from its
``src/``.  Each measurement runs in a fresh child process (``worker.py``),
one after another, with BLAS pinned to one thread and all of them pinned
to one CPU:

- ``--trace 0``: the workload child repeats untraced passes for S seconds
  and reports each pass's time and its peak memory; then fresh set-up
  children time ``import nldiff`` plus ``registry()``.
- ``--trace 1``: the child alternates untraced and traced passes and
  reports the per-layer counts and self times of the traced ones.

``pass_s`` and ``setup_s`` are medians of CPU times put at the reference
speed of the host by a sampler process that shares the CPU (see
``speed.py``).  The raw wall and CPU medians are in the record line, and
every pass is in ``result.json``.

The last line of standard output is the JSON result; the line before it
is the machine and code record.  Both, the spans and the outcomes are
also written under ``bench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BLAS_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_SAMPLES = 15
# a run has to exit within 180 s; this leaves a margin for the parent
RUN_LIMIT_S = 170.0


class BenchError(Exception):
    pass


def _child_env() -> dict:
    # bytecode caches are written, as for an installed package, so set-up
    # time does not include compiling nldiff
    dropped = ("PYTHONPATH", "PYTHONDONTWRITEBYTECODE", "NLDIFF_QUAD_TOL")
    env = {k: v for k, v in os.environ.items() if k not in dropped}
    env.update(BLAS_PINS)
    env["PYTHONHASHSEED"] = "0"
    # glibc raises its mmap threshold each time a large block is freed, so
    # peak memory depended on the order of the invocations (201 or 220 MB
    # on sweep-wholeline); fixed at the ceiling of that rise, 32 MiB, it
    # does not, and blocks below it still come from the heap
    env["MALLOC_MMAP_THRESHOLD_"] = str(32 << 20)
    return env


def _child(args: list[str], deadline: float) -> dict:
    """Run worker.py to completion and return its last stdout line."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before worker %s" % " ".join(args))
    try:
        done = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), *args],
            cwd=ROOT,
            env=_child_env(),
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError("worker %s timed out" % " ".join(args)) from exc
    if done.returncode != 0:
        raise BenchError("worker %s exited %d:\n%s" % (" ".join(args), done.returncode, done.stderr))
    return json.loads(done.stdout.strip().splitlines()[-1])


def _source_record() -> dict:
    digest = hashlib.sha256()
    lines = 0
    for path in sorted((ROOT / "src").rglob("*.py")):
        data = path.read_bytes()
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            )
            commit = done.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"git_commit": commit, "src_sha256": digest.hexdigest(), "src_lines": lines}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as stream:
            for line in stream:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def _record(args, child: dict, setup: list[dict], sampler: speed.Sampler) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": child["numpy"],
        "openblas": child["blas"].get("version"),
        "blas_threads": BLAS_PINS,
        **_source_record(),
        "pass_wall_s": _median(child["passes"], "wall_s"),
        "pass_cpu_s": _median(child["passes"], "cpu_s"),
        "setup_wall_s": _median(setup, "wall_s"),
        "setup_cpu_s": _median(setup, "cpu_s"),
        "sampler_units": len(sampler.units),
    }


def _median(intervals: list[dict], key: str):
    return statistics.median(i[key] for i in intervals) if intervals else None


def _metrics(args, child: dict, setup: list[dict]) -> dict:
    if args.trace:
        return child["layers"]
    return {
        "pass_s": _median(child["passes"], "scaled_s"),
        "setup_s": _median(setup, "scaled_s"),
        "peak_rss_mb": child["peak_rss_mb"],
        "success_frac": (child["attempted"] - child["failed"]) / child["attempted"],
    }


def run(args) -> tuple[dict, dict]:
    deadline = time.monotonic() + RUN_LIMIT_S
    if not (ROOT / "src" / "nldiff" / "__init__.py").is_file():
        raise BenchError("no nldiff sources under %s" % (ROOT / "src"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        raise BenchError("unknown workload %r" % args.workload)
    out_dir = BENCH / "out" / ("%s-seed%d-trace%d" % (args.workload, args.seed, args.trace))

    # the sampler and every measured child share one CPU
    cpu = str(max(os.sched_getaffinity(0)))
    sampler = speed.Sampler(
        [sys.executable, str(BENCH / "worker.py"), "sample", "--cpu", cpu], ROOT, _child_env()
    )
    with sampler:
        child = _child(
            [
                "run",
                "--cpu", cpu,
                "--workload", args.workload,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
                "--out", str(out_dir),
            ],
            deadline,
        )
        setup = []
        if not args.trace:
            _child(["setup", "--cpu", cpu], deadline)  # fills the bytecode caches
            setup = [_child(["setup", "--cpu", cpu], deadline) for _ in range(SETUP_SAMPLES)]
        sampler.stop()
    for interval in child["passes"] + setup:
        interval["scaled_s"] = sampler.scale(interval["cpu_s"], interval["start"], interval["end"])

    values = _metrics(args, child, setup)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    correct = child["failed"] == 0 and child["identical"]
    result = {
        "correct": correct,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": metrics,
    }
    record = _record(args, child, setup, sampler)
    details = {
        "record": record,
        "result": result,
        "passes": child["passes"],
        "traced_wall_s": child["traced_wall_s"],
        "setup_s": setup,
        "failures": child["failures"],
        "identical": child["identical"],
        "layers": child.get("layers"),
        "units": sampler.units,
    }
    (out_dir / "result.json").write_text(json.dumps(details, indent=1))
    return record, result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # on SIGTERM, unwind so that the children are killed and waited for
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        record, result = run(args)
    except (BenchError, OSError, ValueError, KeyError, RuntimeError, subprocess.SubprocessError) as exc:
        sys.stderr.write("bench: %s\n" % exc)
        return 1
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
