"""A reference sampler that puts the benchmark's times at one speed of the host.

A shared host changes speed in spells of seconds to minutes, by up to half,
so two runs of the same code can differ by more than any sensible bound.
While a run lasts, a sampler process shares the one CPU that the measured
processes are pinned to.  At the lowest priority it takes about 1.5% of
that CPU, in short slices spread over every measured interval, and times
two fixed units of work in turn, again and again:

- ``py``: fill a dict with 600 small tuples and lists and sort its items.
  That is allocation and pointer chasing, the kind of interpreter work that
  slows most when the host is busy, as the quadrature-bound workloads and
  ``import nldiff`` do.
- ``blas``: one 192x192 matrix product in numpy's BLAS, the kernel that a
  large LU spends its time in.

The benchmark reports

    scaled time = CPU time / slowdown

where the slowdown is the mean, over the units that ended inside the
measured interval, of a unit's CPU time divided by its CPU time at the
reference speed.  Both kinds count in every interval: together they
followed each workload and ``import nldiff`` more closely than either
alone.  A spell that slows the host slows the units as well, so the scaled
time stays put; a change to nldiff moves its CPU time and not the units,
so it shows in full.  The raw times are kept next to the scaled ones.
"""

from __future__ import annotations

import json
import os
import select
import statistics
import subprocess
import sys
import time

# CPU seconds of one unit at the reference speed: about the median on an
# Intel Xeon 2-vCPU virtual machine
UNIT_REFERENCE_S = {"py": 0.0003, "blas": 0.0006}
# an interval with fewer units than this is widened until it has them
MIN_UNITS = 10
NICE = 19


def now() -> float:
    """The clock shared by the sampler and the measured processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def pin(cpu: int) -> None:
    os.sched_setaffinity(0, {cpu})


def sample(cpu: int) -> None:
    """Time units until standard input closes, then print them as JSON.

    Each entry is ``[end, kind, cpu_seconds]`` of one unit; ``end`` is on
    the clock of ``now()``.
    """
    import numpy as np

    pin(cpu)
    matrix = np.random.default_rng(0).standard_normal((192, 192))

    def py() -> None:
        table = {}
        for i in range(600):
            table[str(i)] = (i, [i])
        sorted(table.items())

    def blas() -> None:
        matrix @ matrix

    kinds = {"py": py, "blas": blas}
    for unit in kinds.values():
        unit()
    os.nice(NICE)
    units = []
    while not select.select([sys.stdin], [], [], 0)[0]:
        for kind, unit in kinds.items():
            start = time.process_time()
            unit()
            units.append([now(), kind, time.process_time() - start])
    json.dump(units, sys.stdout)


class Sampler:
    """Runs ``worker.py sample`` for the duration of a ``with`` block."""

    def __init__(self, argv: list[str], cwd, env: dict) -> None:
        self._argv, self._cwd, self._env = argv, cwd, env
        self.units: list = []

    def __enter__(self) -> "Sampler":
        self._process = subprocess.Popen(
            self._argv,
            cwd=self._cwd,
            env=self._env,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        return self

    def stop(self) -> None:
        """Close the sampler's input and collect its units."""
        try:
            out, _ = self._process.communicate(input="", timeout=30)
        except subprocess.TimeoutExpired:
            self._process.kill()
            self._process.wait()
            raise
        if self._process.returncode != 0:
            raise RuntimeError("sampler exited %d" % self._process.returncode)
        self.units = json.loads(out)

    def __exit__(self, *exc) -> None:
        if self._process.poll() is None:
            self._process.kill()
        self._process.__exit__(*exc)  # closes the pipes and waits

    def slowdown(self, intervals: list[tuple[float, float]]) -> float:
        """Mean ratio of a unit's CPU time to its reference, over the units
        that ended inside the intervals; they are widened until they hold
        ``MIN_UNITS``."""
        if len(self.units) < MIN_UNITS:
            raise RuntimeError("the sampler timed %d units" % len(self.units))
        while True:
            ratios = [
                c / UNIT_REFERENCE_S[kind]
                for end, kind, c in self.units
                if any(a <= end <= b for a, b in intervals)
            ]
            if len(ratios) >= MIN_UNITS:
                return statistics.fmean(ratios)
            intervals = [(a - (b - a) / 2 - 1e-3, b + (b - a) / 2 + 1e-3) for a, b in intervals]

    def scale(self, cpu_s: float, start: float, end: float) -> float:
        """``cpu_s`` spent between ``start`` and ``end``, at the reference speed."""
        return cpu_s / self.slowdown([(start, end)])
