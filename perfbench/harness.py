"""Set-up, the timed loop, the reference-speed scale and the result line.

Timing on a shared 2-vCPU Xeon VM (2.0 GHz): the same solve's wall time
moves by up to 1.6x within seconds while the process is on the CPU the whole
time (wall time equals CPU time), so the drift is the machine's speed and not
the program's.  Every timed piece of work is therefore bracketed by a fixed
~10 ms reference kernel that does not touch mgincept, and its wall time is
scaled by REF_KERNEL_MS / (mean of the two kernel times around it).  A change
to the program moves the scaled time just as it moves the wall time; a change
in machine speed moves the kernel too and cancels.  The kernel has the grain
of the workload's own work (small-array numpy calls for the LP workloads,
JSON parsing and 1e5-element array passes for `rollout`), because a kernel of
the wrong grain over- or under-corrects.  On that VM, over 8 runs of one
`incept` round the spread of the op median fell from 9 % raw to 3.7 %
scaled, and over 8 `rollout` seeds from 22 % to 5 %.  The raw kernel time is
reported with the traced run (`machine.ref_kernel_ms`).
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

from .tracing import Tracer

# Nominal time of a reference kernel: times are reported as if the kernel
# had taken exactly this long, about its median on a 2 GHz Xeon vCPU.
REF_KERNEL_MS = 10.0
SETUP_REPEATS = 5
IMPORT_PROBES = 5
# Run in a fresh interpreter: the time to import mgincept and numpy.
_IMPORT_PROBE = ("import time; t0 = time.perf_counter(); import sys; sys.path.insert(0, {src!r}); "
                 "import mgincept, mgincept.gamefile; print(time.perf_counter() - t0)")
_TABLEAU = np.linspace(0.1, 1.0, 12 * 24).reshape(12, 24)
_JSON_DOC = json.dumps(np.linspace(-1.0, 1.0, 1800).tolist())
_BIG = np.linspace(0.0, 1.0, 120_000)
_GATHER = (np.arange(_BIG.size) * 7919) % _BIG.size


def _array_block() -> None:
    """Small-array numpy calls, the grain of simplex pivots and stage updates."""
    t = _TABLEAU.copy()
    for i in range(233):
        r = i % 11
        t[r] /= 1.0 + t[r, 3]
        col = t[:, 3].copy()
        col[r] = 0.0
        t -= np.outer(col, t[r]) * 1e-3
        np.nonzero(t[:, 5] > 0.5)


def _io_block() -> None:
    """JSON parsing into an array, then a gather, a cumulative sum and a
    count over 1e5 elements: the grain of loading a game and rolling out."""
    np.asarray(json.loads(_JSON_DOC))
    x = _BIG[_GATHER]
    np.cumsum(x)
    np.count_nonzero(x <= 0.5)


KERNEL_BLOCKS = {"array": _array_block, "io": _io_block}


def reference_kernel(grain: str) -> float:
    """Wall seconds of a fixed kernel of the given grain, about 10 ms.

    The work is done in three equal blocks and the fastest block, times
    three, is returned, so one interrupt of a few ms does not skew it."""
    block = KERNEL_BLOCKS[grain]
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        block()
        times.append(time.perf_counter() - t0)
    return 3.0 * min(times)


def reference_scale(before: float, after: float) -> float:
    """Factor from wall seconds to reference-machine seconds."""
    return REF_KERNEL_MS / 1000.0 * 2.0 / (before + after)


class Run:
    """One benchmark run of one workload in this process."""

    def __init__(self, workload, seed: int, seconds: float, trace: bool, workdir: str):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.tracer = Tracer() if trace else None
        self.workdir = workdir
        self.kernel_times = []

    def _kernel(self) -> float:
        dt = reference_kernel(self.workload.grain)
        self.kernel_times.append(dt)
        return dt

    def time_import(self, src: str) -> float:
        """Median over IMPORT_PROBES fresh interpreters of the time to import
        mgincept and numpy, each scaled like an op.  One import in this
        process varied by 2.5x from run to run."""
        times = []
        before = self._kernel()
        for _ in range(IMPORT_PROBES):
            out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE.format(src=src)],
                                 capture_output=True, text=True, check=True, timeout=60)
            after = self._kernel()
            times.append(float(out.stdout) * reference_scale(before, after))
            before = after
        return statistics.median(times)

    def set_up(self, src: str) -> float:
        """Time the import, then build the inputs and run the untimed warm-up
        op, SETUP_REPEATS times, each scaled like an op.

        Returns set-up seconds: the median import plus the median repetition.
        """
        self.import_s = self.time_import(src)
        self.setup_reps = []
        before = self._kernel()
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            shutil.rmtree(self.workdir, ignore_errors=True)
            os.makedirs(self.workdir)
            self.items = self.workload.build(self.seed, self.workdir)
            self.workload.op(self.workload.warmup_item(self.items))
            raw = time.perf_counter() - t0
            after = self._kernel()
            self.setup_reps.append(raw * reference_scale(before, after))
            before = after
        return self.import_s + statistics.median(self.setup_reps)

    def measure(self) -> None:
        """Time whole rounds of ops until about `seconds` have passed."""
        self.op_times = []      # reference seconds, every op
        self.ok_times = []      # reference seconds, successful ops
        self.units = 0
        self.failed = 0
        self.rounds = 0
        self.first_round = []
        before = self._kernel()
        start = time.perf_counter()
        if self.tracer:
            self.tracer.install()
        try:
            while True:
                for item in self.items:
                    result = self._timed_op(item, before)
                    before = self.kernel_times[-1]
                    if self.rounds == 0:
                        self.first_round.append(result)
                self.rounds += 1
                elapsed = time.perf_counter() - start
                if elapsed + 0.5 * elapsed / self.rounds >= self.seconds:
                    break
        finally:
            if self.tracer:
                self.tracer.uninstall()
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def _timed_op(self, item, before: float):
        t0 = time.perf_counter()
        try:
            result = self.workload.op(item)
        except Exception as exc:
            if not self.workload.is_fault(exc):
                raise
            result = None
        raw = time.perf_counter() - t0
        scale = reference_scale(before, self._kernel())
        if self.tracer:
            self.tracer.commit(scale)
        self.op_times.append(raw * scale)
        if result is None:
            self.failed += 1
        else:
            self.ok_times.append(raw * scale)
            self.units += self.workload.units(item)
        return result

    def metrics(self, setup_s: float) -> dict:
        """End-to-end metrics, or per-layer ones for a traced run."""
        op_p50_ms = 1000.0 * statistics.median(self.ok_times)
        if self.tracer:
            counts = self.workload.layer_counts(self.items, self.first_round)
            kernel_ms = 1000.0 * statistics.median(self.kernel_times)
            return self.tracer.metrics(self.rounds, counts, op_p50_ms, kernel_ms)
        return {
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": self.peak_rss_mb, "unit": "MB"},
            "op_p50_ms": {"value": op_p50_ms, "unit": "ms"},
            "throughput_per_s": {"value": self.units / sum(self.op_times), "unit": "1/s"},
        }

    def check(self) -> list:
        return self.workload.check(self.items, self.first_round)
