"""Reference-speed timing for a shared, noisy host.

On a small shared VM the same Python loop can run 10-60% slower for
seconds at a time while other tenants load the machine, which swamps
the regressions the benchmark must catch.  :class:`SpeedProbe`
interleaves a fixed pure-Python *calibration slice* with the work being
timed: a SIGALRM interval timer runs the slice in the measured thread
every :data:`INTERVAL_S` of wall time.  A stretch of work between two
slices is rescaled by ``REF_NS / (local slice duration)``, where the
local duration is the median of the five nearest slices.  The
calibration's own time is excluded.  The result is the time the work
would have taken on a machine that runs the calibration slice in
exactly :data:`REF_NS`; on a quiet 2-core x86-64 VM it stays within a
few percent of the wall time.

The calibration code belongs to the benchmark, so no change to the
program can speed it up or slow it down: a faster program shows fully
in scaled time, while host contention, which slows the slice and the
work alike, cancels out.  The slice shares the thread, heap and CPU
caches with the program, though, so a program change that evicts the
caches slows the slice too and has part of its slowdown scaled away:
about a tenth of a +50% change that allocates heavily (the benchmark's
README has the measurement).  Timing a warm second run of the slice
instead removed most of that, but tracked heavy host load worse, so the
probe times the slice as it runs.

Run as a script, this module times one ``repro`` command the same way:
``python speed.py RESULT.json [repro arguments...]`` imports
``repro.cli``, runs it under a probe (no arguments: the import alone)
and writes its wall time (calibration excluded), scaled time and peak
RSS to RESULT.json.
"""

from __future__ import annotations

import bisect
import gc
import json
import resource
import signal
import statistics
import sys
import time
from typing import List, Optional

#: seconds of wall time between calibration slices (~8% overhead)
INTERVAL_S = 0.002
#: loop iterations of one calibration slice
SLICE_ITEMS = 100
#: duration of one calibration slice on the reference machine (a quiet
#: 2-core x86-64 VM, Python 3.11)
REF_NS = 160_000


class _Node:
    __slots__ = ("key", "value", "children")

    def __init__(self, key: int, value: bytes) -> None:
        self.key = key
        self.value = value
        self.children: List["_Node"] = []


def calibration_slice() -> int:
    """Fixed pure-Python work shaped like the simulator's hot paths:
    small slotted objects, tuple-keyed dict probes, short lists, calls.

    It allocates like the program does on purpose: allocation-free
    loops slow down differently under host contention and over-correct
    by up to ~15% on a loaded host.  Everything it allocates is freed
    before it returns."""
    table = {}
    root = _Node(0, b"")
    acc = 0
    for i in range(SLICE_ITEMS):
        node = _Node(i, bytes(8))
        root.children.append(node)
        table[(i & 63, "k")] = node
        hit = table.get(((i * 7) & 63, "k"))
        if hit is not None:
            acc += hit.key + len(hit.value)
        acc += len(str(i)) + sum((i, i + 1, i + 2))
        if len(root.children) > 32:
            root.children = [c for c in root.children if c.key & 1]
    return acc


class SpeedProbe:
    """Context manager: calibration slices interleaved with the work of
    the calling (main) thread; :meth:`scaled_ns` rescales any interval
    measured with ``time.perf_counter_ns`` inside the block."""

    def __init__(self) -> None:
        self.starts: List[int] = []
        self.costs: List[int] = []
        self._factors: Optional[List[float]] = None
        self._saved_handler = None
        #: (ticks, raw anchor, scaled anchor, factor) of the running
        #: clock; replaced as one tuple so a tick can't tear a read
        self._clock = (0, time.perf_counter_ns(), 0.0, 1.0)

    def __enter__(self) -> "SpeedProbe":
        self._tick()
        self._saved_handler = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._saved_handler)
        self._tick()
        self._factors = None

    def _on_alarm(self, signum, frame) -> None:
        self._tick()

    def _tick(self) -> None:
        enabled = gc.isenabled()
        gc.disable()  # the program's collections stay in the work
        t0 = time.perf_counter_ns()
        calibration_slice()
        cost = time.perf_counter_ns() - t0
        if enabled:
            gc.enable()
        self.starts.append(t0)
        self.costs.append(cost)
        self._factors = None
        ticks, raw, scaled, factor = self._clock
        self._clock = (ticks + 1, t0 + cost, scaled + (t0 - raw) * factor,
                       REF_NS / statistics.median(self.costs[-5:]))

    def clock(self) -> float:
        """A running reference-speed clock (ns) for code that cannot
        keep its (start, end) pairs: it scales by the last five slices
        only, and skips the calibration time."""
        while True:
            state = self._clock
            now = time.perf_counter_ns()
            if self._clock is state:
                return state[2] + (now - state[1]) * state[3]

    def factors(self) -> List[float]:
        """REF_NS / local slice duration, per slice."""
        if self._factors is None:
            costs = self.costs
            self._factors = [
                REF_NS / statistics.median(costs[max(0, k - 2):k + 3])
                for k in range(len(costs))]
        return self._factors

    def scaled_ns(self, t0: int, t1: int) -> float:
        """Reference-speed nanoseconds of the work done in [t0, t1],
        calibration slices excluded."""
        factors = self.factors()
        last = len(factors) - 1
        first = bisect.bisect_left(self.starts, t0)
        end = bisect.bisect_left(self.starts, t1)
        total = 0.0
        cursor = t0
        for k in range(first, end):
            total += (self.starts[k] - cursor) * factors[k]
            cursor = self.starts[k] + self.costs[k]
        return total + (t1 - cursor) * factors[min(end, last)]

    def work_ns(self, t0: int, t1: int) -> int:
        """Wall nanoseconds in [t0, t1] minus the calibration slices."""
        first = bisect.bisect_left(self.starts, t0)
        end = bisect.bisect_left(self.starts, t1)
        return t1 - t0 - sum(self.costs[first:end])

    def slowdown(self) -> float:
        """Median slice duration over REF_NS (1.0 on a quiet host)."""
        return statistics.median(self.costs) / REF_NS


def main(argv: List[str]) -> int:
    result_path, command = argv[0], argv[1:]
    start = time.perf_counter_ns()
    with SpeedProbe() as probe:
        t0 = time.perf_counter_ns()
        from repro import cli
        code = cli.main(command) if command else 0
        t1 = time.perf_counter_ns()
    with open(result_path, "w") as fh:
        json.dump({"code": code,
                   "wall_ns": t0 - start + probe.work_ns(t0, t1),
                   "scaled_ns": probe.scaled_ns(t0, t1),
                   "slowdown": probe.slowdown(),
                   "maxrss_mb": resource.getrusage(
                       resource.RUSAGE_SELF).ru_maxrss / 1024.0}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
