"""Bounded memory under steady load: the simulator must not age.

A DaS MiniNginx runs the Fig. 5 syscall mix, and separately a round of
component panics, for N and then 4N iterations after a warm-up that
fills the trace ring.  The containers that grow with traffic must hold
the same bounded amount at both points:

* the simulation trace keeps at most :data:`TRACE_RING_SIZE` events;
* every call-log key bucket holds exactly the live entries of its key;
* every call log's tombstoned entry list stays within its compaction
  bound (dead entries never outnumber ``max(_COMPACT_FLOOR, live)``);
* the content-keyed handle caches stay within ``HANDLE_CACHE_LIMIT``.

Booting is bounded too: each booted kernel's regions start on shared
zero images, so a kernel retains no region bytes of its own.

For the mix, the traced heap may grow from N to 4N by no more than a
small slack per syscall.  Tracing starts after the warm-up (tracemalloc
slows the loop about tenfold), and the bounded containers whose
contents turn over are emptied at both measurement points: the trace
ring (its bound is asserted above) and the handle caches (bounded by
``HANDLE_CACHE_LIMIT``; a clear changes only their hit rate).  The
syscall meter keeps one record per top-level call for the experiments
(see DESIGN.md, "Bounded memory"), so the loop drops them as the
benchmarks do.  Panic rounds keep per-reboot history (``kernel.reboots``,
the injector's and detector's records), so only the containers above
are checked there.
"""

from __future__ import annotations

import gc
import tracemalloc

from repro.apps.nginx import MiniNginx
from repro.core.calllog import ComponentCallLog
from repro.core.config import DAS
from repro.faults.injector import FaultInjector
from repro.fastpath import HANDLE_CACHE_LIMIT, HANDLES
from repro.sim.engine import Simulation
from repro.sim.trace import TRACE_RING_SIZE

MESSAGE = b"m" * 221 + b"\n"
PATH = "/srv/bounded.dat"
#: mix iterations and panic rounds before the first measurement; both
#: emit enough events to fill the trace ring
WARM_ITERATIONS = 600
WARM_ROUNDS = 300
N = 40
#: allowed traced-heap growth per syscall from N to 4N: room for the
#: call logs' tombstone sawtooth (key buckets that kept pruned entries
#: grew this loop by ~140 bytes per syscall, trace ring emptied)
SLACK_BYTES_PER_OP = 24
OPS_PER_ITERATION = 8
#: traced heap one booted DaS MiniNginx may retain: its 43 regions
#: (1.6 MB) share zero images, so what is left is the kernel's objects
#: (~94 KiB; private zero-filled images made it ~2.4 MB)
KERNEL_RETAINED_BYTES = 256 * 1024
KERNELS = 8


class _Mix:
    """The Fig. 5 mix on one accepted socket and one 9P file."""

    def __init__(self) -> None:
        self.app = MiniNginx(Simulation(seed=3), mode=DAS)
        self.app.share.create(PATH, b"z" * 4096)
        self.client = self.app.network.connect(self.app.PORT)
        self.server_fd = self.app.kernel.syscall(
            "VFS", "accept", self.app._listen_fd)

    def run(self, iterations: int) -> None:
        libc = self.app.libc
        for _ in range(iterations):
            libc.getpid()
            fd = libc.open(PATH, "rw")
            libc.write(fd, b"x")
            assert libc.read(fd, 1) == b"z"
            libc.close(fd)
            libc.send(self.server_fd, MESSAGE)
            assert self.client.recv() == MESSAGE
            self.client.send(MESSAGE)
            assert libc.recv(self.server_fd, len(MESSAGE)) == MESSAGE
        self.app.kernel.meter.clear()


class _PanicRounds:
    """Advance one virtual second, panic a component, serve a request
    (the detector reboots the component on the way)."""

    TARGETS = ("VFS", "9PFS", "LWIP", "NETDEV")

    def __init__(self) -> None:
        self.mix = _Mix()
        self.app = self.mix.app
        self.injector = FaultInjector(self.app.kernel)
        self.rounds = 0

    def run(self, rounds: int) -> None:
        kernel = self.app.kernel
        for _ in range(rounds):
            before = len(kernel.reboots)
            self.app.sim.clock.advance(1e6)
            self.injector.inject_panic(
                self.TARGETS[self.rounds % len(self.TARGETS)], "bounded")
            self.mix.run(1)
            assert len(kernel.reboots) > before
            self.rounds += 1


def _assert_bounded(app) -> None:
    trace = app.sim.trace
    assert len(trace) <= TRACE_RING_SIZE
    for log in app.kernel.logs.values():
        live = log.entries
        for key, bucket in log._by_key.items():
            assert bucket == [e for e in live if e.key == key]
        assert set(log._by_key) == {e.key for e in live
                                    if e.key is not None}
        bound = len(log) + max(ComponentCallLog._COMPACT_FLOOR, len(log))
        assert len(log._entries) <= bound
    for cache in (HANDLES.wire_sizes, HANDLES.log_bytes, HANDLES.blobs):
        assert len(cache) <= HANDLE_CACHE_LIMIT


def _traced_heap(app) -> int:
    _assert_bounded(app)
    app.sim.trace.clear()
    HANDLES.clear()
    gc.collect()
    return tracemalloc.get_traced_memory()[0]


def test_mix_holds_a_flat_heap():
    mix = _Mix()
    mix.run(WARM_ITERATIONS)
    _assert_bounded(mix.app)
    assert mix.app.sim.trace.dropped > 0  # the ring is full
    tracemalloc.start()
    try:
        mix.run(N)
        at_n = _traced_heap(mix.app)
        mix.run(3 * N)
        at_4n = _traced_heap(mix.app)
    finally:
        tracemalloc.stop()
    ops = 3 * N * OPS_PER_ITERATION
    assert at_4n - at_n < SLACK_BYTES_PER_OP * ops


def test_panic_rounds_hold_bounded_containers():
    rounds = _PanicRounds()
    rounds.run(WARM_ROUNDS)
    _assert_bounded(rounds.app)
    assert rounds.app.sim.trace.dropped > 0
    for iterations in (N, 3 * N):
        rounds.run(iterations)
        _assert_bounded(rounds.app)


def test_booted_kernels_retain_no_region_images():
    # The first boot fills the process-wide caches (compiled tapes,
    # zero images, component interfaces) outside the measurement.
    MiniNginx(Simulation(seed=0), mode=DAS)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        apps = [MiniNginx(Simulation(seed=seed), mode=DAS)
                for seed in range(1, KERNELS + 1)]
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(apps) == KERNELS
    assert retained / KERNELS <= KERNEL_RETAINED_BYTES
