"""End-to-end parallel recovery: storms against a real kernel.

The serial-equivalence contract under test: a planned (overlapping)
recovery episode issues the identical charge sequence as the serial
sweep — ledger totals and counts bit-identical — while the elapsed
clock shrinks from the sum of the reboot costs to the dependency DAG's
critical path.  Dependent chains serialize behind their providers, so
a pure chain costs exactly what the serial sweep costs.
"""

from __future__ import annotations

import contextlib

from repro.core.config import SUPERVISED
from repro.faults.injector import FaultInjector
from repro.fastpath import FLAGS, reference_mode
from repro.net.hostshare import HostShare
from repro.obs import state as obs_state
from repro.sim.engine import Simulation
from repro.supervisor.supervisor import DegradedState
from tests.conftest import build_kernel

#: no call edges or declared dependencies among these four
INDEPENDENT = ["9PFS", "NETDEV", "PROCESS", "TIMER"]
#: VFS's replay calls into 9PFS (logged edge + declared dependency)
CHAIN = ["VFS", "9PFS"]


@contextlib.contextmanager
def planner(enabled):
    saved = FLAGS.parallel_recovery
    FLAGS.parallel_recovery = enabled
    try:
        yield
    finally:
        FLAGS.parallel_recovery = saved


def fresh_kernel():
    sim = Simulation(seed=99)
    share = HostShare()
    share.makedirs("/data")
    share.create("/data/hello.txt", b"hello world")
    kernel = build_kernel(sim, share, config=SUPERVISED)
    kernel.syscall("VFS", "mount", "/", "9pfs", "/")
    # warm traffic so the call-log edge index holds the VFS->9PFS edge
    fd = kernel.syscall("VFS", "open", "/data/hello.txt", "r")
    kernel.syscall("VFS", "read", fd, 5)
    kernel.syscall("VFS", "close", fd)
    return kernel


def storm(targets, parallel):
    """Inject bit flips into ``targets``, heartbeat, and report the
    episode: (elapsed_us, ledger totals, ledger counts, reboot order)."""
    with planner(parallel):
        kernel = fresh_kernel()
        injector = FaultInjector(kernel)
        for name in targets:
            injector.inject_corruption(name)
        t0 = kernel.sim.clock.now_us
        records = kernel.heartbeat()
    return (kernel.sim.clock.now_us - t0,
            dict(kernel.sim.ledger.totals),
            dict(kernel.sim.ledger.counts),
            [record.component for record in records],
            kernel)


class TestIndependentStorm:
    def test_ledger_totals_and_counts_bit_identical_to_serial(self):
        planned = storm(INDEPENDENT, parallel=True)
        serial = storm(INDEPENDENT, parallel=False)
        assert planned[1] == serial[1]
        assert planned[2] == serial[2]
        assert planned[3] == serial[3]

    def test_elapsed_clock_is_critical_path_not_sum(self):
        planned = storm(INDEPENDENT, parallel=True)
        serial = storm(INDEPENDENT, parallel=False)
        assert planned[0] < serial[0]
        # four independent tracks: the merged elapsed time is the max
        # track, so at least the three cheapest tracks are saved
        kernel = planned[4]
        telemetry = kernel.supervisor.telemetry
        assert telemetry.plans == 1
        assert telemetry.plan_tracks == len(INDEPENDENT)
        assert telemetry.plan_speedup() > 1.0

    def test_components_recover_healthy(self):
        planned = storm(INDEPENDENT, parallel=True)
        kernel = planned[4]
        assert not kernel.crashed
        for name in INDEPENDENT:
            comp = kernel.component(name)
            assert not any(region.corrupted for region in comp.regions)

    def test_heartbeat_timestamps_stay_monotonic_for_observers(self):
        planned = storm(INDEPENDENT, parallel=True)
        kernel = planned[4]
        end = kernel.sim.clock.now_us
        for record in kernel.reboots:
            assert record.start_us <= end
            assert record.start_us + record.downtime_us <= end


class TestDependentChain:
    def test_chain_costs_exactly_the_serial_sweep(self):
        planned = storm(CHAIN, parallel=True)
        serial = storm(CHAIN, parallel=False)
        # VFS serializes behind 9PFS: identical clock, identical ledger
        assert planned[0] == serial[0]
        assert planned[1] == serial[1]
        assert planned[2] == serial[2]

    def test_provider_completes_before_dependent_starts(self):
        kernel = storm(CHAIN, parallel=True)[4]
        by_name = {r.component: r for r in kernel.reboots
                   if r.reason == "heartbeat"}
        ninep, vfs = by_name["9PFS"], by_name["VFS"]
        assert vfs.start_us >= ninep.start_us + ninep.downtime_us


class TestReferenceMode:
    def test_reference_mode_forces_the_serial_sweep(self):
        with reference_mode():
            assert not FLAGS.parallel_recovery
            ref = storm(INDEPENDENT, parallel=FLAGS.parallel_recovery)
        serial = storm(INDEPENDENT, parallel=False)
        assert ref[:4] == serial[:4]


class TestPlanSpans:
    def test_one_parent_span_one_child_per_track(self):
        obs_state.enable()
        try:
            with planner(True):
                kernel = fresh_kernel()
                injector = FaultInjector(kernel)
                for name in INDEPENDENT:
                    injector.inject_corruption(name)
                kernel.heartbeat()
            spans = [s for s in obs_state.collector().spans
                     if s.category in ("recovery_plan",
                                       "recovery_track")]
        finally:
            obs_state.disable()
        parents = [s for s in spans if s.category == "recovery_plan"]
        tracks = [s for s in spans if s.category == "recovery_track"]
        assert len(parents) == 1
        assert len(tracks) == len(INDEPENDENT)
        assert all(s.parent == parents[0].sid for s in tracks)
        # sibling tracks overlap in virtual time: some track starts
        # before an earlier one has finished
        tracks.sort(key=lambda s: s.start_us)
        assert any(later.start_us < earlier.end_us
                   for earlier, later in zip(tracks, tracks[1:]))
        # the parent brackets the whole episode (the max-merged end)
        assert parents[0].end_us >= max(s.end_us for s in tracks)


class TestProbeOrdering:
    def test_tick_probes_in_probe_time_then_name_order(self):
        kernel = fresh_kernel()
        supervisor = kernel.supervisor
        now = kernel.sim.clock.now_us
        # insertion order deliberately scrambled vs (probe_at, name)
        for name, at in [("TIMER", now - 5.0), ("9PFS", now - 10.0),
                         ("PROCESS", now - 10.0), ("NETDEV", now - 1.0)]:
            supervisor.degraded[name] = DegradedState(
                entered_us=now - 100.0, probe_at_us=at,
                probe_interval_us=50.0, reason="test")
        probed = []
        supervisor._probe = lambda name: probed.append(name)  # type: ignore
        supervisor.tick()
        assert probed == ["9PFS", "PROCESS", "TIMER", "NETDEV"]
