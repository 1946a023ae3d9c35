"""FlightRecorder semantics: span stacks, budgets, profile
attribution, and free spans."""

from __future__ import annotations

import pytest

from repro.obs import state
from repro.obs.recorder import ObsCollector
from repro.obs.spans import roots_of, span_children
from repro.sim.engine import Simulation


@pytest.fixture
def obs():
    state.enable()
    try:
        yield state
    finally:
        state.disable()


class TestSpanStack:
    def test_spans_nest_along_the_open_stack(self, obs):
        sim = Simulation(seed=1)
        rec = sim.obs
        outer = rec.open_span("request", "open")
        inner = rec.open_span("dispatch", "VFS.open")
        rec.close_span(inner)
        rec.close_span(outer)
        spans = state.collector().spans
        assert [s.parent for s in spans] == [None, outer.sid]
        assert roots_of(spans) == [outer]
        assert span_children(spans)[outer.sid] == [inner]

    def test_explicit_parent_overrides_the_stack(self, obs):
        sim = Simulation(seed=1)
        rec = sim.obs
        a = rec.open_span("request", "a")
        rec.close_span(a)
        b = rec.open_span("dispatch", "b", parent=a.sid)
        rec.close_span(b)
        assert b.parent == a.sid

    def test_close_pops_frames_an_exception_skipped(self, obs):
        sim = Simulation(seed=1)
        rec = sim.obs
        outer = rec.open_span("request", "outer")
        rec.open_span("dispatch", "skipped")  # never closed directly
        sim.charge("function_call", 1.0)
        rec.close_span(outer)
        assert all(s.end_us is not None
                   for s in state.collector().spans)
        assert rec.current_span_id() is None

    def test_span_budget_drops_deterministically(self, obs,
                                                 monkeypatch):
        monkeypatch.setenv("REPRO_OBS_MAX_SPANS", "2")
        sim = Simulation(seed=1)
        rec = sim.obs
        kept = [rec.open_span("request", f"s{i}") for i in range(2)]
        dropped = rec.open_span("request", "s2")
        assert all(span is not None for span in kept)
        assert dropped is None
        rec.close_span(dropped)  # no-op, does not disturb the stack
        assert state.collector().spans_dropped == 1
        assert len(state.collector().spans) == 2


class TestProfileAttribution:
    def test_charges_attribute_to_the_open_span_path(self, obs):
        sim = Simulation(seed=1)
        rec = sim.obs
        span = rec.open_span("request", "open")
        sim.charge("function_call", 0.5)
        rec.close_span(span)
        sim.charge("heartbeat", 2.0)
        profile = state.collector().profile
        assert profile["open;function_call"] == [0.5, 1]
        assert profile["heartbeat"] == [2.0, 1]

    def test_zero_cost_charges_count_but_add_nothing(self, obs):
        sim = Simulation(seed=1)
        sim.charge("mpk_check", 0.0)
        assert state.collector().profile["mpk_check"] == [0.0, 1]


class TestDispatchSampling:
    """1-in-N dispatch-span sampling: spans thin out to exactly
    ``ceil(calls / N)``, while metrics stay exact and the profile keeps
    attributing every charge."""

    def _recording(self, sample):
        from repro.core.config import DAS
        from tests.core.test_fastpath import _fig5_syscall_loop

        state.enable(sample_dispatch=sample)
        try:
            _fig5_syscall_loop(DAS, iterations=15)
            return state.collector().to_recording()
        finally:
            state.disable()

    def test_span_count_is_ceil_calls_over_n(self):
        full = self._recording(1)
        calls = sum(1 for s in full["spans"] if s["cat"] == "dispatch")
        assert calls > 30
        for rate in (2, 7, 16):
            sampled = self._recording(rate)
            kept = sum(1 for s in sampled["spans"]
                       if s["cat"] == "dispatch")
            assert kept == -(-calls // rate)    # ceil(calls / rate)

    def test_metrics_exact_at_any_rate(self):
        full = self._recording(1)
        sampled = self._recording(16)
        assert sampled["metrics"] == full["metrics"]
        # Sampling drops span records, never "drops" spans.
        assert sampled["spans_dropped"] == 0

    def test_profile_attributes_every_charge(self):
        """Charges under a sampled-out dispatch fold into the parent
        path: the dispatch frame thins out, but the total attributed
        time and the charge count are conserved."""
        full = self._recording(1)
        sampled = self._recording(16)
        count = lambda rec: sum(v["count"]
                                for v in rec["profile"].values())
        total = lambda rec: sum(v["us"] for v in rec["profile"].values())
        assert count(sampled) == count(full)
        assert total(sampled) == pytest.approx(total(full))

    def test_invalid_and_unit_rates_disable_sampling(self, monkeypatch):
        from repro.obs.recorder import ENV_SAMPLE_DISPATCH, _sample_dispatch

        for raw in ("1", "0", "-3", "garbage"):
            monkeypatch.setenv(ENV_SAMPLE_DISPATCH, raw)
            assert _sample_dispatch() == 1
        monkeypatch.setenv(ENV_SAMPLE_DISPATCH, "7")
        assert _sample_dispatch() == 7


class TestChargeTracing:
    def test_spans_are_free_by_default(self, obs):
        sim = Simulation(seed=1)
        span = sim.obs.open_span("request", "x")
        sim.obs.close_span(span)
        assert sim.clock.now_us == 0.0
        assert sim.ledger.totals == {}


class TestAbsorb:
    def test_absorb_renumbers_into_the_serial_id_sequence(self):
        # Serial: one collector records cells back to back.
        state.enable()
        try:
            for cell in range(2):
                sim = Simulation(seed=cell)
                span = sim.obs.open_span("request", f"cell{cell}")
                child = sim.obs.open_span("dispatch", "d")
                sim.charge("msg_push", 0.3)
                sim.obs.close_span(child)
                sim.obs.close_span(span)
            serial = state.collector().to_recording()
        finally:
            state.disable()
        # Sharded: each cell in a fresh collector, absorbed in order.
        state.enable()
        try:
            blobs = []
            for cell in range(2):
                state.begin_cell()
                sim = Simulation(seed=cell)
                span = sim.obs.open_span("request", f"cell{cell}")
                child = sim.obs.open_span("dispatch", "d")
                sim.charge("msg_push", 0.3)
                sim.obs.close_span(child)
                sim.obs.close_span(span)
                blobs.append(state.harvest_cell())
            for blob in blobs:
                state.absorb(blob)
            sharded = state.collector().to_recording()
        finally:
            state.disable()
        assert sharded == serial

    def test_absorb_offsets_tracks_and_parents(self):
        parent = ObsCollector()
        sim_a = Simulation.__new__(Simulation)  # bare clock holder
        from repro.sim.clock import VirtualClock
        sim_a.clock = VirtualClock()
        rec = parent.recorder_for(sim_a)
        top = rec.open_span("request", "r")
        rec.close_span(top)

        shard = ObsCollector()
        sim_b = Simulation.__new__(Simulation)
        sim_b.clock = VirtualClock()
        worker = shard.recorder_for(sim_b)
        outer = worker.open_span("request", "w")
        worker.close_span(worker.open_span("dispatch", "d"))
        worker.close_span(outer)

        parent.absorb(shard.snapshot())
        sids = [s.sid for s in parent.spans]
        assert sids == [0, 1, 2]
        assert parent.spans[2].parent == 1
        assert parent.spans[1].track == 1  # shard track 0 shifted
