"""Unit tests for the event trace."""

import pytest

from repro.sim.engine import Simulation
from repro.sim.trace import TRACE_RING_SIZE, Trace, TraceEvent


class TestTrace:
    def test_emit_and_select(self):
        trace = Trace()
        trace.emit(1.0, "net", "syn", conn=1)
        trace.emit(2.0, "net", "rst", conn=1)
        trace.emit(3.0, "net", "syn", conn=2)
        assert trace.count("net", "syn") == 2
        assert trace.count("net", "syn", conn=2) == 1
        assert len(trace) == 3

    def test_first_and_last(self):
        trace = Trace()
        trace.emit(1.0, "a", "x", n=1)
        trace.emit(2.0, "a", "x", n=2)
        assert trace.first("a", "x").detail["n"] == 1
        assert trace.last("a", "x").detail["n"] == 2
        assert trace.first("missing") is None
        assert trace.last("missing") is None

    def test_between(self):
        trace = Trace()
        for t in (1.0, 5.0, 9.0):
            trace.emit(t, "c", "e")
        assert [e.t_us for e in trace.between(2.0, 9.0)] == [5.0, 9.0]

    def test_max_events_bounds_memory(self):
        trace = Trace(max_events=10)
        for i in range(25):
            trace.emit(float(i), "c", "e", i=i)
        assert len(trace) <= 11
        # the newest events survive
        assert trace.last("c", "e").detail["i"] == 24

    def test_subscriber_sees_events(self):
        trace = Trace()
        seen = []
        trace.subscribe(seen.append)
        trace.emit(1.0, "c", "e")
        assert len(seen) == 1
        assert isinstance(seen[0], TraceEvent)

    def test_unsubscribe_stops_delivery(self):
        trace = Trace()
        seen = []
        trace.subscribe(seen.append)
        trace.emit(1.0, "c", "e")
        trace.unsubscribe(seen.append)
        trace.emit(2.0, "c", "e")
        assert len(seen) == 1

    def test_unsubscribe_unknown_callback_is_a_noop(self):
        trace = Trace()
        trace.unsubscribe(lambda event: None)  # never subscribed

    def test_unsubscribe_during_emit_is_safe(self):
        trace = Trace()
        seen = []

        def once(event):
            seen.append(event)
            trace.unsubscribe(once)

        trace.subscribe(once)
        trace.subscribe(seen.append)  # must still run after the removal
        trace.emit(1.0, "c", "e")
        trace.emit(2.0, "c", "e")
        assert len(seen) == 3  # once saw 1 event, seen.append saw 2

    def test_clear(self):
        trace = Trace()
        trace.emit(1.0, "c", "e")
        trace.clear()
        assert len(trace) == 0


class TestRingBuffer:
    def test_eviction_keeps_exactly_max_events_newest(self):
        trace = Trace(max_events=10)
        for i in range(25):
            trace.emit(float(i), "c", "e", i=i)
        assert len(trace) == 10
        assert [e.detail["i"] for e in trace.events] == list(range(15, 25))

    def test_dropped_counts_only_evictions(self):
        trace = Trace(max_events=3)
        for i in range(5):
            trace.emit(float(i), "keep", "e")
        assert trace.dropped == 2
        assert len(trace) == 3

    def test_unbounded_trace_never_drops(self):
        trace = Trace(max_events=None)
        for i in range(TRACE_RING_SIZE + 100):
            trace.emit(float(i), "c", "e")
        assert trace.dropped == 0
        assert len(trace) == TRACE_RING_SIZE + 100

    def test_default_trace_is_a_ring(self):
        sim = Simulation(seed=1)  # its trace is a default Trace()
        trace = sim.trace
        drops = []
        trace.on_drop = lambda: drops.append(1)
        for i in range(3 * TRACE_RING_SIZE):
            sim.emit("c", "e", i=i)
        assert len(trace) == TRACE_RING_SIZE
        assert trace.dropped == len(drops) == 2 * TRACE_RING_SIZE
        assert trace.first("c", "e").detail["i"] == 2 * TRACE_RING_SIZE
        assert trace.last("c", "e").detail["i"] == 3 * TRACE_RING_SIZE - 1

    def test_subscribers_see_every_event_after_the_ring_fills(self):
        trace = Trace(max_events=4)
        seen = []
        trace.subscribe(seen.append)
        for i in range(50):
            trace.emit(float(i), "c", "e", i=i)
        assert [e.detail["i"] for e in seen] == list(range(50))
        assert len(trace) == 4 and trace.dropped == 46


class TestTraceEvent:
    def test_matches_by_detail(self):
        event = TraceEvent(1.0, "net", "rst", {"conn": 5})
        assert event.matches(category="net")
        assert event.matches(name="rst", conn=5)
        assert not event.matches(conn=6)
        assert not event.matches(category="io")
        assert not event.matches(name="syn")

    def test_matches_missing_detail_key(self):
        event = TraceEvent(1.0, "net", "rst", {})
        assert not event.matches(conn=5)

    def test_event_is_immutable(self):
        event = TraceEvent(1.0, "net", "rst", {"conn": 5})
        with pytest.raises(AttributeError):
            event.t_us = 2.0
        with pytest.raises(AttributeError):
            event.detail = {}
        with pytest.raises(TypeError):
            TraceEvent(1.0, "net", "rst").detail["conn"] = 5

    def test_fields_and_default_detail(self):
        event = TraceEvent(2.5, "net", "syn")
        assert (event.t_us, event.category, event.name) == (2.5, "net",
                                                            "syn")
        assert dict(event.detail) == {}
        assert event.matches("net", "syn")
        assert event == TraceEvent(t_us=2.5, category="net", name="syn")
