"""The flight recorder and its per-process collector.

One :class:`FlightRecorder` attaches to each :class:`Simulation`
created while observability is enabled (``repro ... --obs``); it is the
object the instrumented hot paths talk to through a single
``sim.obs is not None`` guard.  All recorders of one process share an
:class:`ObsCollector`, which owns the span log, the mergeable metrics
registry and the virtual-time profile.

Determinism contract (the same one the parallel engine gives reports):

* span ids and track ids are allocated in execution order;
* a pool worker starts every cell with a **fresh** collector
  (:func:`repro.obs.state.begin_cell`) and hands the resulting blob
  back with the cell result;
* the parent absorbs blobs in canonical cell order, renumbering each
  blob's locally-allocated ids by the running totals — which is exactly
  the numbering a serial run would have produced, so the saved
  recording is byte-identical at any ``--jobs`` count.

The recorder is purely observational: it never touches the RNG and
never advances the clock — unless the operator opts into
``FLAGS.charge_tracing``, which prices every span open/close at
``costs.trace_emit`` virtual microseconds (for studying the paper's
"monitoring feeds the recovery loop" overhead argument).
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Optional, TYPE_CHECKING

from ..fastpath import FLAGS
from .metrics import Gauge, Histogram, MetricsRegistry
from .spans import Span, renumber
from .timeline import HealthTimeline

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..sim.engine import Simulation

#: per-recorder span budget; long soaks beyond it keep counting
#: (``spans_dropped``) but stop storing (deterministic keep-first)
DEFAULT_MAX_SPANS = 250_000

#: 1-in-N sampling of ``dispatch`` spans (the highest-volume category:
#: one per cross-component call).  Deterministic by collector counter —
#: the first of every N dispatches records — so a run stores exactly
#: ``ceil(calls / N)`` dispatch spans at any ``--jobs`` count.  Metrics
#: keep seeing every call exactly; the profile keeps attributing every
#: charge (same counts, same total time), but charges under a
#: sampled-out span fold into its parent's path — the dispatch frame
#: only appears for the sampled representatives.
ENV_SAMPLE_DISPATCH = "REPRO_OBS_SAMPLE_DISPATCH"


def _max_spans() -> int:
    try:
        return int(os.environ.get("REPRO_OBS_MAX_SPANS",
                                  DEFAULT_MAX_SPANS))
    except ValueError:
        return DEFAULT_MAX_SPANS


def _sample_dispatch() -> int:
    try:
        rate = int(os.environ.get(ENV_SAMPLE_DISPATCH, "1"))
    except ValueError:
        return 1
    return rate if rate > 1 else 1


class FlightRecorder:
    """Per-simulation span stack + metrics/profile front-end."""

    __slots__ = ("sim", "collector", "track", "_stack", "_path",
                 "_recorded", "_budget", "_slots")

    def __init__(self, sim: "Simulation", collector: "ObsCollector",
                 track: int) -> None:
        self.sim = sim
        self.collector = collector
        self.track = track
        #: open spans, innermost last; (span, path-before-it) pairs
        self._stack: List[Any] = []
        #: cached ';'-joined span-name path for profile attribution
        self._path = ""
        self._recorded = 0
        self._budget = _max_spans()
        #: (path, category) -> the profile's [us, count] slot; spares
        #: the hot on_charge the string concat and two dict probes.
        #: Valid because absorb() merges into the slot lists in place.
        self._slots: Dict[Any, List[float]] = {}

    # --- spans ------------------------------------------------------------

    def current_span_id(self) -> Optional[int]:
        return self._stack[-1][0].sid if self._stack else None

    def open_span(self, category: str, name: str,
                  parent: Optional[int] = None,
                  **args: Any) -> Optional[Span]:
        """Open a span under ``parent`` (default: the innermost open
        span).  Returns None once the recorder's span budget is spent —
        ``close_span(None)`` is a no-op, so call sites stay branchless.
        """
        if category == "dispatch":
            collector = self.collector
            rate = collector.dispatch_sample
            if rate > 1:
                # Sampled before the budget check: a sampled-out span
                # is neither recorded nor "dropped", and the decision
                # is a pure function of the collector-local counter
                # (cells start at zero, so any --jobs sharding keeps
                # exactly the spans the serial run keeps).
                seen = collector.dispatch_seen
                collector.dispatch_seen = seen + 1
                if seen % rate:
                    return None
        if self._recorded >= self._budget:
            self.collector.spans_dropped += 1
            return None
        if parent is None:
            parent = self.current_span_id()
        span = Span(sid=self.collector.alloc_span_id(), parent=parent,
                    track=self.track, category=category, name=name,
                    start_us=self.sim.clock.now_us, args=args)
        self.collector.spans.append(span)
        self._recorded += 1
        self._stack.append((span, self._path))
        self._path = name if not self._path else self._path + ";" + name
        if FLAGS.charge_tracing:
            self.sim.charge("trace_emit", self.sim.costs.trace_emit)
        return span

    def close_span(self, span: Optional[Span], **args: Any) -> None:
        if span is None:
            return
        # Pop back to this span; tolerates frames a raised exception
        # skipped past (their end time is this close's time).
        while self._stack:
            top, path_before = self._stack.pop()
            self._path = path_before
            if top.end_us is None:
                top.end_us = self.sim.clock.now_us
            if top is span:
                break
        if args:
            span.args.update(args)
        if FLAGS.charge_tracing:
            self.sim.charge("trace_emit", self.sim.costs.trace_emit)

    # --- metrics (thin aliases onto the shared registry) -------------------

    def inc(self, name: str, amount: float = 1) -> None:
        self.collector.metrics.inc(name, amount)

    def set_gauge(self, name: str, value: float) -> None:
        self.collector.metrics.set_gauge(name, value)

    def observe(self, name: str, value: float) -> None:
        self.collector.metrics.observe(name, value)

    # --- virtual-time profiling -------------------------------------------

    def on_charge(self, category: str, amount_us: float) -> None:
        """Attribute one cost-model charge to the open span stack.

        The folded key is the span-name path plus the mechanism as the
        leaf frame — directly consumable by flamegraph.pl/speedscope.
        """
        path = self._path
        slot = self._slots.get((path, category))
        if slot is None:
            key = (path + ";" + category) if path else category
            profile = self.collector.profile
            slot = profile.get(key)
            if slot is None:
                # 0.0 + x is the same float as x: seeding through the
                # cached slot stays bit-identical to direct assignment
                profile[key] = slot = [0.0, 0]
            self._slots[(path, category)] = slot
        slot[0] += amount_us
        slot[1] += 1

    def sample_health(self, kernel: Any) -> None:
        """One heartbeat-driven health sample into the collector's
        timeline (see :mod:`repro.obs.timeline`).

        Reads vital signs only — root wear, message-arena occupancy,
        the degraded set, per-component allocator leaks and the trace
        ring buffer's eviction count.  No RNG, and charge-free unless
        ``FLAGS.charge_tracing`` prices it like any other emission.
        """
        from ..faults.aging import leak_snapshot

        now = self.sim.clock.now_us
        timeline = self.collector.timeline
        timeline.record("root.wear_bytes", now,
                        kernel.root_wear.leaked_bytes())
        timeline.record("msgdom.used_bytes", now,
                        kernel.message_domain.used_bytes)
        timeline.record("supervisor.degraded", now,
                        len(kernel.supervisor.degraded))
        for name, leaked in leak_snapshot(kernel.image).items():
            timeline.record(f"leak.{name}", now, leaked)
        self.collector.metrics.set_gauge("trace.dropped",
                                         self.sim.trace.dropped)
        if FLAGS.charge_tracing:
            self.sim.charge("trace_emit", self.sim.costs.trace_emit)

    def on_trace_drop(self) -> None:
        """One trace-ring eviction (wired to ``Trace.on_drop``)."""
        self.collector.trace_dropped += 1

    def on_crossing(self, tape, depth: int, used_bytes: int) -> None:
        """Bulk-report one compiled domain crossing (the dispatch fast
        lane's obs hook).

        Equivalent, state-for-state, to what the reference path reports
        for the same crossing: one :meth:`on_charge` per tape item (same
        per-key order and amounts), the ``msgdom.pushes``/``pulls``
        counters, the queue-depth observation and the used-bytes gauge.
        Inlined into one call because the tape charges never open or
        close spans, so the whole crossing attributes under a single
        unchanged path.
        """
        path = self._path
        slots = self._slots
        collector = self.collector
        for cat, amt in tape:
            slot = slots.get((path, cat))
            if slot is None:
                key = (path + ";" + cat) if path else cat
                profile = collector.profile
                slot = profile.get(key)
                if slot is None:
                    slot = profile[key] = [0.0, 0]
                slots[(path, cat)] = slot
            slot[0] += amt
            slot[1] += 1
        metrics = collector.metrics
        counters = metrics.counters
        # Same int-seeded sums as MetricsRegistry.inc(name, 1).
        counters["msgdom.pushes"] = counters.get("msgdom.pushes", 0) + 1
        counters["msgdom.pulls"] = counters.get("msgdom.pulls", 0) + 1
        hist = metrics.histograms.get("msgdom.queue_depth")
        if hist is None:
            hist = metrics.histograms["msgdom.queue_depth"] = Histogram()
        hist.observe(depth)
        gauge = metrics.gauges.get("msgdom.used_bytes")
        if gauge is None:
            gauge = metrics.gauges["msgdom.used_bytes"] = Gauge()
        gauge.set(used_bytes)


class ObsCollector:
    """Per-process accumulator shared by every recorder."""

    def __init__(self) -> None:
        self.metrics = MetricsRegistry()
        #: folded stack -> [total virtual us, charge count]
        self.profile: Dict[str, List[float]] = {}
        self.spans: List[Span] = []
        self.spans_dropped = 0
        #: trace-ring evictions across every attached simulation
        self.trace_dropped = 0
        self._next_span = 0
        self._next_track = 0
        #: 1-in-N dispatch-span sampling (see ENV_SAMPLE_DISPATCH)
        self.dispatch_sample = _sample_dispatch()
        self.dispatch_seen = 0
        #: live SLO ledgers registered by kernels in this process/cell
        #: (serialised at snapshot time, in registration order)
        self.slo_ledgers: List[Any] = []
        #: already-serialised ledger blobs absorbed from worker cells
        self.slo_blobs: List[Dict[str, Any]] = []
        #: heartbeat-sampled vital signs (see sample_health)
        self.timeline = HealthTimeline()
        #: postmortem documents, in execution order
        self.postmortems: List[Dict[str, Any]] = []

    # --- allocation -------------------------------------------------------

    def alloc_span_id(self) -> int:
        sid = self._next_span
        self._next_span += 1
        return sid

    def recorder_for(self, sim: "Simulation") -> FlightRecorder:
        track = self._next_track
        self._next_track += 1
        return FlightRecorder(sim, self, track)

    # --- shard plumbing ---------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """A picklable blob of everything recorded so far (what a pool
        worker returns alongside its cell result)."""
        return {
            "spans": list(self.spans),
            "metrics": self.metrics,
            "profile": {k: list(v) for k, v in self.profile.items()},
            "n_spans": self._next_span,
            "n_tracks": self._next_track,
            "spans_dropped": self.spans_dropped,
            "trace_dropped": self.trace_dropped,
            "dispatch_seen": self.dispatch_seen,
            "slo": self.slo_blobs
            + [ledger.to_jsonable() for ledger in self.slo_ledgers],
            "timeline": self.timeline.to_jsonable(),
            "postmortems": list(self.postmortems),
        }

    def absorb(self, blob: Dict[str, Any]) -> None:
        """Fold a worker blob in (canonical cell order!), renumbering
        its locally-allocated span/track ids into this collector's id
        space — the numbering a serial run would have used."""
        self.spans.extend(renumber(blob["spans"], self._next_span,
                                   self._next_track))
        self._next_span += blob["n_spans"]
        self._next_track += blob["n_tracks"]
        self.metrics.merge_from(blob["metrics"])
        # Merged IN PLACE (same key-wise sums as metrics.merge, and
        # slot-list identity is preserved): live recorders cache direct
        # references to the [us, count] slots, which must stay valid.
        profile = self.profile
        for key, (us, count) in blob["profile"].items():
            slot = profile.get(key)
            if slot is None:
                profile[key] = [us, count]
            else:
                slot[0] += us
                slot[1] += count
        self.spans_dropped += blob["spans_dropped"]
        self.trace_dropped += blob.get("trace_dropped", 0)
        self.dispatch_seen += blob["dispatch_seen"]
        self.slo_blobs.extend(blob.get("slo", ()))
        self.timeline.absorb(blob.get("timeline", {}))
        self.postmortems.extend(blob.get("postmortems", ()))

    # --- serialisation ----------------------------------------------------

    def to_recording(self) -> Dict[str, Any]:
        """The canonical JSON-ready recording document."""
        return {
            "schema": 1,
            "kind": "repro-flight-recording",
            "spans": [s.to_dict() for s in self.spans],
            "spans_dropped": self.spans_dropped,
            "trace_dropped": self.trace_dropped,
            "metrics": self.metrics.to_dict(),
            "profile": {k: {"us": v[0], "count": v[1]}
                        for k, v in sorted(self.profile.items())},
            "slo": self.slo_blobs
            + [ledger.to_jsonable() for ledger in self.slo_ledgers],
            "timeline": self.timeline.to_jsonable(),
            "postmortems": list(self.postmortems),
        }
