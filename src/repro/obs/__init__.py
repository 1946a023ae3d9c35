"""Observability: the flight recorder.

A unified tracing / metrics / profiling layer over the virtual-time
simulation, switched on by ``repro ... --obs`` (or the ``REPRO_OBS``
environment variable).  Three instruments share one collector:

* **causal spans** (:mod:`.spans`, :mod:`.recorder`) — timed intervals
  around requests, dispatches, reboots, restoration replays and
  supervisor ladder rungs, parent-linked across components via span ids
  stamped onto messages; exportable to Chrome trace-event / Perfetto
  JSON (``repro trace export``);
* **metrics** (:mod:`.metrics`) — counters, gauges, log2-bucketed
  virtual-µs histograms, merged across pool shards with the same
  canonical-order fold that keeps reports byte-identical at any
  ``--jobs``;
* **virtual-time profiler** (:mod:`.profiler`) — every cost-model
  charge attributed to the open span stack, emitted as folded stacks
  for flamegraph.pl / speedscope.

On top of the recorder sits the **reliability observatory**:

* **SLO ledger** (:mod:`.slo`) — per-component availability intervals
  and request/error accounting with error-budget burn rates;
* **health timelines** (:mod:`.timeline`) — heartbeat-sampled,
  compacting time-series of vital signs (leaks, wear, arena occupancy,
  degraded-set size);
* **postmortem artifacts** (:mod:`.postmortem`) — a self-contained,
  schema-validated JSON document frozen at every terminal failure.

The layer is purely observational: with ``--obs`` the reports are
byte-identical to a run without it, and it never charges virtual
time.
"""

from .metrics import Gauge, Histogram, MetricsRegistry, bucket_index
from .postmortem import (
    POSTMORTEM_SCHEMA,
    build_postmortem,
    emit_postmortem,
    render_postmortem,
    validate_postmortem,
)
from .recorder import FlightRecorder, ObsCollector
from .slo import DEFAULT_SLO_TARGET, SLO_ROW_HEADERS, SLO_STATES, SloLedger
from .spans import Span, roots_of, span_children
from .timeline import HealthTimeline, TimeSeries
from . import export, profiler, state, top

__all__ = [
    "DEFAULT_SLO_TARGET",
    "FlightRecorder",
    "Gauge",
    "HealthTimeline",
    "Histogram",
    "MetricsRegistry",
    "ObsCollector",
    "POSTMORTEM_SCHEMA",
    "SLO_ROW_HEADERS",
    "SLO_STATES",
    "SloLedger",
    "Span",
    "TimeSeries",
    "bucket_index",
    "build_postmortem",
    "emit_postmortem",
    "export",
    "profiler",
    "render_postmortem",
    "roots_of",
    "span_children",
    "state",
    "top",
    "validate_postmortem",
]
