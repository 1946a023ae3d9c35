"""Recovery telemetry: what the supervisor did and what it cost.

Per-component ladder-rung counters, MTTR (mean-time-to-recovery)
samples, quarantine/backoff totals, crash-storm trips and
time-in-degraded intervals.  Experiments surface these through
:mod:`repro.metrics.report` subtables and the CLI; everything here is
plain data keyed by component name, rendered in sorted order so reports
stay byte-identical at any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..metrics.stats import Summary, summarize
from ..obs.metrics import Histogram

#: the MTTR phase taxonomy, in canonical (pipeline) order
PHASES = ("detect", "plan", "checkpoint", "reboot", "replay", "resume")


def phase_sum(phases: Dict[str, float]) -> float:
    """The left-to-right sum of a phase dict in canonical
    :data:`PHASES` order.  Every consumer that needs "the sum of the
    phases" goes through here, so the float additions happen in one
    fixed order and recomputed sums are bit-identical to stored ones.
    """
    total = 0.0
    for phase in PHASES:
        value = phases.get(phase)
        if value is not None:
            total += value
    return total


class PhaseClock:
    """Splits one recovery episode into ordered phase durations.

    ``mark(phase, now)`` attributes the virtual time since the previous
    mark to ``phase``.  Negative deltas (the parallel recovery planner
    seeks the clock backwards between overlapping tracks) attribute
    nothing but still advance the cursor, so every phase total stays
    non-negative and deterministic.
    """

    __slots__ = ("kind", "phases", "_last_us")

    def __init__(self, kind: str, start_us: float) -> None:
        self.kind = kind
        self.phases: Dict[str, float] = {}
        self._last_us = start_us

    def mark(self, phase: str, now_us: float) -> None:
        delta = now_us - self._last_us
        self._last_us = now_us
        if delta <= 0.0:
            return
        self.phases[phase] = self.phases.get(phase, 0.0) + delta


@dataclass
class RecoveryOutcome:
    """One failure handled to completion by the supervisor."""

    component: str
    kind: str            # "panic" | "hang"
    rung: str            # the ladder rung that resolved it
    start_us: float
    end_us: float
    #: phase -> virtual us attributed (see :data:`PHASES`)
    phases: Dict[str, float] = field(default_factory=dict)
    #: the canonical-order :func:`phase_sum` of ``phases``, stored at
    #: note time — the per-recovery recorded MTTR the phase table's
    #: exactness claim checks against
    phase_total_us: float = 0.0

    @property
    def mttr_us(self) -> float:
        return self.end_us - self.start_us


@dataclass
class RecoveryTelemetry:
    """Counters and distributions accumulated by one supervisor.

    Sharded experiments fold these with :func:`repro.obs.metrics.fold`,
    after closing every open degraded interval.
    """

    #: component -> rung key -> attempts
    rung_attempts: Dict[str, Dict[str, int]] = field(default_factory=dict)
    #: completed recoveries, in virtual-time order
    outcomes: List[RecoveryOutcome] = field(default_factory=list)
    #: component -> crash-storm trips
    storms: Dict[str, int] = field(default_factory=dict)
    #: component -> total backoff quarantine charged (virtual us)
    quarantine_us: Dict[str, float] = field(default_factory=dict)
    #: component -> calls answered with a degraded error
    degraded_calls: Dict[str, int] = field(default_factory=dict)
    #: component -> times it entered degraded mode
    degrade_entries: Dict[str, int] = field(default_factory=dict)
    #: component -> closed time-in-degraded total (virtual us)
    degraded_closed_us: Dict[str, float] = field(default_factory=dict)
    #: component -> entry time of the currently open degraded interval
    degraded_open_since_us: Dict[str, float] = field(default_factory=dict)
    #: component -> fail-stops the ladder could not prevent
    fail_stops: Dict[str, int] = field(default_factory=dict)
    #: episode kind ("ladder" | "sweep" | "storm" | "root") ->
    #: phase -> total virtual us attributed
    phase_totals: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: episode kind -> episodes recorded
    phase_episodes: Dict[str, int] = field(default_factory=dict)
    #: episode kind -> summed per-episode canonical-order phase totals
    phase_mttr_us: Dict[str, float] = field(default_factory=dict)
    #: log2-bucketed MTTR distribution over completed recoveries, so
    #: reports can quote p50/p99 and shards merge without sketch drift
    mttr_hist: Histogram = field(default_factory=Histogram)
    #: parallel recovery plans executed / tracks they contained
    plans: int = 0
    plan_tracks: int = 0
    #: summed track durations (what the serial sweep would have cost)
    plan_serial_us: float = 0.0
    #: max-merged elapsed time the plans actually cost
    plan_planned_us: float = 0.0

    # --- recording (called by the supervisor) -----------------------------

    def note_rung(self, component: str, rung: str) -> None:
        per_comp = self.rung_attempts.setdefault(component, {})
        per_comp[rung] = per_comp.get(rung, 0) + 1

    def note_recovered(self, component: str, kind: str, rung: str,
                       start_us: float, end_us: float,
                       phases: Optional[Dict[str, float]] = None) -> None:
        phases = dict(phases) if phases else {}
        self.outcomes.append(RecoveryOutcome(
            component=component, kind=kind, rung=rung,
            start_us=start_us, end_us=end_us, phases=phases,
            phase_total_us=phase_sum(phases)))
        self.mttr_hist.observe(end_us - start_us)

    def note_phases(self, kind: str, phases: Dict[str, float]) -> None:
        """One finished recovery episode's phase breakdown (``kind`` is
        "ladder", "sweep", "storm" or "root")."""
        totals = self.phase_totals.setdefault(kind, {})
        for phase in PHASES:
            duration = phases.get(phase)
            if duration is None:
                continue
            totals[phase] = totals.get(phase, 0.0) + duration
        self.phase_episodes[kind] = self.phase_episodes.get(kind, 0) + 1
        self.phase_mttr_us[kind] = \
            self.phase_mttr_us.get(kind, 0.0) + phase_sum(phases)

    def note_plan(self, track_durations_us: List[float],
                  planned_us: float) -> None:
        """One executed parallel recovery plan: per-track durations and
        the max-merged elapsed (critical-path) time."""
        self.plans += 1
        self.plan_tracks += len(track_durations_us)
        for duration in track_durations_us:
            self.plan_serial_us += duration
        self.plan_planned_us += planned_us

    def note_storm(self, component: str) -> None:
        self.storms[component] = self.storms.get(component, 0) + 1

    def note_quarantine(self, component: str, delay_us: float) -> None:
        self.quarantine_us[component] = \
            self.quarantine_us.get(component, 0.0) + delay_us

    def note_degraded_call(self, component: str) -> None:
        self.degraded_calls[component] = \
            self.degraded_calls.get(component, 0) + 1

    def note_degraded_enter(self, component: str, now_us: float) -> None:
        self.degrade_entries[component] = \
            self.degrade_entries.get(component, 0) + 1
        self.degraded_open_since_us[component] = now_us

    def note_degraded_exit(self, component: str, now_us: float) -> None:
        entered = self.degraded_open_since_us.pop(component, None)
        if entered is not None:
            self.degraded_closed_us[component] = \
                self.degraded_closed_us.get(component, 0.0) \
                + (now_us - entered)

    def note_fail_stop(self, component: str) -> None:
        self.fail_stops[component] = self.fail_stops.get(component, 0) + 1

    # --- queries ----------------------------------------------------------

    def mttr_samples(self, component: Optional[str] = None) -> List[float]:
        return [o.mttr_us for o in self.outcomes
                if component is None or o.component == component]

    def mttr_summary(self, component: Optional[str] = None) -> \
            Optional[Summary]:
        samples = self.mttr_samples(component)
        return summarize(samples) if samples else None

    def mttr_quantile(self, q: float) -> float:
        """Bucket-resolution MTTR quantile over every recovery (log2
        buckets shared with :mod:`repro.obs.metrics`)."""
        return self.mttr_hist.quantile(q)

    def plan_speedup(self) -> Optional[float]:
        """Serial-equivalent over planned elapsed time across every
        executed plan (None until a plan has run)."""
        if self.plans == 0 or self.plan_planned_us <= 0.0:
            return None
        return self.plan_serial_us / self.plan_planned_us

    def time_in_degraded_us(self, component: str, now_us: float) -> float:
        """Closed intervals plus the currently open one (if any)."""
        total = self.degraded_closed_us.get(component, 0.0)
        entered = self.degraded_open_since_us.get(component)
        if entered is not None:
            total += now_us - entered
        return total

    def components(self) -> List[str]:
        """Every component the supervisor ever touched, sorted."""
        names = set(self.rung_attempts) | set(self.storms) \
            | set(self.quarantine_us) | set(self.degraded_calls) \
            | set(self.degrade_entries) | set(self.fail_stops) \
            | {o.component for o in self.outcomes}
        return sorted(names)

    def rung_total(self, rung: str) -> int:
        return sum(per_comp.get(rung, 0)
                   for per_comp in self.rung_attempts.values())

    def phase_exactness(self) -> Tuple[int, int]:
        """``(exact, total)`` over outcomes carrying phase attributions.

        An outcome is *exact* when recomputing the canonical-order
        :func:`phase_sum` of its phase dict reproduces the stored
        per-recovery MTTR bit-for-bit — the property the chaos-soak
        phase table claims, and one that survives pickling across pool
        workers and shard merges (floats round-trip exactly).
        """
        exact = total = 0
        for outcome in self.outcomes:
            if not outcome.phases:
                continue
            total += 1
            if phase_sum(outcome.phases) == outcome.phase_total_us:
                exact += 1
        return exact, total

    def phase_rows(self) -> List[List[Any]]:
        """Per-episode-kind phase table rows (see
        :data:`PHASE_ROW_HEADERS`): episode count, exact virtual-µs
        totals per phase, and the summed recorded MTTR."""
        rows: List[List[Any]] = []
        for kind in sorted(self.phase_totals):
            totals = self.phase_totals[kind]
            row: List[Any] = [kind, self.phase_episodes.get(kind, 0)]
            for phase in PHASES:
                row.append(f"{totals.get(phase, 0.0):.1f}us")
            row.append(f"{self.phase_mttr_us.get(kind, 0.0):.1f}us")
            rows.append(row)
        return rows

    def rows(self, now_us: float) -> List[List[Any]]:
        """Per-component report rows (see :data:`ROW_HEADERS`)."""
        rows: List[List[Any]] = []
        for name in self.components():
            attempts = self.rung_attempts.get(name, {})
            rungs = " ".join(f"{key}:{count}"
                             for key, count in sorted(attempts.items())) \
                or "-"
            mttr = self.mttr_summary(name)
            mttr_text = (f"{mttr.mean / 1e3:.2f}ms "
                         f"(p95 {mttr.p95 / 1e3:.2f})") if mttr else "-"
            rows.append([
                name,
                len([o for o in self.outcomes if o.component == name]),
                mttr_text,
                rungs,
                self.storms.get(name, 0),
                f"{self.quarantine_us.get(name, 0.0) / 1e3:.1f}ms",
                self.degraded_calls.get(name, 0),
                f"{self.time_in_degraded_us(name, now_us) / 1e3:.1f}ms",
            ])
        return rows


#: column headers matching :meth:`RecoveryTelemetry.rows`
ROW_HEADERS = ["component", "recoveries", "MTTR", "rung attempts",
               "storms", "quarantine", "degraded calls",
               "time degraded"]

#: column headers matching :meth:`RecoveryTelemetry.phase_rows`
PHASE_ROW_HEADERS = ["episode kind", "episodes"] + list(PHASES) \
    + ["recorded MTTR"]
