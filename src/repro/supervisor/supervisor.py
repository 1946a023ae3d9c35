"""The recovery supervisor: policy around the reboot mechanism.

:class:`RecoverySupervisor` owns everything that happens *after* the
failure detector hands over a failed in-flight call:

* it walks the **escalation ladder** (:mod:`.ladder`) rung by
  rung, retrying the failed call after every remedy, until one rung
  recovers, the degrade rung quarantines the component, or the ladder
  is exhausted and the kernel fail-stops gracefully;
* it enforces **per-component retry budgets with exponential backoff**
  (:mod:`.budget`) — chronic failers wait out geometrically growing
  quarantines, charged to virtual time;
* it trips **crash storms** (flapping components) straight into
  **degraded mode**: interface calls are answered with an ENODEV-style
  :class:`SyscallError` instead of dispatching, recorded in caller
  return-value logs like any other errno so replay stays consistent;
* it **probes** degraded components from the heart-beat sweep at
  geometrically backed-off intervals and restores them when a probe
  reboot succeeds;
* it takes over a heart-beat sweep reboot whose replay re-triggers the
  fault: fresh restart, then quarantine, when those are armed;
* it accumulates **telemetry** (:mod:`.telemetry`) for the experiment
  reports.

Everything is deterministic in virtual time: the same seed and workload
produce the same ladder walk, the same charges and the same telemetry,
whatever the host or worker count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from ..unikernel.errors import (
    ComponentFailure,
    HangDetected,
    RecoveryFailed,
    SyscallError,
    UnrebootableComponent,
)
from ..obs.slo import ledger_now_us
from .budget import CrashStormDetector, RetryBudget
from .ladder import DEFAULT_LADDER
from .telemetry import PhaseClock, RecoveryTelemetry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.runtime import RebootRecord, VampOSKernel
    from ..unikernel.component import Component

#: the errno degraded components answer with
DEGRADED_ERRNO = "ENODEV"


@dataclass
class DegradedState:
    """Book-keeping for one quarantined component."""

    entered_us: float
    probe_at_us: float
    probe_interval_us: float
    reason: str


class RecoverySupervisor:
    """Escalation, budgets, storm detection and degradation for one
    :class:`~repro.core.runtime.VampOSKernel`."""

    def __init__(self, kernel: "VampOSKernel") -> None:
        self.kernel = kernel
        self.sim = kernel.sim
        config = kernel.config
        self.telemetry = RecoveryTelemetry()
        self.storm = CrashStormDetector(threshold=config.storm_threshold,
                                        window_us=config.storm_window_us)
        self._budgets: Dict[str, RetryBudget] = {}
        #: quarantined components, by name
        self.degraded: Dict[str, DegradedState] = {}
        #: lifetime degrade entries per component (drives the
        #: geometric probation interval)
        self._degrade_counts: Dict[str, int] = {}
        #: stack of phase clocks for in-flight recovery episodes; the
        #: top clock receives every :meth:`phase_mark` (nested episodes
        #: — a ladder walk whose rung reboots — attribute to the walk)
        self._phase_clocks: List[PhaseClock] = []

    # --- MTTR phase attribution -------------------------------------------

    def phase_push(self, kind: str) -> PhaseClock:
        """Open a phase clock for one recovery episode (``kind`` is
        "ladder", "sweep", "storm" or "root").  Phase clocks run on
        charged virtual time (:func:`~repro.obs.slo.ledger_now_us`),
        so attribution is invariant to the recovery scheduler's clock
        overlap."""
        clock = PhaseClock(kind, ledger_now_us(self.sim.ledger))
        self._phase_clocks.append(clock)
        return clock

    def phase_pop(self, clock: PhaseClock) -> None:
        """Close an episode: fold its phase breakdown into telemetry."""
        self._phase_clocks.remove(clock)
        if clock.phases:
            self.telemetry.note_phases(clock.kind, clock.phases)

    def phase_mark(self, phase: str) -> None:
        """Attribute virtual time since the last mark to ``phase`` on
        the innermost open episode (no-op outside an episode)."""
        clocks = self._phase_clocks
        if clocks:
            # inlined ledger_now_us — this runs several times per reboot
            clocks[-1].mark(phase, self.sim.ledger.elapsed_us)

    def _slo_note(self, component: str, state: str) -> None:
        slo = getattr(self.kernel, "slo", None)
        if slo is not None:
            slo.note_state(component, state,
                           ledger_now_us(self.sim.ledger))

    # --- budgets ----------------------------------------------------------

    def budget_for(self, name: str) -> RetryBudget:
        budget = self._budgets.get(name)
        if budget is None:
            config = self.kernel.config
            budget = RetryBudget(budget=config.retry_budget,
                                 window_us=config.retry_window_us,
                                 base_us=config.backoff_base_us,
                                 factor=config.backoff_factor,
                                 cap_us=config.backoff_cap_us)
            self._budgets[name] = budget
        return budget

    # --- degraded mode ----------------------------------------------------

    def is_degraded(self, name: str) -> bool:
        return name in self.degraded

    def degraded_components(self) -> List[str]:
        """The quarantined set, sorted — the health signal external
        probes (the fleet balancer's router) drain on."""
        return sorted(self.degraded)

    def degraded_error(self, name: str, func: str) -> SyscallError:
        return SyscallError(
            DEGRADED_ERRNO,
            f"component {name!r} is degraded; {func} unavailable")

    def answer_degraded_call(self, name: str, func: str) -> SyscallError:
        """Charge and count one intercepted call into a degraded
        component; returns the error the dispatcher should raise."""
        self.sim.charge("degraded_call", self.sim.costs.degraded_call)
        self.telemetry.note_degraded_call(name)
        return self.degraded_error(name, func)

    def enter_degraded(self, name: str, reason: str) -> None:
        config = self.kernel.config
        count = self._degrade_counts.get(name, 0) + 1
        self._degrade_counts[name] = count
        interval = min(config.probation_cap_us,
                       config.probation_base_us
                       * config.probation_factor ** (count - 1))
        now = self.sim.clock.now_us
        self.degraded[name] = DegradedState(
            entered_us=now, probe_at_us=now + interval,
            probe_interval_us=interval, reason=reason)
        self.telemetry.note_degraded_enter(name, now)
        self._slo_note(name, "degraded")
        self.sim.emit("supervisor", "degraded", component=name,
                      reason=reason, probe_at_us=now + interval)

    def exit_degraded(self, name: str) -> None:
        if self.degraded.pop(name, None) is None:
            return
        self.telemetry.note_degraded_exit(name, self.sim.clock.now_us)
        self._slo_note(name, "up")
        self.sim.emit("supervisor", "restored", component=name)

    # --- the failure entry point ------------------------------------------

    def handle_failure(self, comp: "Component", func: str,
                       args: Tuple[Any, ...], kwargs: Dict[str, Any],
                       failure: ComponentFailure) -> Any:
        """Recover ``comp`` after ``func`` failed in-flight.

        Returns the retried call's result on success; raises the
        degraded :class:`SyscallError` when the component ends up
        quarantined; raises :class:`RecoveryFailed` (via
        ``kernel.fail_stop``) when the ladder is exhausted.
        """
        kernel = self.kernel
        sim = self.sim
        name = comp.NAME
        kind = "hang" if isinstance(failure, HangDetected) else "panic"
        kernel.detector.record(name, kind, str(failure))
        start_us = sim.clock.now_us
        obs = sim.obs
        fspan = None
        if obs is not None:
            obs.inc("supervisor.failures")
            fspan = obs.open_span("recovery", name, func=func, kind=kind)
        clock = self.phase_push("ladder")
        try:
            return self._walk_ladder(comp, func, args, kwargs, failure,
                                     name, kind, start_us)
        finally:
            self.phase_pop(clock)
            if obs is not None:
                obs.close_span(fspan)
                obs.observe("supervisor.mttr_us",
                            sim.clock.now_us - start_us)

    def _walk_ladder(self, comp: "Component", func: str,
                     args: Tuple[Any, ...], kwargs: Dict[str, Any],
                     failure: ComponentFailure, name: str, kind: str,
                     start_us: float) -> Any:
        """The ladder walk proper (wrapped in a recovery span above)."""
        kernel = self.kernel
        sim = self.sim
        obs = sim.obs
        sim.charge("supervisor_scan", sim.costs.supervisor_scan)
        self.phase_mark("detect")

        # Crash storm: a flapping component gets no more ladder walks —
        # straight into quarantine (when degradation is armed).
        if self.storm.tripped(kernel.detector, name, sim.clock.now_us):
            self.telemetry.note_storm(name)
            sim.emit("supervisor", "crash_storm", component=name,
                     window_us=self.storm.window_us,
                     threshold=self.storm.threshold)
            if kernel.config.degraded_mode_enabled:
                sim.charge("rung_degrade", sim.costs.rung_degrade)
                self.phase_mark("plan")
                self.telemetry.note_rung(name, "degrade")
                if obs is not None:
                    obs.inc("supervisor.rung.degrade")
                self.enter_degraded(name, reason="crash storm")
                raise self.degraded_error(name, func)

        # Retry budget: over-budget recoveries wait out an exponential
        # quarantine first, charged to the virtual clock.
        delay = self.budget_for(name).register(sim.clock.now_us)
        if delay > 0:
            self._slo_note(name, "quarantined")
            sim.charge("quarantine_backoff", delay)
            self.phase_mark("plan")
            self.telemetry.note_quarantine(name, delay)
            sim.emit("supervisor", "quarantine", component=name,
                     delay_us=delay)

        current: BaseException = failure
        for rung in DEFAULT_LADDER:
            if not rung.applies(self, name, current):
                continue
            for plan in rung.plans(self, name):
                if sim.probes is not None:
                    sim.probes.fire("ladder_rung", component=name,
                                    rung=rung.key)
                self.phase_mark("detect")
                sim.charge(rung.cost_attr,
                           getattr(sim.costs, rung.cost_attr))
                self.phase_mark("plan")
                self.telemetry.note_rung(name, rung.key)
                rung_span = None
                if obs is not None:
                    obs.inc(f"supervisor.rung.{rung.key}")
                    rung_span = obs.open_span("rung", rung.key,
                                              component=name)
                sim.emit("supervisor", "rung", component=name,
                         rung=rung.key)
                try:
                    plan(self, name, current)
                except RecoveryFailed as dead:
                    # The remedy's own reboot died (replay re-triggered
                    # the fault).  Un-crash the kernel and let the next
                    # rung — fresh restart skips exactly this replay —
                    # have a go; the final fail-stop re-crashes it.
                    kernel.crashed = False
                    current = dead
                    self.phase_mark("reboot")
                    if obs is not None:
                        obs.close_span(rung_span, outcome="remedy_died")
                    continue
                self.phase_mark("reboot")
                if rung.degrades:
                    if obs is not None:
                        obs.close_span(rung_span, outcome="degraded")
                    raise self.degraded_error(name, func)
                try:
                    result = kernel.component(name).call_interface(
                        func, args, kwargs)
                except ComponentFailure as again:
                    current = again
                    self.phase_mark("resume")
                    if obs is not None:
                        obs.close_span(rung_span, outcome="retry_failed")
                    continue
                self.phase_mark("resume")
                top = self._phase_clocks[-1] if self._phase_clocks \
                    else None
                self.telemetry.note_recovered(
                    name, kind, rung.key, start_us, sim.clock.now_us,
                    phases=top.phases if top is not None else None)
                if obs is not None:
                    obs.inc("supervisor.recovered")
                    obs.close_span(rung_span, outcome="recovered")
                sim.emit("supervisor", "recovered", component=name,
                         rung=rung.key,
                         mttr_us=sim.clock.now_us - start_us)
                return result
        self.telemetry.note_fail_stop(name)
        if obs is not None:
            obs.inc("supervisor.fail_stops")
        return kernel.fail_stop(name, current)

    # --- the heart-beat sweep ---------------------------------------------

    def recover_swept(self, name: str,
                      reason: str) -> Optional["RebootRecord"]:
        """Reboot a component the heart-beat sweep found failed.

        No ladder walk owns a failure found outside a call path, so a
        replay that re-triggers the fault is handled here: the unit
        restarts fresh from its checkpoint when the fresh-restart rung
        is armed, and is quarantined when that dies too (or is not
        armed) and degraded mode is.  With neither armed the replay's
        :class:`RecoveryFailed` propagates and the kernel stays
        crashed, as under the paper's VampOS.  Returns ``None`` when
        the component ends up quarantined.
        """
        config = self.kernel.config
        try:
            return self._reboot_or_restart(
                name, reason, fresh=config.fresh_restart_enabled)
        except RecoveryFailed as dead:
            if not config.degraded_mode_enabled:
                raise
            self.kernel.crashed = False
            self.enter_degraded(name, reason=f"{reason}: {dead}")
            return None

    def _reboot_or_restart(self, name: str, reason: str,
                           fresh: bool = True) -> "RebootRecord":
        """Reboot ``name``; when its replay dies (re-triggering the
        fault) and ``fresh`` is set, un-crash the kernel and restart the
        unit from its checkpoint without the replay.  Lossy, like the
        fresh-restart rung: the cleared logs' effects are gone.  Raises
        :class:`RecoveryFailed` when no restart recovers the unit."""
        kernel = self.kernel
        try:
            return kernel.reboot_component(name, reason=reason)
        except RecoveryFailed:
            if not fresh:
                raise
            kernel.crashed = False
            self.sim.emit("supervisor", "fresh_restart", component=name,
                          reason=reason)
            return kernel.reboot_component(name, reason=reason,
                                           replay=False)

    # --- probation (driven by the heart-beat sweep) -----------------------

    def tick(self) -> List["RebootRecord"]:
        """Probe every degraded component whose probation elapsed.

        Called from ``VampOSKernel.heartbeat``.  A successful probe
        reboot (replay first, checkpoint-only as fallback) restores the
        component to service; a failed probe extends the quarantine
        geometrically.
        """
        now = self.sim.clock.now_us
        # Probe in (next-probe-time, name) order — not dict insertion
        # order — so the probe sequence is schedule-stable: the
        # longest-overdue component is retried first, ties break
        # alphabetically, and the order never depends on the history
        # of degrade entries.
        due = [name for _, name in
               sorted((state.probe_at_us, name)
                      for name, state in self.degraded.items()
                      if now >= state.probe_at_us)]
        records: List["RebootRecord"] = []
        for name in due:
            record = self._probe(name)
            if record is not None:
                records.append(record)
        return records

    def _probe(self, name: str) -> Optional["RebootRecord"]:
        self.sim.emit("supervisor", "probe", component=name)
        try:
            record = self._reboot_or_restart(name, "probation")
        except RecoveryFailed:
            self.kernel.crashed = False
            self._extend_probation(name)
            return None
        except UnrebootableComponent:
            self._extend_probation(name)
            return None
        self.exit_degraded(name)
        return record

    def _extend_probation(self, name: str) -> None:
        config = self.kernel.config
        count = self._degrade_counts.get(name, 0) + 1
        self._degrade_counts[name] = count
        interval = min(config.probation_cap_us,
                       config.probation_base_us
                       * config.probation_factor ** (count - 1))
        state = self.degraded[name]
        state.probe_at_us = self.sim.clock.now_us + interval
        state.probe_interval_us = interval
        self.sim.emit("supervisor", "probe_failed", component=name,
                      next_probe_at_us=state.probe_at_us)
