"""Simulation context: the shared clock, cost model, RNG and trace.

A :class:`Simulation` is the root object every other subsystem hangs off
of.  It is deliberately thin — the interesting machinery lives in the
memory, unikernel and VampOS packages — but it gives every run a single
source of virtual time and determinism, and a small deferred-event queue
used by workload generators and the failure detector.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Tuple

from .clock import VirtualClock
from .costs import CostLedger, CostModel, DEFAULT_COSTS
from .rng import DeterministicRNG
from .trace import Trace
from ..obs import state as obs_state


@dataclass(order=True)
class _ScheduledEvent:
    t_us: float
    seq: int
    callback: Callable[[], None] = None  # type: ignore[assignment]
    cancelled: bool = False

    def __post_init__(self) -> None:
        # Only (t_us, seq) participate in ordering; dataclass(order=True)
        # would otherwise compare callbacks on ties.
        object.__setattr__(self, "sort_index", (self.t_us, self.seq))


class EventHandle:
    """Cancellation handle for a deferred event."""

    def __init__(self, event: _ScheduledEvent) -> None:
        self._event = event

    def cancel(self) -> None:
        self._event.cancelled = True

    @property
    def cancelled(self) -> bool:
        return self._event.cancelled

    @property
    def t_us(self) -> float:
        return self._event.t_us


class Simulation:
    """Root container for one deterministic simulation run."""

    def __init__(self, seed: int = 0,
                 costs: Optional[CostModel] = None,
                 trace: Optional[Trace] = None) -> None:
        self.clock = VirtualClock()
        self.costs = costs if costs is not None else DEFAULT_COSTS
        self.rng = DeterministicRNG(seed)
        self.trace = trace if trace is not None else Trace()
        self.ledger = CostLedger()
        #: flight recorder, or None when observability is off — hot
        #: paths guard on ``sim.obs is not None`` and nothing else
        self.obs = obs_state.maybe_attach(self)
        if self.obs is not None and self.trace.on_drop is None:
            # Ring-buffer evictions count into the recording (the hook
            # fires only on the rare evicting emit).
            self.trace.on_drop = self.obs.on_trace_drop
        #: injection-site probes (see :mod:`repro.sim.probes`), or None;
        #: attached by the crucible explorer, never in production runs
        self.probes = None
        self._queue: List[Tuple[Tuple[float, int], _ScheduledEvent]] = []
        self._seq = itertools.count()

    # --- cost charging ------------------------------------------------------

    def charge(self, category: str, amount_us: float) -> None:
        """Advance the clock by ``amount_us`` and record it in the ledger.

        This is the hottest function in the simulator (tens of charges
        per syscall), so the clock advance is inlined when no watchers
        are registered — ``now + amount`` is the same float either way.
        """
        if amount_us <= 0:
            if amount_us == 0:
                self.ledger.charge(category, 0.0)
                if self.obs is not None:
                    self.obs.on_charge(category, 0.0)
            return
        clock = self.clock
        if clock._watchers:
            clock.advance(amount_us)
        else:
            clock._now_us += amount_us
        # Inlined CostLedger.charge (same seeding, bit-identical totals):
        # this path runs tens of times per syscall.
        ledger = self.ledger
        ledger.elapsed_us += amount_us
        try:
            ledger.totals[category] += amount_us
        except KeyError:
            ledger.totals[category] = 0.0 + amount_us
            ledger.counts[category] = 1
        else:
            ledger.counts[category] += 1
        if self.obs is not None:
            self.obs.on_charge(category, amount_us)

    def emit(self, category: str, name: str, **detail: Any) -> None:
        """Emit a trace event stamped with the current virtual time."""
        self.trace.record(self.clock.now_us, category, name, detail)

    # --- deferred events ------------------------------------------------------

    def call_at(self, t_us: float, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` to run when time reaches ``t_us``."""
        event = _ScheduledEvent(t_us=max(t_us, self.clock.now_us),
                                seq=next(self._seq), callback=callback)
        heapq.heappush(self._queue, ((event.t_us, event.seq), event))
        return EventHandle(event)

    def call_after(self, delta_us: float,
                   callback: Callable[[], None]) -> EventHandle:
        return self.call_at(self.clock.now_us + delta_us, callback)

    def pending_events(self) -> int:
        return sum(1 for _, e in self._queue if not e.cancelled)

    def next_event_time(self) -> Optional[float]:
        while self._queue and self._queue[0][1].cancelled:
            heapq.heappop(self._queue)
        if not self._queue:
            return None
        return self._queue[0][1].t_us

    def run_due_events(self) -> int:
        """Fire every event whose time has arrived; returns count fired."""
        fired = 0
        while self._queue:
            key, event = self._queue[0]
            if event.cancelled:
                heapq.heappop(self._queue)
                continue
            if event.t_us > self.clock.now_us:
                break
            heapq.heappop(self._queue)
            event.callback()
            fired += 1
        return fired

    def run_until(self, t_us: float) -> int:
        """Advance time to ``t_us``, firing deferred events in order.

        Each event fires with the clock set to its own timestamp, so
        callbacks that charge further costs interleave correctly.
        """
        fired = 0
        while True:
            nxt = self.next_event_time()
            if nxt is None or nxt > t_us:
                break
            self.clock.advance_to(nxt)
            fired += self.run_due_events()
        self.clock.advance_to(t_us)
        return fired

    def drain_events(self, limit: int = 1_000_000) -> int:
        """Fire all remaining events in timestamp order."""
        fired = 0
        while fired < limit:
            nxt = self.next_event_time()
            if nxt is None:
                break
            self.clock.advance_to(nxt)
            fired += self.run_due_events()
        return fired
