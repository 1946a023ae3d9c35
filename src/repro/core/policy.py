"""Proactive rejuvenation policies (§IV, §VII-D).

The paper's rejuvenation case study reboots each component one by one
every 30 seconds.  ``RejuvenationPolicy`` packages that schedule:
checked at quiescent points (between requests — rebooting a component
whose call is on the stack would not be a fail-stop recovery but a
corruption), it rotates through the rebootable components on a virtual-
time interval.

``AgingDrivenPolicy`` goes further than the paper's fixed timer: it
watches component allocators and rejuvenates when leak/fragmentation
pressure crosses a threshold — rejuvenation exactly when aging calls
for it.

Both policies leave components the recovery supervisor has degraded
(quarantined) alone: those come back through the supervisor's own
probation, and a policy reboot would cut the quarantine short.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ..sim.engine import Simulation
from .runtime import RebootRecord, VampOSKernel


@dataclass
class PolicyStats:
    ticks: int = 0
    rejuvenations: int = 0
    skipped: int = 0


class RejuvenationPolicy:
    """Fixed-interval, round-robin component rejuvenation."""

    def __init__(self, kernel: VampOSKernel, interval_us: float,
                 components: Optional[Sequence[str]] = None) -> None:
        if interval_us <= 0:
            raise ValueError("interval must be positive")
        self.kernel = kernel
        self.sim: Simulation = kernel.sim
        self.interval_us = interval_us
        if components is None:
            components = [name for name in kernel.image.boot_order
                          if kernel.component(name).REBOOTABLE]
        if not components:
            raise ValueError("nothing rebootable to rejuvenate")
        for name in components:
            if not kernel.component(name).REBOOTABLE:
                raise ValueError(f"{name!r} is not rebootable")
        self.components = list(components)
        self._cursor = 0
        self._next_due_us = self.sim.clock.now_us + interval_us
        self.stats = PolicyStats()
        self.records: List[RebootRecord] = []

    def _quarantined(self, name: str) -> bool:
        supervisor = getattr(self.kernel, "supervisor", None)
        return supervisor is not None and supervisor.is_degraded(name)

    def due(self) -> bool:
        return self.sim.clock.now_us >= self._next_due_us

    def tick(self) -> Optional[RebootRecord]:
        """Call at a quiescent point; rejuvenates when the interval has
        elapsed.  Returns the reboot record, or None when not due."""
        self.stats.ticks += 1
        if not self.due():
            self.stats.skipped += 1
            return None
        target = None
        for _ in range(len(self.components)):
            candidate = self.components[self._cursor % len(self.components)]
            self._cursor += 1
            if not self._quarantined(candidate):
                target = candidate
                break
        if target is None:
            # Everything on the rotation is quarantined; try again
            # next interval.
            self.stats.skipped += 1
            self._next_due_us = self.sim.clock.now_us + self.interval_us
            return None
        record = self.kernel.rejuvenate(target)
        self.records.append(record)
        self.stats.rejuvenations += 1
        # Schedule from *now* so a late tick does not cause a burst.
        self._next_due_us = self.sim.clock.now_us + self.interval_us
        return record

    def run_full_cycle(self) -> List[RebootRecord]:
        """Rejuvenate every (non-quarantined) component once, now."""
        records = []
        for _ in range(len(self.components)):
            target = self.components[self._cursor % len(self.components)]
            self._cursor += 1
            if self._quarantined(target):
                continue
            records.append(self.kernel.rejuvenate(target))
        self.records.extend(records)
        self.stats.rejuvenations += len(records)
        self._next_due_us = self.sim.clock.now_us + self.interval_us
        return records


class AgingDrivenPolicy:
    """Rejuvenate a component when its allocator shows aging pressure.

    Pressure is ``leaked_bytes / arena`` plus a fragmentation term;
    crossing ``threshold`` (0..1) triggers the reboot.  This is the
    reactive counterpart to the paper's fixed timer: no wasted reboots
    while the component is healthy, bounded staleness when it leaks.
    """

    def __init__(self, kernel: VampOSKernel, threshold: float = 0.5,
                 components: Optional[Sequence[str]] = None) -> None:
        if not 0.0 < threshold <= 1.0:
            raise ValueError("threshold must be in (0, 1]")
        self.kernel = kernel
        self.threshold = threshold
        if components is None:
            components = [name for name in kernel.image.boot_order
                          if kernel.component(name).REBOOTABLE]
        self.components = list(components)
        self.stats = PolicyStats()
        self.records: List[RebootRecord] = []

    def _quarantined(self, name: str) -> bool:
        supervisor = getattr(self.kernel, "supervisor", None)
        return supervisor is not None and supervisor.is_degraded(name)

    def pressure(self, name: str) -> float:
        allocator = self.kernel.component(name).allocator
        leak_share = allocator.leaked_bytes() / allocator.arena_bytes
        used_share = allocator.used_bytes() / allocator.arena_bytes
        frag = allocator.fragmentation()
        return min(1.0, leak_share + 0.25 * frag * used_share)

    def tick(self) -> List[RebootRecord]:
        """Rejuvenate every component whose pressure crossed the bar."""
        self.stats.ticks += 1
        fired: List[RebootRecord] = []
        for name in self.components:
            if self._quarantined(name):
                continue
            if self.pressure(name) >= self.threshold:
                record = self.kernel.rejuvenate(name)
                fired.append(record)
                self.stats.rejuvenations += 1
        if not fired:
            self.stats.skipped += 1
        self.records.extend(fired)
        return fired
