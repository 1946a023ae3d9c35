"""Health-check-driven routing with drain, probation and re-admission.

The router keeps a health state per instance, fed one
:class:`Observation` per tick from the probe loop:

* ``healthy`` — probed OK, nothing degraded: eligible for traffic;
* ``degraded`` — the instance's supervisor reports quarantined
  components (it answers, but with served errors): drained;
* ``draining`` — the probe failed (reset/refused/ENODEV) or went
  silent past the staleness tolerance: drained conservatively;
* ``down`` — the probe found a dead kernel: drained;
* ``probation`` — a previously-drained instance probed OK; it stays
  out of rotation until ``probation_probes`` consecutive good probes
  re-admit it (one flapping probe restarts the streak).

``policy="health"`` routes to the least-loaded healthy instance
(ties break on the lowest index, so choices are deterministic);
when nothing is healthy it degrades gracefully through probation →
degraded → draining → down rather than refusing outright.
``policy="static"`` is the control arm: round-robin over every
instance, health ignored.

``stale_ticks`` is the probe-silence tolerance: with the default 0 a
silent instance is drained on the very next tick.  Raising it opens a
window where the router serves from stale health data — a
misconfiguration the crucible's fleet canary pins as a transparency
violation.

Every routing decision under the health policy is checked against the
ledger: picking a non-healthy instance while a healthy one exists
increments ``misroutes``, and the campaign claims it stays zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

HEALTHY = "healthy"
DEGRADED = "degraded"
DRAINING = "draining"
DOWN = "down"
PROBATION = "probation"

#: graceful-degradation order when no instance is healthy
_FALLBACK = (PROBATION, DEGRADED, DRAINING, DOWN)


@dataclass(frozen=True)
class Observation:
    """One tick's probe result for one instance.

    ``probe_ok=None`` means no probe data arrived at all (a router
    blackhole): the router must fall back on staleness, not on the
    instance's actual state.
    """

    probe_ok: Optional[bool]
    degraded: bool = False
    dead: bool = False


class HealthRouter:
    """Deterministic health-routed (or static) instance selection."""

    def __init__(self, instances: int, policy: str = "health",
                 probation_probes: int = 2,
                 stale_ticks: int = 0) -> None:
        if instances < 1:
            raise ValueError("need at least one instance")
        if policy not in ("health", "static"):
            raise ValueError(f"unknown routing policy {policy!r}")
        self.policy = policy
        self.probation_probes = int(probation_probes)
        self.stale_ticks = int(stale_ticks)
        self.states: List[str] = [HEALTHY] * instances
        self._ok_streak = [0] * instances
        self._silent = [0] * instances
        self._rr = 0
        self.misroutes = 0
        #: the routing tier and its misroute flag, computed on the first
        #: ``route`` after an ``observe`` (states change nowhere else)
        self._tier: Optional[List[int]] = None
        self._off_healthy = False

    # --- health bookkeeping (probe loop calls this) -----------------------

    def observe(self, index: int, obs: Observation) -> None:
        self._tier = None
        if obs.probe_ok is None:
            # No probe data: trust the last known state for up to
            # stale_ticks silent ticks, then drain conservatively.
            self._silent[index] += 1
            if self._silent[index] > self.stale_ticks:
                self.states[index] = DRAINING
                self._ok_streak[index] = 0
            return
        self._silent[index] = 0
        if obs.dead:
            self.states[index] = DOWN
            self._ok_streak[index] = 0
        elif obs.degraded:
            self.states[index] = DEGRADED
            self._ok_streak[index] = 0
        elif not obs.probe_ok:
            self.states[index] = DRAINING
            self._ok_streak[index] = 0
        elif self.states[index] == HEALTHY:
            pass  # steady state: nothing to count
        else:
            # A drained instance probed OK: walk the probation streak.
            self._ok_streak[index] += 1
            if self._ok_streak[index] >= self.probation_probes:
                self.states[index] = HEALTHY
                self._ok_streak[index] = 0
            else:
                self.states[index] = PROBATION

    # --- routing ----------------------------------------------------------

    def candidates(self) -> List[int]:
        """Routable instances under the health policy: the healthy
        set, else the best non-healthy tier (probation first)."""
        healthy = [i for i, s in enumerate(self.states) if s == HEALTHY]
        if healthy:
            return healthy
        for tier in _FALLBACK:
            tiered = [i for i, s in enumerate(self.states) if s == tier]
            if tiered:
                return tiered
        return list(range(len(self.states)))  # pragma: no cover

    def route(self, loads: Sequence[float]) -> int:
        """Pick an instance for one request. ``loads`` is the current
        per-instance queue depth; the health policy picks the
        least-loaded candidate (ties -> lowest index)."""
        if self.policy == "static":
            index = self._rr % len(self.states)
            self._rr += 1
            return index
        tier = self._tier
        if tier is None:
            tier = self._tier = self.candidates()
            self._off_healthy = (self.states[tier[0]] != HEALTHY
                                 and HEALTHY in self.states)
        # The tier is in index order and min() keeps the first of equal
        # keys, so ties go to the lowest index.
        index = min(tier, key=loads.__getitem__)
        if self._off_healthy:
            self.misroutes += 1  # pragma: no cover - claim guard
        return index

    def healthy_count(self) -> int:
        return sum(1 for s in self.states if s == HEALTHY)
