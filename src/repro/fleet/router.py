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

:meth:`HealthRouter.route_many` routes a whole batch with queue-depth
shedding, exactly as one :meth:`~HealthRouter.route` per request would
(the property tests hold it to that reference): under the health
policy the picks water-fill the tier's queues, under the static one
they round-robin with full queues shedding.  It returns the picks
run-length encoded, so a batch costs a handful of list operations
rather than one Python call per request.

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
from typing import Dict, List, Optional, Sequence, Tuple

HEALTHY = "healthy"
DEGRADED = "degraded"
DRAINING = "draining"
DOWN = "down"
PROBATION = "probation"

#: graceful-degradation order when no instance is healthy
_FALLBACK = (PROBATION, DEGRADED, DRAINING, DOWN)

#: a run of routed requests: ``(pattern, rounds)`` is ``pattern * rounds``
Run = Tuple[List[int], int]


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

    def _routing_tier(self) -> List[int]:
        """The tier the health policy picks from, cached until the next
        ``observe`` together with its misroute flag."""
        tier = self._tier
        if tier is None:
            tier = self._tier = self.candidates()
            self._off_healthy = (self.states[tier[0]] != HEALTHY
                                 and HEALTHY in self.states)
        return tier

    def route(self, loads: Sequence[float]) -> int:
        """Pick an instance for one request. ``loads`` is the current
        per-instance queue depth; the health policy picks the
        least-loaded candidate (ties -> lowest index)."""
        if self.policy == "static":
            index = self._rr % len(self.states)
            self._rr += 1
            return index
        # The tier is in index order and min() keeps the first of equal
        # keys, so ties go to the lowest index.
        index = min(self._routing_tier(), key=loads.__getitem__)
        if self._off_healthy:
            self.misroutes += 1  # pragma: no cover - claim guard
        return index

    def route_many(self, loads: List[int], count: int, weight: int,
                   capacity: int) -> List[Run]:
        """Route ``count`` requests of ``weight`` queue slots each, as
        ``count`` calls of :meth:`route` would route them with a
        queue-depth shed after each pick: a request whose instance has
        ``loads[i] + weight > capacity`` is shed and leaves ``loads``
        as it is; any other adds ``weight`` to its instance's load.

        ``loads`` holds integer queue depths and is updated in place;
        ``misroutes`` and the round-robin cursor advance as the
        ``count`` calls of :meth:`route` advance them.  Returns the
        served requests' instances in arrival order, run-length
        encoded: a run ``(pattern, rounds)`` stands for ``pattern *
        rounds``.  Shed requests appear in no run.
        """
        if weight < 1:
            raise ValueError("a request takes at least one queue slot")
        if count <= 0:
            return []
        if self.policy == "static":
            return self._round_robin_many(loads, count, weight, capacity)
        tier = self._routing_tier()
        if self._off_healthy:
            self.misroutes += count  # pragma: no cover - claim guard
        # Each pick takes the lowest (load, index) and raises that load
        # by ``weight``, so the picks are the tier's (level, index)
        # pairs in sorted order, where instance i offers the levels
        # loads[i], loads[i] + weight, ... up to ``top``; once the
        # lowest pair does not fit, every later request is shed.
        top = capacity - weight
        live = [i for i in tier if loads[i] <= top]
        if not live:
            return []
        floor = min(loads[i] for i in live)
        # Round t holds the levels [floor + t*weight, floor + (t+1)*
        # weight): a live instance has one level in each round from the
        # one holding loads[i] on, at the same offset in each, so every
        # round serves its instances in the same (offset, index) order.
        offset = {i: (loads[i] - floor) % weight for i in live}
        order = sorted(live, key=lambda i: (offset[i], i))
        spans = {i: ((loads[i] - floor) // weight,
                     (top - floor - offset[i]) // weight + 1)
                 for i in live}
        return _enqueue(loads, weight, _runs(order, spans, count))

    def _round_robin_many(self, loads: List[int], count: int,
                          weight: int, capacity: int) -> List[Run]:
        """The static policy's batch: round t sends arrival ``t*n + k``
        to instance ``(_rr + k) % n``, and each instance serves its
        arrivals until its queue is full."""
        replicas = len(self.states)
        order = [(self._rr + k) % replicas for k in range(replicas)]
        self._rr += count
        rounds, extra = divmod(count, replicas)
        spans = {}
        for k, i in enumerate(order):
            arrivals = rounds + (k < extra)
            room = max(0, (capacity - loads[i]) // weight)
            spans[i] = (0, min(arrivals, room))
        return _enqueue(loads, weight, _runs(order, spans, count))

    def healthy_count(self) -> int:
        return sum(1 for s in self.states if s == HEALTHY)


def _runs(order: List[int], spans: Dict[int, Tuple[int, int]],
          limit: int) -> List[Run]:
    """The first ``limit`` picks when round ``t`` serves, in ``order``,
    each instance whose ``[first, stop)`` span of rounds holds ``t``:
    one run per stretch of rounds that serve the same instances."""
    edges = sorted({edge for span in spans.values() for edge in span})
    runs: List[Run] = []
    for start, stop in zip(edges, edges[1:]):
        pattern = [i for i in order if spans[i][0] <= start < spans[i][1]]
        if not pattern:
            continue
        rounds = min(stop - start, limit // len(pattern))
        if rounds:
            runs.append((pattern, rounds))
            limit -= rounds * len(pattern)
        if rounds < stop - start:
            if limit:
                runs.append((pattern[:limit], 1))
            break
    return runs


def _enqueue(loads: List[int], weight: int, runs: List[Run]) -> List[Run]:
    """Add each served request's ``weight`` to its instance's load."""
    for pattern, rounds in runs:
        for i in pattern:
            loads[i] += weight * rounds
    return runs
