"""Fleet-scale serving: sharded unikernel instances behind a
health-routed load balancer.

Microreboot (Candea et al.) frames cheap recovery as a tool for
*large-scale internet systems*; this package is the repo's fleet
layer.  ``N`` supervised unikernel instances are sharded into replica
sets, fronted by a simulated load balancer with

* **admission control** — a token bucket per tenant plus queue-depth
  shedding, every 429-style rejection charged in virtual time exactly
  once (:mod:`.admission`);
* **health-check-driven routing** — instances are probed every tick
  (an idle poll drives the heartbeat sweep and the supervisor's
  probation probes, then a real HTTP request measures service time);
  degraded, draining and dead instances are drained and re-admitted
  only after a probation streak (:mod:`.router`);
* **per-tenant traffic profiles** — diurnal curves, flash crowds,
  slow clients and retry storms, all drawn from named
  :class:`~repro.sim.rng.DeterministicRNG` streams (:mod:`.profiles`).

The campaign (:mod:`.campaign`) fans one cell per shard across cores
with the existing :func:`~repro.parallel.parallel_map` engine; each
cell runs its instances once and serves both arms from the same
probes.  A ``repro fleet`` run offers each arm >= 5x10^5 simulated
requests across the same 32+ instances, byte-identically at any
``--jobs`` count, and feeds per-tenant availability and log2
tail-latency histograms through the reliability observatory (SLO
ledger burn rates per instance).
"""

from .admission import SHED_CHARGE_US, ShedAccount, TokenBucket
from .campaign import FleetSpec, fleet_cell, run
from .profiles import PROFILES, TenantTraffic, TrafficProfile
from .router import HealthRouter, Observation

__all__ = [
    "FleetSpec",
    "HealthRouter",
    "Observation",
    "PROFILES",
    "SHED_CHARGE_US",
    "ShedAccount",
    "TenantTraffic",
    "TokenBucket",
    "TrafficProfile",
    "fleet_cell",
    "run",
]
