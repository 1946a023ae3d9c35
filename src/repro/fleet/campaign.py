"""The ``repro fleet`` campaign: serve a sharded fleet, both arms.

Tenants are sharded onto disjoint replica sets; each shard is one
:func:`fleet_cell` — a pure function of picklable arguments — fanned
across cores with :func:`~repro.parallel.parallel_map`, so the report
is byte-identical at any ``--jobs`` count.

The two arms are a paired comparison: **health-routed** (drain
degraded/rebooting/dead instances, probation re-admission) vs
**no-routing** (round-robin, health ignored) in front of the *same*
instances, so both arms see the identical kill schedule, transient
faults and probe reports — only the routing differs.  Nothing an arm
does reaches an instance, so a cell simulates each instance once and
serves both arms from it.

Within a tick, each instance first runs its lifecycle (kill/revive
schedule, idle poll, fault injection) and answers one real HTTP probe;
the probe's latency is that instance's service time for the tick.
Then, in each arm, each tenant's arrivals pass the token bucket, and
the survivors are served as one batch:
:meth:`~repro.fleet.router.HealthRouter.route_many` routes them
(queue-depth shedding at the chosen instance) as one ``route`` per
request would, and their latencies land in the tenant's log2 latency
histogram through :meth:`~repro.obs.metrics.Histogram.observe_many` —
synthetic service built from the probe's *measured* time, which is
what lets a shard answer ~10^5 requests per arm in milliseconds of
real time while the kernels underneath recover from real faults.  The
batch is exact: its counts, histograms and draws equal those of
serving one request at a time (``tests/fleet/test_serve_batch.py``
holds it to that loop, ``tests/fleet/test_cell_pin.py`` pins two
default-size cells).

Availability counts served answers only (``ok / (ok + err)``); sheds
are excluded from the ratio but charged in virtual time and reported.
Per-instance availability states and per-(instance, tenant) request
counts flow through a fleet-level :class:`~repro.obs.slo.SloLedger`,
merged across shards in canonical order.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from ..metrics.report import ExperimentReport
from ..obs.metrics import Histogram, fold
from ..obs.slo import DEFAULT_SLO_TARGET, SLO_ROW_HEADERS, SloLedger
from ..parallel import parallel_map, shard_seed
from ..sim.rng import DeterministicRNG
from .admission import SHED_CHARGE_US, ShedAccount, TokenBucket
from .instance import FleetInstance, ProbeReport
from .profiles import PROFILES, TenantTraffic, TrafficProfile
from .router import HealthRouter, Run

#: the two arms, in cell order
ROUTED_ARM = "health-routed"
STATIC_ARM = "no-routing"


@dataclass(frozen=True)
class FleetSpec:
    """Campaign shape — frozen and picklable, so a cell is a pure
    function of ``(spec, shard, seed)``."""

    shards: int = 8
    replicas: int = 4
    tenants_per_shard: int = 2
    ticks: int = 140
    tick_us: float = 20_000.0
    #: per-tenant baseline arrivals per tick
    base_rate: int = 280
    #: queue-weight capacity per instance per tick
    queue_capacity: int = 600
    probation_probes: int = 2
    #: ticks a killed instance stays dead before the operator reboot
    revive_ticks: int = 4
    #: transient-fault probability per instance per tick
    fault_rate: float = 0.02
    #: service time billed to requests lost to a dead instance
    timeout_us: float = 200_000.0
    #: latency multiplier for error-page answers
    errpage_mult: float = 3.0

    @property
    def bucket_rate(self) -> int:
        return 2 * self.base_rate

    @property
    def bucket_burst(self) -> int:
        return 4 * self.base_rate

    @property
    def instances(self) -> int:
        return self.shards * self.replicas

    @property
    def tenants(self) -> int:
        return self.shards * self.tenants_per_shard

    @classmethod
    def quick(cls) -> "FleetSpec":
        """The CI-sized campaign (same code paths, ~30x fewer
        requests; still covers all four tenant profiles)."""
        return cls(shards=4, replicas=2, ticks=36, base_rate=60,
                   queue_capacity=200, revive_ticks=3)


@dataclass
class TenantStats:
    """One tenant's campaign totals (picklable across workers)."""

    name: str
    profile: str
    offered: int = 0
    ok: int = 0
    err: int = 0
    shed: int = 0
    latency: Histogram = field(default_factory=Histogram)

    @property
    def served(self) -> int:
        return self.ok + self.err

    @property
    def availability(self) -> float:
        return self.ok / self.served if self.served else 1.0


@dataclass
class ShardOutcome:
    """One arm's totals over one shard, or over the fleet once
    :func:`_aggregate` folds the shards (picklable across workers)."""

    arm: str
    tenants: Dict[str, TenantStats] = field(default_factory=dict)
    slo: SloLedger = field(default_factory=SloLedger)
    shed_account: ShedAccount = field(default_factory=ShedAccount)
    misroutes: int = 0
    kills: int = 0
    revives: int = 0
    faults_injected: int = 0
    reboot_downtime_us: float = 0.0
    #: instance name -> cost-ledger fingerprint (totals/counts/elapsed)
    instance_ledgers: Dict[str, Dict[str, Any]] = field(
        default_factory=dict)

    @property
    def offered(self) -> int:
        return sum(t.offered for t in self.tenants.values())

    @property
    def ok(self) -> int:
        return sum(t.ok for t in self.tenants.values())

    @property
    def err(self) -> int:
        return sum(t.err for t in self.tenants.values())

    @property
    def shed(self) -> int:
        return sum(t.shed for t in self.tenants.values())

    @property
    def availability(self) -> float:
        served = self.ok + self.err
        return self.ok / served if served else 1.0

    def latency(self) -> Histogram:
        return fold(Histogram(),
                    (stats.latency for stats in self.tenants.values()))


@dataclass
class ShardPair:
    """One shard cell's result: both arms' outcomes, served from the
    same instance pass (picklable across workers)."""

    routed: ShardOutcome
    static: ShardOutcome

    @property
    def offered(self) -> int:
        """Requests offered to the shard, summed over both arms."""
        return self.routed.offered + self.static.offered


def _shard_tenants(spec: FleetSpec, shard: int,
                   rng: DeterministicRNG) -> List[TenantTraffic]:
    """This shard's tenants; profiles are assigned round-robin over
    the global tenant index, so every profile appears fleet-wide."""
    tenants = []
    for j in range(spec.tenants_per_shard):
        index = shard * spec.tenants_per_shard + j
        profile = PROFILES[index % len(PROFILES)]
        tenants.append(TenantTraffic(f"t{index:02d}-{profile.name}",
                                     profile, spec.base_rate, rng))
    return tenants


def fleet_cell(spec: FleetSpec, shard: int,
               cell_seed: int) -> ShardPair:
    """One shard: ``replicas`` supervised unikernels, advanced and
    probed once per tick, serving this shard's tenants behind both
    arms' balancers for ``spec.ticks``.

    Both arms read the same probe reports — a paired experiment where
    only the routing policy differs.  Sharing them is exact: nothing an
    arm does reaches an instance.  Instances draw only from their
    kernel seeds and their ``fleet/faults/<name>`` streams, and routed
    load only prices synthetic latency.
    """
    pair = _serve_shard(spec, shard, cell_seed)
    # The cell's kernels (replicas, and those left behind by operator
    # full reboots) sit in reference cycles — kernel <-> dispatcher,
    # kernel <-> supervisor, app <-> kernel via the full-reboot hook,
    # components <-> KernelAPI — so dropping them only frees their
    # memory at a later gen-2 collection.  They are the bulk of a fleet
    # run's heap; collect them as the cell ends.
    gc.collect()
    return pair


def _serve_shard(spec: FleetSpec, shard: int,
                 cell_seed: int) -> ShardPair:
    rng = DeterministicRNG(cell_seed)
    instances = [
        FleetInstance(name=f"s{shard:02d}i{r}",
                      seed=shard_seed(cell_seed, "instance", r),
                      rng=rng, ticks=spec.ticks,
                      fault_rate=spec.fault_rate,
                      revive_ticks=spec.revive_ticks,
                      timeout_us=spec.timeout_us)
        for r in range(spec.replicas)
    ]
    arms = [_Arm(spec, arm, shard, cell_seed)
            for arm in (ROUTED_ARM, STATIC_ARM)]
    for tick in range(spec.ticks):
        reports = []
        for inst in instances:
            inst.advance(tick, spec.tick_us)
            reports.append(inst.probe(tick))
        for arm in arms:
            arm.serve(tick, instances, reports)
    return ShardPair(*(arm.close(instances) for arm in arms))


class _Arm:
    """One arm's balancer in front of a shard's instances: its own
    router, token buckets, tenant traffic and fleet SLO ledger.

    Each arm draws from its own :class:`DeterministicRNG`: ``stream``
    caches one generator per name, so two arms sharing one would
    interleave their draws on each ``fleet/arrivals/<tenant>`` stream.
    """

    def __init__(self, spec: FleetSpec, arm: str, shard: int,
                 cell_seed: int) -> None:
        rng = DeterministicRNG(cell_seed)
        self.spec = spec
        self.router = HealthRouter(
            spec.replicas,
            policy="health" if arm == ROUTED_ARM else "static",
            probation_probes=spec.probation_probes)
        self.tenants = _shard_tenants(spec, shard, rng)
        self.buckets = {t.name: TokenBucket(spec.bucket_rate,
                                            spec.bucket_burst)
                        for t in self.tenants}
        self.serve_rng = rng.stream("fleet/serve")
        #: queue-depth latency factor by the depth a request leaves
        self.depth = [1.0 + level / spec.queue_capacity
                      for level in range(spec.queue_capacity + 1)]
        self.outcome = ShardOutcome(
            arm=arm,
            slo=SloLedger(enabled=True, label=f"{arm}/shard{shard:02d}"),
            tenants={t.name: TenantStats(name=t.name,
                                         profile=t.profile.name)
                     for t in self.tenants})

    def serve(self, tick: int, instances: List[FleetInstance],
              reports: List[ProbeReport]) -> None:
        """One tick: the probe reports feed the router and the fleet
        availability ledger, then each tenant's admitted requests are
        routed, priced and bucketed as one batch.

        The batch is exact: the same picks, ``fleet/serve`` draws (one
        per served request, in arrival order, dead instances included),
        latencies, float operations and histogram as routing, pricing
        and observing one request at a time.
        """
        spec = self.spec
        router = self.router
        outcome = self.outcome
        slo = outcome.slo
        now_us = tick * spec.tick_us
        for idx, (inst, report) in enumerate(zip(instances, reports)):
            router.observe(idx, report.observation())
            slo.note_state(inst.name, report.state(), now_us)
        loads = [0] * spec.replicas
        # admission + serving, one tenant at a time (fixed order)
        for tenant in self.tenants:
            arrived = tenant.arrivals(tick, spec.ticks)
            bucket = self.buckets[tenant.name]
            bucket.refill()
            admitted = bucket.take(arrived)
            stats = outcome.tenants[tenant.name]
            levels = list(loads)
            runs = router.route_many(loads, admitted,
                                     tenant.profile.weight,
                                     spec.queue_capacity)
            latency, per_ok, per_err = self._price(runs, reports, levels,
                                                   tenant.profile)
            stats.latency.observe_many(latency)
            ok = sum(per_ok)
            err = sum(per_err)
            shed = arrived - ok - err
            # the single charge point per tenant-tick (the property
            # tests hold charges == sheds over arbitrary sequences)
            outcome.shed_account.charge(shed)
            tenant.feed_back(err)
            stats.offered += arrived
            stats.ok += ok
            stats.err += err
            stats.shed += shed
            for idx, inst in enumerate(instances):
                slo.note_requests(inst.name, tenant.name,
                                  ok=per_ok[idx], err=per_err[idx])

    def _price(self, runs: List[Run], reports: List[ProbeReport],
               levels: List[int], profile: TrafficProfile
               ) -> Tuple[List[float], List[int], List[int]]:
        """The served requests' latencies in arrival order, and each
        instance's ok and error answers.

        A request costs its instance's probe time, scaled by the
        error-page factor, or by the tenant's factor and the queue
        depth the request leaves behind (``levels`` holds the depths
        before the batch and is advanced in place), then by one
        ``fleet/serve`` jitter draw; a dead instance bills the timeout.
        """
        spec = self.spec
        weight = profile.weight
        per_ok = [0] * spec.replicas
        per_err = [0] * spec.replicas
        # A lane is one instance's share of a run: pattern[k] serves
        # every len(pattern)-th request from the run's start + k on.
        # ``price`` starts as the picks; each lane is priced in place.
        price = []
        dead = []
        for pattern, rounds in runs:
            start = len(price)
            price += pattern * rounds
            for lane, idx in enumerate(pattern, start):
                lane = slice(lane, len(price), len(pattern))
                report = reports[idx]
                if report.dead:
                    per_err[idx] += rounds
                    dead.append((lane, rounds))
                elif report.degraded or not report.ok:
                    per_err[idx] += rounds
                    price[lane] = [report.service_us
                                   * spec.errpage_mult] * rounds
                else:
                    per_ok[idx] += rounds
                    base = report.service_us * profile.latency_mult
                    level = levels[idx]
                    levels[idx] = level + weight * rounds
                    price[lane] = [
                        base * factor for factor in
                        self.depth[level + weight:levels[idx] + 1:weight]]
        rand = self.serve_rng.random
        # one draw per served request, in arrival order
        latency = [cost * (0.9 + 0.2 * rand()) for cost in price]
        for lane, rounds in dead:
            # the timeout, unjittered; the lane's draws are spent anyway
            latency[lane] = [spec.timeout_us] * rounds
        return latency, per_ok, per_err

    def close(self, instances: List[FleetInstance]) -> ShardOutcome:
        """Close the ledger and copy in the shared instances' totals."""
        outcome = self.outcome
        outcome.slo.close(self.spec.ticks * self.spec.tick_us)
        outcome.misroutes = self.router.misroutes
        for inst in instances:
            outcome.kills += inst.kills
            outcome.revives += inst.revives
            outcome.faults_injected += inst.faults_injected
            outcome.reboot_downtime_us += inst.reboot_downtime_us
            outcome.instance_ledgers[inst.name] = inst.ledger_snapshot()
        return outcome


def _aggregate(outcomes: List[ShardOutcome]) -> ShardOutcome:
    """Fold per-shard outcomes in canonical shard order (tenants and
    instances are disjoint across shards)."""
    arm = outcomes[0].arm
    start = ShardOutcome(arm=arm, slo=SloLedger(enabled=True, label=arm))
    return fold(start, outcomes)


def _percentiles(hist: Histogram) -> str:
    if hist.count == 0:
        return "-"
    return (f"p50 {hist.quantile(0.5) / 1e3:.2f}ms / "
            f"p99 {hist.quantile(0.99) / 1e3:.2f}ms")


def _availability_text(outcome: ShardOutcome) -> str:
    return (f"{outcome.availability * 100:.2f}% "
            f"({outcome.ok}/{outcome.ok + outcome.err})")


def _profile_totals(outcome: ShardOutcome, profile: str) -> TenantStats:
    return fold(TenantStats(name=profile, profile=profile),
                (stats for stats in outcome.tenants.values()
                 if stats.profile == profile))


def run(spec: FleetSpec = None, seed: int = 20240808,
        jobs: int = 1) -> ExperimentReport:
    """The fleet campaign, one cell per shard serving both arms,
    byte-identical at any ``--jobs`` count."""
    if spec is None:
        spec = FleetSpec()
    report = ExperimentReport(
        experiment_id="FLEET",
        paper_artifact="fleet serving — "
                       f"{spec.shards} shards x {spec.replicas} "
                       f"replicas, {spec.tenants} tenants, "
                       f"{spec.ticks} ticks")
    cells = [(spec, shard, shard_seed(seed, "fleet", shard))
             for shard in range(spec.shards)]
    pairs = parallel_map(fleet_cell, cells, jobs)
    routed = _aggregate([pair.routed for pair in pairs])
    static = _aggregate([pair.static for pair in pairs])

    report.headers = ["metric", ROUTED_ARM, STATIC_ARM]
    report.add_row("instances", spec.instances, spec.instances)
    report.add_row("requests offered", routed.offered, static.offered)
    report.add_row("200 responses", routed.ok, static.ok)
    report.add_row("error responses", routed.err, static.err)
    report.add_row("shed (429)", routed.shed, static.shed)
    report.add_row("availability (ok/served)",
                   _availability_text(routed),
                   _availability_text(static))
    report.add_row("latency p50/p99", _percentiles(routed.latency()),
                   _percentiles(static.latency()))
    report.add_row("shed charge (virtual)",
                   f"{routed.shed_account.charged_us / 1e3:.1f}ms",
                   f"{static.shed_account.charged_us / 1e3:.1f}ms")
    report.add_row("router misroutes", routed.misroutes,
                   static.misroutes)
    report.add_row("instance kills / revives",
                   f"{routed.kills} / {routed.revives}",
                   f"{static.kills} / {static.revives}")
    report.add_row("transient faults injected",
                   routed.faults_injected, static.faults_injected)
    report.add_row("operator reboot downtime",
                   f"{routed.reboot_downtime_us / 1e3:.1f}ms",
                   f"{static.reboot_downtime_us / 1e3:.1f}ms")

    tenant_rows = []
    for name in sorted(routed.tenants):
        r_stats = routed.tenants[name]
        s_stats = static.tenants[name]
        tenant_rows.append([
            name, r_stats.profile, r_stats.offered, r_stats.shed,
            f"{r_stats.availability * 100:.2f}%",
            f"{s_stats.availability * 100:.2f}%",
            _percentiles(r_stats.latency),
        ])
    report.add_subtable(
        "per-tenant availability & tail latency",
        ["tenant", "profile", "offered", "shed", "avail (routed)",
         "avail (static)", "latency p50/p99 (routed)"],
        tenant_rows)

    report.add_subtable(
        "SLO ledger — per-instance availability (health-routed arm)",
        SLO_ROW_HEADERS, routed.slo.rows(DEFAULT_SLO_TARGET))

    for arm_name, outcome in ((ROUTED_ARM, routed),
                              (STATIC_ARM, static)):
        report.add_claim(
            f"{arm_name}: every offered request is answered, errored "
            "or shed exactly once",
            outcome.offered == outcome.ok + outcome.err + outcome.shed,
            f"{outcome.offered} offered = {outcome.ok} ok + "
            f"{outcome.err} err + {outcome.shed} shed")
        report.add_claim(
            f"{arm_name}: sheds charged and counted exactly once",
            outcome.shed_account.sheds == outcome.shed
            and outcome.shed_account.charges == outcome.shed
            and outcome.shed_account.charged_us
            == outcome.shed * SHED_CHARGE_US,
            f"{outcome.shed_account.charges} charges / "
            f"{outcome.shed_account.sheds} sheds")
    report.add_claim(
        "the health router never picks a non-healthy instance while "
        "a healthy one exists",
        routed.misroutes == 0, f"{routed.misroutes} misroutes")
    retry_routed = _profile_totals(routed, "retry_storm")
    retry_static = _profile_totals(static, "retry_storm")
    report.add_claim(
        "health routing beats static round-robin under retry storms",
        retry_routed.availability > retry_static.availability,
        f"{retry_routed.availability * 100:.2f}% vs "
        f"{retry_static.availability * 100:.2f}%")
    report.add_claim(
        "health routing beats static round-robin overall",
        routed.availability > static.availability,
        f"{routed.availability * 100:.2f}% vs "
        f"{static.availability * 100:.2f}%")
    burn_routed = routed.slo.burn_rate(DEFAULT_SLO_TARGET)
    burn_static = static.slo.burn_rate(DEFAULT_SLO_TARGET)
    report.add_claim(
        "health routing burns less error budget",
        burn_routed is not None and burn_static is not None
        and burn_routed < burn_static,
        f"{burn_routed:.2f}x vs {burn_static:.2f}x"
        if burn_routed is not None and burn_static is not None
        else "no request accounting")
    _add_scale_claim(report, spec.instances, routed.offered,
                     static.offered)
    return report


def _add_scale_claim(report: ExperimentReport, instances: int,
                     routed_offered: int, static_offered: int) -> None:
    """The full-size campaign's scale claim.  Both arms front the same
    instances, so each arm must reach the floor on its own: a sum over
    the arms would count every instance twice."""
    if instances < 32:
        return
    report.add_claim(
        "each arm is offered >= 5x10^5 requests across the same "
        ">= 32 instances",
        min(routed_offered, static_offered) >= 500_000,
        f"{routed_offered} {ROUTED_ARM} / {static_offered} {STATIC_ARM} "
        f"requests offered, {instances} instances")
