"""CHAOS-SOAK — seeded randomized fault campaign for the supervisor.

The recovery supervisor's acceptance test: soak a serving Nginx in a
randomized stream of the *hard* faults — multi-hit transients that
survive one reboot, root causes living in another component,
deterministic bugs, hangs and bit flips — and compare two arms:

* **inline** (``VampOS-DaS``): only the paper's own ladder is armed —
  replay-retry, then fail-stop.  Every chronic fault is terminal; the
  operator's full reboot (and its downtime) is the only way back.
* **supervised** (``VampOS-Supervised``): the full escalation ladder —
  fresh restarts, dependency-scoped widening, rejuvenate-all and
  graceful degradation — keeps the kernel answering.  A degraded
  component serves ENODEV-backed errors instead of killing callers;
  probation reboots bring it back.

"Serving" counts any well-formed HTTP answer (200 *or* an error page):
availability here is the kernel staying up, not every byte being
perfect.  Everything is seeded (``sim.rng`` streams, ``trial_seeds``
sharding), so reports are byte-identical at any ``--jobs`` count.

Two sub-campaigns ride along on the same seed families: the
crash-storm MTTR comparison (serial vs dependency-planned recovery)
and the root pair (root rejuvenation armed vs disarmed while the
*kernel itself* is aged and panicked under live HTTP traffic).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from ..fastpath import FLAGS
from ..faults.injector import FaultInjector
from ..metrics.report import ExperimentReport
from ..net.tcp import ConnectionRefused, ConnectionReset
from ..obs.metrics import Histogram, fold, merge
from ..obs.slo import (DEFAULT_SLO_TARGET, SLO_ROW_HEADERS, SloLedger,
                       ledger_now_us)
from ..parallel import parallel_map, trial_seeds
from ..supervisor import PHASE_ROW_HEADERS, ROW_HEADERS, RecoveryTelemetry
from ..unikernel.errors import (
    ApplicationHang,
    KernelPanic,
    RecoveryFailed,
    SyscallError,
)
from ..workloads.http_load import HttpLoadGenerator
from .env import make_nginx, resolve_mode

#: the two soak arms, by report name (both resolve through env)
INLINE_MODE = "VampOS-DaS"
SUPERVISED_MODE = "VampOS-Supervised"

#: weighted fault mix — the chronic kinds are what separates the arms
FAULT_MIX: Tuple[str, ...] = (
    "panic", "panic", "panic",
    "multi_panic", "multi_panic",
    "hang", "hang",
    "root_cause", "root_cause",
    "det_bug",
    "bit_flip",
)

#: on-path injection targets (VIRTIO is unrebootable; LWIP hangs are
#: terminal by design, §V-A, so hangs avoid it)
PANIC_TARGETS = ("VFS", "9PFS", "LWIP", "NETDEV")
HANG_TARGETS = ("VFS", "9PFS", "NETDEV")
#: (root, victim) pairs one dependency ring apart, so scope widening
#: can reach the root
ROOT_PAIRS = (("VFS", "9PFS"), ("NETDEV", "LWIP"))
#: deterministic bugs in functions every GET exercises
DET_BUGS = (("9PFS", "uk_9pfs_lookup"),)
BIT_TARGETS = ("VFS", "9PFS")

#: virtual time between soak rounds — long enough for probation probes
#: to come due, short enough to keep storm windows meaningful
INTER_ROUND_US = 500_000.0

#: crash-storm arms for the serial-vs-planned MTTR comparison.  The
#: independent arm corrupts four components with no call edges or
#: declared dependencies among them — their reboot tracks overlap
#: completely, so the planned MTTR is the *max* track instead of the
#: sum.  The chain arm corrupts a provider chain (VFS calls into LWIP's
#: sockets is declared; LWIP depends on NETDEV) — every track
#: serializes behind its provider, so the planned episode must cost
#: exactly what the serial sweep costs.
STORM_INDEPENDENT: Tuple[str, ...] = ("NETDEV", "PROCESS", "TIMER",
                                      "SYSINFO")
STORM_CHAIN: Tuple[str, ...] = ("VFS", "LWIP", "NETDEV")
STORM_ARMS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("independent x4", STORM_INDEPENDENT),
    ("dependent chain x3", STORM_CHAIN),
)
#: storms per (arm, schedule, seed) cell
STORM_ROUNDS = 4

#: root sub-campaign arms: the same supervised kernel with the root
#: microreboot armed vs disarmed — the off arm shows what a root fault
#: costs without component-preserving kernel rejuvenation
ROOT_ARMS: Tuple[Tuple[str, bool], ...] = (("rejuvenation on", True),
                                           ("rejuvenation off", False))
#: kernel-side damage events per root round (aging burst size)
ROOT_AGE_OPS = 16


@dataclass
class SoakOutcome:
    """One arm's campaign totals (picklable across pool workers)."""

    mode: str
    faults_injected: int = 0
    requests: int = 0
    ok: int = 0
    served_errors: int = 0
    dead: int = 0
    terminal: int = 0
    full_reboot_downtime_us: float = 0.0
    telemetry: RecoveryTelemetry = field(default_factory=RecoveryTelemetry)
    #: merged SLO ledger (availability intervals + request accounting)
    slo: SloLedger = field(default_factory=SloLedger)

    @property
    def served(self) -> int:
        return self.ok + self.served_errors

    @property
    def availability(self) -> float:
        return self.served / self.requests if self.requests else 1.0


@dataclass
class StormOutcome:
    """One storm cell's totals: MTTR per heartbeat-recovered storm."""

    arm: str
    schedule: str  # "serial" | "planned"
    storms: int = 0
    mttr_total_us: float = 0.0
    mttr_hist: Histogram = field(default_factory=Histogram)
    plans: int = 0
    plan_tracks: int = 0
    post_storm_ok: int = 0

    @property
    def mttr_mean_us(self) -> float:
        return self.mttr_total_us / self.storms if self.storms else 0.0


def storm_cell(arm: str, targets: Tuple[str, ...], storms: int,
               seed: int, planned: bool) -> StormOutcome:
    """One shard: ``storms`` simultaneous-corruption episodes against a
    supervised Nginx, each recovered by a single heartbeat sweep.

    With ``planned`` the dependency-aware recovery planner overlaps
    independent reboot tracks; without it the flag is cleared and the
    heartbeat falls back to the serial sweep.  The charge sequence is
    identical either way (serial-equivalence discipline), so only the
    elapsed virtual clock — the MTTR — differs.
    """
    saved = FLAGS.parallel_recovery
    FLAGS.parallel_recovery = planned
    try:
        app = make_nginx(resolve_mode(SUPERVISED_MODE), seed=seed)
        injector = FaultInjector(app.kernel)
        load = HttpLoadGenerator(app, connections=4)
        outcome = StormOutcome(
            arm=arm, schedule="planned" if planned else "serial")
        # Warm traffic first, so the call-log edge index carries the
        # live caller→callee edges the planner derives its DAG from.
        for i in range(8):
            load.one_request(i % load.connections)
        for _ in range(storms):
            app.sim.clock.advance(INTER_ROUND_US)
            for name in targets:
                injector.inject_corruption(name)
            t0 = app.sim.clock.now_us
            app.kernel.heartbeat()
            episode_us = app.sim.clock.now_us - t0
            outcome.storms += 1
            outcome.mttr_total_us += episode_us
            outcome.mttr_hist.observe(episode_us)
            try:
                load.one_request(0)
                outcome.post_storm_ok += 1
            except (ConnectionReset, ConnectionRefused, SyscallError):
                load.close_all()
        telemetry = app.kernel.supervisor.telemetry
        outcome.plans = telemetry.plans
        outcome.plan_tracks = telemetry.plan_tracks
        return outcome
    finally:
        FLAGS.parallel_recovery = saved


def _aggregate_storms(outcomes: List[StormOutcome]) -> StormOutcome:
    return fold(StormOutcome(arm=outcomes[0].arm,
                             schedule=outcomes[0].schedule), outcomes)


@dataclass
class RootOutcome:
    """One root-arm cell's totals (picklable across pool workers)."""

    arm: str
    requests: int = 0
    ok: int = 0
    served_errors: int = 0
    dead: int = 0
    terminal: int = 0
    root_reboots: int = 0
    root_downtime_us: float = 0.0
    wear_reclaimed: int = 0  # slots + plans + tombstones dropped
    #: requests issued while a root panic was pending that still
    #: completed — the microreboot absorbed the fault mid-request
    in_flight_absorbed: int = 0
    full_reboot_downtime_us: float = 0.0

    @property
    def served(self) -> int:
        return self.ok + self.served_errors

    @property
    def availability(self) -> float:
        return self.served / self.requests if self.requests else 1.0


def root_cell(arm: str, enabled: bool, rounds: int,
              requests_per_round: int, seed: int) -> RootOutcome:
    """One shard: ``rounds`` of kernel-side aging plus a root panic
    against a serving Nginx, with root rejuvenation armed or not.

    The panic is planted *between* requests, so the next request's
    first syscall finds the kernel compromised mid-flight: the armed
    arm absorbs it with a root microreboot (the request completes, at
    most a bounded virtual-time stall); the disarmed arm loses the
    request — and every later one of the round — to a terminal
    ``KernelPanic``, and the operator full-reboots.
    """
    config = resolve_mode(SUPERVISED_MODE).with_(
        root_rejuvenation_enabled=enabled)
    app = make_nginx(config, seed=seed)
    injector = FaultInjector(app.kernel)
    load = HttpLoadGenerator(app, connections=4)
    outcome = RootOutcome(arm=arm)
    harvested = 0

    def harvest() -> None:
        nonlocal harvested
        records = app.kernel.root_reboots
        for record in records[harvested:]:
            outcome.root_reboots += 1
            outcome.root_downtime_us += record.downtime_us
            outcome.wear_reclaimed += (record.slots_dropped
                                       + record.plans_dropped
                                       + record.tombstones_dropped)
        harvested = len(records)

    # Warm traffic first: live fds, call logs and message history the
    # microreboot must carry across.
    for i in range(4):
        load.one_request(i % load.connections)
    for _ in range(rounds):
        injector.inject_root_age(ROOT_AGE_OPS)
        injector.inject_root_panic()
        for i in range(requests_per_round):
            outcome.requests += 1
            pending = app.kernel.root_panicked is not None
            try:
                load.one_request(i % load.connections)
                outcome.ok += 1
                if pending:
                    outcome.in_flight_absorbed += 1
            except (ConnectionReset, ConnectionRefused, SyscallError):
                outcome.served_errors += 1
                load.close_all()
            except (RecoveryFailed, KernelPanic, ApplicationHang):
                remaining = requests_per_round - i
                outcome.requests += remaining - 1
                outcome.dead += remaining
                outcome.terminal += 1
                harvest()
                outcome.full_reboot_downtime_us += \
                    app.kernel.full_reboot()
                harvested = 0  # the reboot reset the record list
                load.close_all()
                break
        harvest()
        app.sim.clock.advance(INTER_ROUND_US)
        try:
            app.poll()
        except SyscallError:
            pass
        except (RecoveryFailed, KernelPanic, ApplicationHang):
            outcome.terminal += 1
            harvest()
            outcome.full_reboot_downtime_us += app.kernel.full_reboot()
            harvested = 0
            load.close_all()
    harvest()
    return outcome


def _aggregate_roots(outcomes: List[RootOutcome]) -> RootOutcome:
    return fold(RootOutcome(arm=outcomes[0].arm), outcomes)


def _inject_one(rng, injector: FaultInjector, armed_roots: List[str]) -> str:
    kind = rng.choice(FAULT_MIX)
    if kind == "panic":
        injector.inject_panic(rng.choice(PANIC_TARGETS))
    elif kind == "multi_panic":
        injector.inject_panic(rng.choice(PANIC_TARGETS),
                              reason="multi-hit transient", count=2)
    elif kind == "hang":
        injector.inject_hang(rng.choice(HANG_TARGETS))
    elif kind == "root_cause":
        root, victim = rng.choice(ROOT_PAIRS)
        injector.inject_root_cause(root, victim)
        armed_roots.append(root)
    elif kind == "det_bug":
        component, func = rng.choice(DET_BUGS)
        injector.inject_deterministic_bug(component, func)
    else:
        injector.inject_bit_flip(rng.choice(BIT_TARGETS), "heap",
                                 offset=0, bit=1)
    return kind


def _harvest_telemetry(app, outcome: SoakOutcome) -> None:
    """Fold the (current) supervisor's telemetry and SLO ledger into
    the outcome; a full reboot replaces both (``__init__`` re-runs), so
    harvest before each one and once at the end."""
    supervisor = getattr(app.kernel, "supervisor", None)
    if supervisor is None:
        return
    telemetry = supervisor.telemetry
    # Close open degraded intervals so shard merges are well-defined.
    now = app.sim.clock.now_us
    for name in list(telemetry.degraded_open_since_us):
        telemetry.note_degraded_exit(name, now)
    outcome.telemetry = merge(outcome.telemetry, telemetry)
    slo = getattr(app.kernel, "slo", None)
    if slo is not None:
        # SLO timestamps run on charged virtual time (ledger_now_us),
        # so the closing boundary must too.
        slo.close(ledger_now_us(app.sim.ledger))
        outcome.slo = merge(outcome.slo, slo)


def soak_cell(mode_name: str, rounds: int, requests_per_round: int,
              seed: int) -> SoakOutcome:
    """One shard: a whole soak arm under one seed.

    Both arms run with the SLO ledger armed — recording is purely
    observational, so the soak's charges, RNG draws and report counts
    are unchanged; the ledger only adds availability/burn columns.
    """
    app = make_nginx(resolve_mode(mode_name).with_(slo_enabled=True),
                     seed=seed)
    rng = app.sim.rng.stream("chaos")
    injector = FaultInjector(app.kernel)
    load = HttpLoadGenerator(app, connections=4)
    outcome = SoakOutcome(mode=mode_name)
    armed_roots: List[str] = []
    for _ in range(rounds):
        _inject_one(rng, injector, armed_roots)
        outcome.faults_injected += 1
        for i in range(requests_per_round):
            outcome.requests += 1
            try:
                load.one_request(i % load.connections)
                outcome.ok += 1
            except (ConnectionReset, ConnectionRefused):
                # The kernel answered with an error page, or the
                # connection died across a recovery — still serving.
                outcome.served_errors += 1
                load.close_all()
            except SyscallError:
                # A degraded component's ENODEV surfaced to the driver.
                outcome.served_errors += 1
                load.close_all()
            except (RecoveryFailed, KernelPanic, ApplicationHang):
                # Fail-stop: the remaining requests of this round find
                # a dead kernel; the operator full-reboots.
                remaining = requests_per_round - i
                outcome.requests += remaining - 1
                outcome.dead += remaining
                outcome.terminal += 1
                _harvest_telemetry(app, outcome)
                outcome.full_reboot_downtime_us += app.kernel.full_reboot()
                load.close_all()
                # The full reboot also restarts any root-cause
                # components, clearing their environmental corruption.
                for root in armed_roots:
                    app.kernel.reboot_component(root)
                armed_roots.clear()
                break
        app.sim.clock.advance(INTER_ROUND_US)
        # An idle poll so the heart-beat sweep (and with it the
        # supervisor's probation probes) runs between rounds.
        try:
            app.poll()
        except SyscallError:
            pass
        except (RecoveryFailed, KernelPanic, ApplicationHang):
            outcome.terminal += 1
            _harvest_telemetry(app, outcome)
            outcome.full_reboot_downtime_us += app.kernel.full_reboot()
            load.close_all()
            for root in armed_roots:
                app.kernel.reboot_component(root)
            armed_roots.clear()
    _harvest_telemetry(app, outcome)
    return outcome


def _aggregate(outcomes: List[SoakOutcome]) -> SoakOutcome:
    """Fold per-seed outcomes in canonical seed order."""
    return fold(SoakOutcome(mode=outcomes[0].mode), outcomes)


def run(rounds: int = 30, requests_per_round: int = 6,
        seed: int = 20240624, repeats: int = 1,
        jobs: int = 1) -> ExperimentReport:
    """The soak, sharded (arm x repeat-seed), byte-identical per jobs."""
    suffix = f", {repeats} seeds" if repeats > 1 else ""
    report = ExperimentReport(
        experiment_id="CHAOS-SOAK",
        paper_artifact="recovery supervisor — randomized chaos soak "
                       f"({rounds} rounds{suffix})")
    seeds = trial_seeds(seed, repeats, label="chaos")
    cells = [(mode, rounds, requests_per_round, s)
             for mode in (INLINE_MODE, SUPERVISED_MODE) for s in seeds]
    results = parallel_map(soak_cell, cells, jobs)
    inline = _aggregate(results[:repeats])
    supervised = _aggregate(results[repeats:])

    # The storm sub-campaign: every (arm, schedule) pair over the same
    # seeds, one cell per seed, folded in canonical order so the report
    # stays byte-identical at any --jobs count.
    storm_seeds = trial_seeds(seed, repeats, label="storm")
    storm_cells = [(arm, targets, STORM_ROUNDS, s, planned)
                   for arm, targets in STORM_ARMS
                   for planned in (False, True)
                   for s in storm_seeds]
    storm_results = parallel_map(storm_cell, storm_cells, jobs)
    storm_pairs = []  # (arm, serial agg, planned agg)
    for index, (arm, _targets) in enumerate(STORM_ARMS):
        base = index * 2 * repeats
        serial = _aggregate_storms(storm_results[base:base + repeats])
        planned = _aggregate_storms(
            storm_results[base + repeats:base + 2 * repeats])
        storm_pairs.append((arm, serial, planned))

    # The root sub-campaign: root rejuvenation armed vs disarmed over
    # the same seed family, folded in canonical order.
    root_rounds = max(3, rounds // 6)
    root_seeds = trial_seeds(seed, repeats, label="root")
    root_cells = [(arm, enabled, root_rounds, requests_per_round, s)
                  for arm, enabled in ROOT_ARMS for s in root_seeds]
    root_results = parallel_map(root_cell, root_cells, jobs)
    root_on = _aggregate_roots(root_results[:repeats])
    root_off = _aggregate_roots(root_results[repeats:])

    def availability_text(outcome: SoakOutcome) -> str:
        return (f"{outcome.availability * 100:.1f}% "
                f"({outcome.served}/{outcome.requests})")

    report.headers = ["metric", "inline ladder (DaS)", "supervised"]
    report.add_row("faults injected", inline.faults_injected,
                   supervised.faults_injected)
    report.add_row("terminal fail-stops", inline.terminal,
                   supervised.terminal)
    report.add_row("availability (served/requests)",
                   availability_text(inline),
                   availability_text(supervised))
    report.add_row("200 responses", inline.ok, supervised.ok)
    report.add_row("served errors", inline.served_errors,
                   supervised.served_errors)
    report.add_row("requests lost to dead kernel", inline.dead,
                   supervised.dead)
    report.add_row("full-reboot downtime",
                   f"{inline.full_reboot_downtime_us / 1e3:.1f}ms",
                   f"{supervised.full_reboot_downtime_us / 1e3:.1f}ms")
    report.add_row("recoveries", len(inline.telemetry.outcomes),
                   len(supervised.telemetry.outcomes))
    report.add_row("degrade entries",
                   sum(inline.telemetry.degrade_entries.values()),
                   sum(supervised.telemetry.degrade_entries.values()))

    def mttr_percentiles(outcome: SoakOutcome) -> str:
        telemetry = outcome.telemetry
        if telemetry.mttr_hist.count == 0:
            return "-"
        return (f"p50 {telemetry.mttr_quantile(0.5) / 1e3:.2f}ms / "
                f"p99 {telemetry.mttr_quantile(0.99) / 1e3:.2f}ms")

    report.add_row("recovery MTTR p50/p99", mttr_percentiles(inline),
                   mttr_percentiles(supervised))

    def burn_text(outcome: SoakOutcome) -> str:
        burn = outcome.slo.burn_rate(DEFAULT_SLO_TARGET)
        return f"{burn:.2f}x" if burn is not None else "-"

    report.add_row(
        f"error-budget burn (target {DEFAULT_SLO_TARGET * 100:.1f}%)",
        burn_text(inline), burn_text(supervised))

    deep_rungs = (supervised.telemetry.rung_total("fresh-restart")
                  + supervised.telemetry.rung_total("scope-widen")
                  + supervised.telemetry.rung_total("rejuvenate-all")
                  + supervised.telemetry.rung_total("degrade"))
    report.add_claim(
        "the supervisor never fail-stops the kernel (degrades instead)",
        supervised.terminal == 0,
        f"{supervised.terminal} terminal")
    report.add_claim(
        "the inline ladder fail-stops on chronic faults",
        inline.terminal > 0, f"{inline.terminal} terminal")
    report.add_claim(
        "supervised availability beats the inline ladder's",
        supervised.availability > inline.availability,
        f"{supervised.availability * 100:.1f}% vs "
        f"{inline.availability * 100:.1f}%")
    report.add_claim(
        "deep ladder rungs engaged (restart/widen/sweep/degrade)",
        deep_rungs > 0, f"{deep_rungs} attempts")

    report.add_subtable("recovery telemetry (supervised arm)",
                        ROW_HEADERS,
                        supervised.telemetry.rows(now_us=0.0))

    report.add_subtable(
        "SLO ledger — per-component availability (supervised arm)",
        SLO_ROW_HEADERS, supervised.slo.rows(DEFAULT_SLO_TARGET))

    report.add_subtable(
        "MTTR phase attribution (supervised arm, virtual us)",
        PHASE_ROW_HEADERS, supervised.telemetry.phase_rows())
    exact, attributed = supervised.telemetry.phase_exactness()
    report.add_claim(
        "every recovery's phase breakdown sums exactly (bitwise) to "
        "its recorded MTTR",
        attributed > 0 and exact == attributed,
        f"{exact}/{attributed} recoveries exact")

    storm_rows = []
    for arm, serial, planned in storm_pairs:
        speedup = (serial.mttr_mean_us / planned.mttr_mean_us
                   if planned.mttr_mean_us else 1.0)
        planned_pcts = (
            f"p50 {planned.mttr_hist.quantile(0.5):.1f}us / "
            f"p99 {planned.mttr_hist.quantile(0.99):.1f}us"
            if planned.mttr_hist.count else "-")
        storm_rows.append([
            arm, serial.storms,
            f"{serial.mttr_mean_us:.1f}us",
            f"{planned.mttr_mean_us:.1f}us",
            f"{speedup:.2f}x",
            f"{planned.plans} plans / {planned.plan_tracks} tracks",
            planned_pcts,
        ])
    report.add_subtable(
        "crash-storm MTTR (serial vs planned recovery)",
        ["storm arm", "storms", "serial MTTR", "planned MTTR",
         "speedup", "planner", "planned MTTR p50/p99"],
        storm_rows)

    independent_serial, independent_planned = (
        storm_pairs[0][1], storm_pairs[0][2])
    chain_serial, chain_planned = storm_pairs[1][1], storm_pairs[1][2]
    independent_speedup = (
        independent_serial.mttr_mean_us / independent_planned.mttr_mean_us
        if independent_planned.mttr_mean_us else 1.0)
    report.add_claim(
        "parallel recovery cuts independent-storm MTTR >= 2.5x",
        independent_speedup >= 2.5, f"{independent_speedup:.2f}x")
    report.add_claim(
        "dependent-chain storms never regress vs the serial sweep",
        chain_planned.mttr_mean_us <= chain_serial.mttr_mean_us,
        f"{chain_planned.mttr_mean_us:.1f}us planned vs "
        f"{chain_serial.mttr_mean_us:.1f}us serial")
    report.add_claim(
        "the kernel serves after every storm",
        all(agg.post_storm_ok == agg.storms
            for _, serial_agg, planned_agg in storm_pairs
            for agg in (serial_agg, planned_agg)),
        f"{sum(a.post_storm_ok for _, s, p in storm_pairs for a in (s, p))}"
        f"/{sum(a.storms for _, s, p in storm_pairs for a in (s, p))} "
        "post-storm requests OK")

    def root_availability(outcome: RootOutcome) -> str:
        return (f"{outcome.availability * 100:.1f}% "
                f"({outcome.served}/{outcome.requests})")

    report.add_subtable(
        "root rejuvenation (kernel microreboot under live components)",
        ["metric", "rejuvenation on", "rejuvenation off"],
        [
            ["availability (served/requests)",
             root_availability(root_on), root_availability(root_off)],
            ["requests lost to dead kernel", root_on.dead,
             root_off.dead],
            ["terminal fail-stops", root_on.terminal, root_off.terminal],
            ["root microreboots", root_on.root_reboots,
             root_off.root_reboots],
            ["root stall (virtual)",
             f"{root_on.root_downtime_us / 1e3:.2f}ms",
             f"{root_off.root_downtime_us / 1e3:.2f}ms"],
            ["kernel-side wear reclaimed", root_on.wear_reclaimed,
             root_off.wear_reclaimed],
            ["in-flight requests absorbed", root_on.in_flight_absorbed,
             root_off.in_flight_absorbed],
            ["operator full-reboot downtime",
             f"{root_on.full_reboot_downtime_us / 1e3:.1f}ms",
             f"{root_off.full_reboot_downtime_us / 1e3:.1f}ms"],
        ])
    report.add_claim(
        "root rejuvenation loses no request to a root fault",
        root_on.dead == 0 and root_on.terminal == 0,
        f"{root_on.dead} dead, {root_on.terminal} terminal")
    report.add_claim(
        "every pending root panic is absorbed mid-request",
        root_on.in_flight_absorbed >= root_rounds * repeats
        and root_on.root_reboots >= root_rounds * repeats,
        f"{root_on.in_flight_absorbed} absorbed across "
        f"{root_on.root_reboots} microreboots")
    report.add_claim(
        "disarmed, the same root faults are terminal losses",
        root_off.terminal > 0 and root_off.dead > 0
        and root_off.availability < root_on.availability,
        f"{root_off.terminal} terminal, {root_off.dead} requests lost "
        f"({root_off.availability * 100:.1f}% vs "
        f"{root_on.availability * 100:.1f}%)")

    return report
