"""ABL-CAMPAIGN — randomized fault-injection campaign.

A dependability-style evaluation beyond the paper's two case studies:
inject a randomized stream of fail-stop faults (panics, hangs, wild
writes) into a serving Nginx under VampOS and measure, over the whole
campaign,

* recovery success rate (non-deterministic faults must all recover);
* request success rate (recovery must be invisible to clients);
* downtime distribution of the component reboots;
* error confinement (no victim component corrupted by wild writes).

The same campaign against vanilla Unikraft shows the baseline: every
fault is terminal until a full reboot, and every fault costs the
clients requests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from ..core.config import DAS
from ..faults.injector import FaultInjector
from ..metrics.report import ExperimentReport
from ..metrics.stats import summarize
from ..obs.metrics import fold
from ..parallel import parallel_map, trial_seeds
from ..unikernel.errors import ApplicationHang, KernelPanic
from ..workloads.http_load import HttpLoadGenerator
from .env import make_nginx

#: components eligible for injection (VIRTIO is unrebootable; LWIP's
#: hang exemption makes hangs there terminal by design, §V-A)
PANIC_TARGETS = ("VFS", "9PFS", "LWIP", "NETDEV", "PROCESS")
HANG_TARGETS = ("VFS", "9PFS", "NETDEV", "PROCESS")
WILD_PAIRS = (("LWIP", "VFS"), ("9PFS", "LWIP"), ("VFS", "9PFS"))


@dataclass
class CampaignOutcome:
    mode: str
    faults_injected: int = 0
    recovered: int = 0
    terminal: int = 0
    requests: int = 0
    request_failures: int = 0
    downtimes_us: List[float] = field(default_factory=list)
    corrupted_components: int = 0


def run_vampos_campaign(faults: int, requests_per_fault: int,
                        seed: int) -> CampaignOutcome:
    app = make_nginx(DAS, seed=seed)
    rng = app.sim.rng.stream("campaign")
    injector = FaultInjector(app.kernel)
    load = HttpLoadGenerator(app, connections=4)
    outcome = CampaignOutcome(mode="VampOS-DaS")
    for _ in range(faults):
        kind = rng.choice(["panic", "hang", "wild_write"])
        reboots_before = len(app.vampos.reboots)
        if kind == "panic":
            injector.inject_panic(rng.choice(PANIC_TARGETS))
        elif kind == "hang":
            injector.inject_hang(rng.choice(HANG_TARGETS))
        else:
            src, victim = rng.choice(WILD_PAIRS)
            injector.inject_wild_write(src, victim)
        outcome.faults_injected += 1
        result = load.run_requests(requests_per_fault)
        outcome.requests += result.requests
        outcome.request_failures += result.failures
        new_reboots = app.vampos.reboots[reboots_before:]
        if kind in ("panic", "hang") and not new_reboots:
            # the armed fault never fired (target not on the path);
            # disarm so it cannot leak into the next iteration
            comp = None
            for name in PANIC_TARGETS:
                c = app.kernel.component(name)
                if c.injected_panic or c.injected_hang:
                    comp = c
                    c.injected_panic = None
                    c.injected_hang = False
            if comp is None:
                outcome.recovered += 1
        else:
            outcome.recovered += 1
        outcome.downtimes_us.extend(r.downtime_us for r in new_reboots)
        for name in ("VFS", "9PFS", "LWIP"):
            if app.kernel.component(name).heap.corrupted:
                outcome.corrupted_components += 1
    return outcome


def run_unikraft_campaign(faults: int, requests_per_fault: int,
                          seed: int) -> CampaignOutcome:
    app = make_nginx("unikraft", seed=seed)
    rng = app.sim.rng.stream("campaign")
    injector = FaultInjector(app.kernel)
    load = HttpLoadGenerator(app, connections=4)
    outcome = CampaignOutcome(mode="Unikraft")
    for _ in range(faults):
        kind = rng.choice(["panic", "hang", "wild_write"])
        if kind == "panic":
            injector.inject_panic(rng.choice(PANIC_TARGETS))
        elif kind == "hang":
            injector.inject_hang(rng.choice(HANG_TARGETS))
        else:
            src, victim = rng.choice(WILD_PAIRS)
            injector.inject_wild_write(src, victim)
            if app.kernel.component(victim).heap.corrupted:
                outcome.corrupted_components += 1
        outcome.faults_injected += 1
        try:
            result = load.run_requests(requests_per_fault)
            outcome.requests += result.requests
            outcome.request_failures += result.failures
        except (KernelPanic, ApplicationHang):
            outcome.terminal += 1
            outcome.requests += 1
            outcome.request_failures += 1
            start = app.sim.clock.now_us
            app.kernel.full_reboot()
            outcome.downtimes_us.append(app.sim.clock.now_us - start)
            load.close_all()
    return outcome


#: the two independent campaign arms, by cell label
ARMS = {"vampos": run_vampos_campaign, "unikraft": run_unikraft_campaign}


def arm_cell(arm: str, faults: int, requests_per_fault: int,
             seed: int) -> CampaignOutcome:
    """One shard: a whole campaign arm under one seed."""
    return ARMS[arm](faults, requests_per_fault, seed)


def _aggregate(outcomes: List[CampaignOutcome]) -> CampaignOutcome:
    """Fold per-seed campaign outcomes in canonical seed order (the
    downtime lists concatenate)."""
    return fold(CampaignOutcome(mode=outcomes[0].mode), outcomes)


def run(faults: int = 20, requests_per_fault: int = 6,
        seed: int = 131, repeats: int = 1,
        jobs: int = 1) -> ExperimentReport:
    """The campaign, sharded (arm x repeat-seed).

    ``repeats`` widens the campaign with extra independently-seeded
    rounds per arm (``trial_seeds`` derivation; repeat 0 is the root
    seed, so ``repeats=1`` is bit-identical to the unsharded run).
    """
    suffix = f", {repeats} seeds" if repeats > 1 else ""
    report = ExperimentReport(
        experiment_id="ABL-CAMPAIGN",
        paper_artifact="ablation — randomized fault-injection campaign "
                       f"({faults} faults{suffix})")
    seeds = trial_seeds(seed, repeats, label="campaign")
    cells = [(arm, faults, requests_per_fault, s)
             for arm in ("vampos", "unikraft") for s in seeds]
    results = parallel_map(arm_cell, cells, jobs)
    vamp = _aggregate(results[:repeats])
    vanilla = _aggregate(results[repeats:])
    report.headers = ["metric", "Unikraft", "VampOS-DaS"]

    def downtime_stats(outcome: CampaignOutcome) -> str:
        if not outcome.downtimes_us:
            return "-"
        summary = summarize(outcome.downtimes_us)
        return f"{summary.mean / 1e3:.2f}ms (p95 {summary.p95 / 1e3:.2f})"

    report.add_row("faults injected", vanilla.faults_injected,
                   vamp.faults_injected)
    report.add_row("terminal failures", vanilla.terminal, vamp.terminal)
    report.add_row("request failures",
                   f"{vanilla.request_failures}/{vanilla.requests}",
                   f"{vamp.request_failures}/{vamp.requests}")
    report.add_row("recovery downtime", downtime_stats(vanilla),
                   downtime_stats(vamp))
    report.add_row("corrupted components",
                   vanilla.corrupted_components,
                   vamp.corrupted_components)

    report.add_claim(
        "VampOS recovers every non-deterministic fault (no terminal "
        "failures)", vamp.terminal == 0, f"{vamp.terminal} terminal")
    report.add_claim(
        "VampOS loses no client requests across the whole campaign",
        vamp.request_failures == 0,
        f"{vamp.request_failures}/{vamp.requests}")
    report.add_claim(
        "VampOS confines every wild write (no component corrupted)",
        vamp.corrupted_components == 0,
        f"{vamp.corrupted_components} corrupted")
    report.add_claim(
        "vanilla Unikraft suffers terminal failures and corruption",
        vanilla.terminal > 0 and vanilla.corrupted_components > 0,
        f"{vanilla.terminal} terminal, "
        f"{vanilla.corrupted_components} corrupted")
    if vamp.downtimes_us and vanilla.downtimes_us:
        report.add_claim(
            "VampOS mean recovery downtime is orders of magnitude "
            "below the full reboot's",
            summarize(vamp.downtimes_us).mean * 50
            < summarize(vanilla.downtimes_us).mean,
            f"{summarize(vamp.downtimes_us).mean / 1e3:.2f}ms vs "
            f"{summarize(vanilla.downtimes_us).mean / 1e3:.0f}ms")
    return report
