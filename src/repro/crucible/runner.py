"""Execute one scenario and capture everything the oracles judge.

A scenario is run up to five ways by :func:`run_bundle`:

* **main** — the scenario as written, probes attached, faults live;
* **reference** — the op events only, fault-free: the ground truth for
  reboot transparency (what the application *should* have observed);
* **refmode** — the full scenario again under
  :func:`~repro.fastpath.reference_mode` (every fast path disabled):
  the ground truth for virtual-time ledger parity;
* **noshrink** — the full scenario with log shrinking disabled: the
  ground truth for shrink soundness;
* **rootfree** — only when the scenario carries root events
  (``root_panic`` / ``root_age``): the identical schedule with each
  root event replaced by a no-op ``["advance", 0.0]`` (indices stay
  aligned), i.e. a twin whose kernel never ages and never reboots its
  root — the ground truth for root-rejuvenation transparency.

Each run produces a :class:`RunOutcome`: per-event op results, the
observable final state, the captured trace, the cost ledger, site-hit
coverage, and — crucially — the **lossy cut**: the first event index
at which the run became *allowed* to diverge from the reference
(a fresh restart dropped logged state, a component was quarantined, or
the kernel fail-stopped).  Oracles compare up to the cut and no
further.

Everything recorded is JSON-safe, so outcomes cross process boundaries
byte-identically and corpus files can embed them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from ..core.config import config_by_name
from ..core.messages import MessageDomainFull
from ..core.restore import ReplayMismatch
from ..core.runtime import VampOSKernel
from ..faults.injector import FaultInjector
from ..fastpath import reference_mode
from ..obs.postmortem import emit_postmortem
from ..obs.slo import ledger_now_us
from ..net.hostshare import HostShare
from ..sim.engine import Simulation
from ..sim.probes import SiteProbes
from ..unikernel.component import ComponentState
from ..unikernel.errors import (
    ApplicationHang,
    KernelPanic,
    RecoveryFailed,
    SyscallError,
)
from ..unikernel.image import ImageBuilder, ImageSpec
from .scenario import PATHS, Scenario

#: the image every scenario runs: the file stack plus two stateless
#: components (the same image the transparency property tests use)
COMPONENTS = ("VFS", "9PFS", "RAMFS", "PROCESS", "TIMER")

#: exceptions that end a run (the kernel is gone or untrustworthy)
TERMINAL = (RecoveryFailed, KernelPanic, ApplicationHang,
            ReplayMismatch, MessageDomainFull)

#: trace categories recorded into outcomes (oracle + corpus fodder)
_TRACED = ("supervisor", "reboot", "inject", "fault")

#: event tags that damage the *root* rather than a component; the
#: rootfree twin replaces exactly these with no-op advances
ROOT_EVENTS = ("root_panic", "root_age")


@dataclass
class RunOutcome:
    """Everything one run exposes to the oracles."""

    #: op results as ``[event_index, tag, ...]`` rows
    results: List[List[Any]] = field(default_factory=list)
    #: observable state after the last event (None when terminal)
    final_state: Optional[Dict[str, Any]] = None
    #: terminal exception class name, or None
    terminal: Optional[str] = None
    #: first event index allowed to diverge from the reference
    lossy_cut: Optional[int] = None
    #: ``[event_index, category, name, detail]`` rows
    trace_log: List[List[Any]] = field(default_factory=list)
    #: components quarantined when the events finished
    degraded_final: List[str] = field(default_factory=list)
    ledger_totals: Dict[str, float] = field(default_factory=dict)
    ledger_counts: Dict[str, int] = field(default_factory=dict)
    clock_us: float = 0.0
    #: probe hits per injection site (coverage accounting)
    site_counts: Dict[str, int] = field(default_factory=dict)
    #: site armings that never fired
    pending_armings: int = 0
    #: restore-equivalence probe failures (text descriptions)
    restore_problems: List[str] = field(default_factory=list)
    #: the run's SLO ledger (``SloLedger.to_jsonable`` form, closed at
    #: the final clock) — availability intervals + request accounting
    slo: Dict[str, Any] = field(default_factory=dict)
    #: MTTR phase attribution: virtual-us per phase, by episode kind
    phase_totals: Dict[str, Dict[str, float]] = field(
        default_factory=dict)
    #: recovery episodes attributed, by episode kind
    phase_episodes: Dict[str, int] = field(default_factory=dict)
    #: the postmortem frozen when the run ended terminally (else None)
    postmortem: Optional[Dict[str, Any]] = None

    def note_lossy(self, index: int) -> None:
        if self.lossy_cut is None or index < self.lossy_cut:
            self.lossy_cut = index

    def op_results(self, before: Optional[int] = None) -> List[List[Any]]:
        """Result rows, optionally only those before event ``before``."""
        if before is None:
            return self.results
        return [row for row in self.results if row[0] < before]


def observable_state(kernel: VampOSKernel) -> Dict[str, Any]:
    """What the application could observe, as JSON-safe data."""
    vfs = kernel.component("VFS")
    ninep = kernel.component("9PFS")
    ramfs = kernel.component("RAMFS")
    share = kernel.test_share  # type: ignore[attr-defined]
    shared = {}
    for path in PATHS[:2]:
        if share.exists(path):
            data = share.read(path)
            shared[path] = (data.decode("latin-1")
                            if isinstance(data, (bytes, bytearray))
                            else str(data))
    return {
        "fds": {str(fd): [entry.path, entry.offset, entry.fstype]
                for fd, entry in sorted(vfs._fds.items())},
        "fids": sorted(ninep.live_fids()),
        "ramfs": {path: bytes(node.data).decode("latin-1")
                  for path, node in sorted(ramfs._nodes.items())
                  if not node.is_dir},
        "share": shared,
    }


def _apply_fault(injector: FaultInjector, kind: str, target: str,
                 func: Optional[str]) -> None:
    if kind == "panic":
        injector.inject_panic(target)
    elif kind == "multi_panic":
        injector.inject_panic(target, count=2)
    elif kind == "hang":
        injector.inject_hang(target)
    elif kind == "det_bug":
        injector.inject_deterministic_bug(target, func)
    elif kind == "bit_flip":
        injector.inject_bit_flip(target)
    else:
        raise ValueError(f"unknown fault kind {kind!r}")


def _armed_injection(injector: FaultInjector, kind: str, target: str,
                     func: Optional[str]):
    def callback(site: str, index: int, detail: Dict[str, Any]) -> None:
        _apply_fault(injector, kind, target, func)
    return callback


def _install_canary(kernel: VampOSKernel) -> None:
    """The planted transparency bug: the first component reboot
    silently drops the newest completed entry from the rebooted
    component's call log before the replay reads it.  One-shot — the
    minimal reproduction is a single reboot after a single logged op."""
    state = {"armed": True}

    def on_event(event) -> None:
        if (not state["armed"] or event.category != "reboot"
                or event.name != "component_start"):
            return
        members = event.detail.get("members") or \
            [event.detail.get("component")]
        for member in members:
            log = kernel.logs.get(member)
            if log is None:
                continue
            completed = [entry for entry in log.entries
                         if entry.completed and not entry.is_synthetic]
            if completed:
                log.remove_entries([completed[-1]])
                state["armed"] = False
                return

    kernel.sim.trace.subscribe(on_event)


class _Driver:
    """Applies op events, mirroring the transparency-test driver."""

    def __init__(self, kernel: VampOSKernel, outcome: RunOutcome) -> None:
        self.kernel = kernel
        self.outcome = outcome
        self.fds: List[int] = []

    def apply(self, index: int, op: List[Any]) -> None:
        kind = op[1]
        results = self.outcome.results
        try:
            if kind == "open":
                fd = self.kernel.syscall("VFS", "open",
                                         PATHS[op[2] % len(PATHS)], "rwc")
                self.fds.append(fd)
                results.append([index, "open", fd])
            elif kind == "write" and self.fds:
                fd = self.fds[op[2] % len(self.fds)]
                n = self.kernel.syscall("VFS", "write", fd,
                                        op[3].encode())
                results.append([index, "write", fd, n])
            elif kind == "read" and self.fds:
                fd = self.fds[op[2] % len(self.fds)]
                data = self.kernel.syscall("VFS", "read", fd, op[3])
                text = (data.decode("latin-1")
                        if isinstance(data, (bytes, bytearray))
                        else data)
                results.append([index, "read", fd, text])
            elif kind == "seek" and self.fds:
                fd = self.fds[op[2] % len(self.fds)]
                pos = self.kernel.syscall("VFS", "lseek", fd, op[3],
                                          "set")
                results.append([index, "seek", fd, pos])
            elif kind == "close" and self.fds:
                fd = self.fds.pop(op[2] % len(self.fds))
                self.kernel.syscall("VFS", "close", fd)
                results.append([index, "close", fd])
            elif kind == "stat":
                info = self.kernel.syscall("VFS", "stat",
                                           PATHS[op[2] % len(PATHS)])
                results.append([index, "stat", info["size"]])
        except SyscallError as exc:
            results.append([index, "errno", kind, exc.errno])


def run_scenario(scenario: Scenario, ops_only: bool = False,
                 shrink_override: Optional[bool] = None,
                 restore_probes: bool = True,
                 kernel_hook: Optional[
                     Callable[[VampOSKernel], None]] = None
                 ) -> RunOutcome:
    """Execute ``scenario`` and collect a :class:`RunOutcome`.

    ``ops_only`` runs just the op events, fault-free — the reference.
    ``shrink_override`` forces ``shrink_enabled`` (the shrink twin).
    ``kernel_hook`` is called with the (possibly dead) kernel after
    everything is captured — :func:`violation_postmortem` uses it to
    freeze an artifact from the final kernel state.

    Scenarios written in the fleet grammar (``ftick`` / ``fkill`` /
    ...) dispatch to the fleet runner; the outcome shape is identical,
    so oracles, shrinking and the corpus treat both families alike.
    """
    from .fleet import is_fleet_scenario, run_fleet_scenario
    if is_fleet_scenario(scenario):
        return run_fleet_scenario(scenario, ops_only=ops_only,
                                  shrink_override=shrink_override,
                                  restore_probes=restore_probes,
                                  kernel_hook=kernel_hook)
    config = config_by_name(scenario.config)
    if shrink_override is not None:
        config = config.with_(shrink_enabled=shrink_override)
    outcome = RunOutcome()

    sim = Simulation(seed=scenario.seed)
    # Build through the shared helper but on our simulation: recreate
    # inline so probes attach before boot (boot checkpoints count).
    share = HostShare()
    share.makedirs("/data")
    spec = ImageSpec("crucible", list(COMPONENTS),
                     component_args={"VIRTIO": {"share": share}})
    if not ops_only:
        sim.probes = SiteProbes()
    kernel = VampOSKernel(ImageBuilder().build(spec, sim), config)
    # The SLO ledger is always armed in the crucible: recording is
    # purely observational, and the refmode/rootfree twins arm it
    # identically, so ledger parity still binds bit-exactly.
    kernel.slo.enabled = True

    current = [-1]  # event index visible to the trace subscriber

    def on_trace(event) -> None:
        if event.category not in _TRACED:
            return
        detail = {k: v for k, v in event.detail.items()
                  if isinstance(v, (str, int, float, bool, list))}
        outcome.trace_log.append([current[0], event.category,
                                  event.name, detail])
        if event.category == "supervisor":
            if event.name in ("degraded", "fresh_restart"):
                outcome.note_lossy(current[0])
            elif event.name == "rung" and \
                    event.detail.get("rung") == "fresh-restart":
                outcome.note_lossy(current[0])
        elif event.category == "reboot" and event.name == "fail_stop":
            outcome.note_lossy(current[0])

    sim.trace.subscribe(on_trace)
    try:
        kernel.boot()
        kernel.syscall("VFS", "mount", "/", "9pfs", "/")
        kernel.syscall("VFS", "mount", "/tmp", "ramfs")
        kernel.test_share = share  # type: ignore[attr-defined]
        if scenario.canary:
            _install_canary(kernel)
        injector = FaultInjector(kernel)
        driver = _Driver(kernel, outcome)

        for index, event in enumerate(scenario.events):
            tag = event[0]
            if ops_only and tag != "op":
                continue
            current[0] = index
            try:
                if tag == "op":
                    driver.apply(index, event)
                elif tag == "inject":
                    _apply_fault(injector, event[1], event[2],
                                 event[3] if len(event) > 3 else None)
                elif tag == "site":
                    sim.probes.arm(
                        event[1], int(event[2]),
                        _armed_injection(
                            injector, event[3], event[4],
                            event[5] if len(event) > 5 else None))
                elif tag == "corrupt":
                    injector.inject_corruption(event[1])
                elif tag == "reboot":
                    kernel.reboot_component(event[1], reason="crucible")
                elif tag == "heartbeat":
                    kernel.heartbeat()
                elif tag == "advance":
                    sim.clock.advance_to(sim.clock.now_us + float(event[1]))
                elif tag == "root_panic":
                    injector.inject_root_panic()
                elif tag == "root_age":
                    injector.inject_root_age(int(event[1]))
                else:
                    raise ValueError(f"unknown scenario event {tag!r}")
            except TERMINAL as exc:
                outcome.terminal = type(exc).__name__
                outcome.note_lossy(index)
                if kernel.last_postmortem is None:
                    # Deaths the kernel couldn't self-report (hangs,
                    # replay mismatches, arena exhaustion) still get
                    # an artifact, frozen here at the point of death.
                    kind = ("root_panic" if isinstance(exc, KernelPanic)
                            else "fail_stop")
                    emit_postmortem(
                        kernel, kind,
                        getattr(exc, "component", None) or "KERNEL",
                        reason=f"{type(exc).__name__}: {exc}")
                break

        if outcome.terminal is None:
            outcome.final_state = observable_state(kernel)
        outcome.degraded_final = sorted(kernel.supervisor.degraded)

        if sim.probes is not None:
            outcome.site_counts = dict(sim.probes.counts)
            outcome.pending_armings = sim.probes.pending()
            # Detach before the restore probes: a stale arming firing
            # during a verification reboot would fault the check itself.
            sim.probes = None

        if (restore_probes and outcome.terminal is None
                and not kernel.crashed):
            current[0] = len(scenario.events)
            _probe_restores(kernel, outcome)
    finally:
        sim.trace.unsubscribe(on_trace)

    outcome.ledger_totals = dict(sim.ledger.totals)
    outcome.ledger_counts = dict(sim.ledger.counts)
    outcome.clock_us = sim.clock.now_us
    outcome.slo = kernel.slo.to_jsonable(
        now_us=ledger_now_us(sim.ledger))
    telemetry = kernel.supervisor.telemetry
    outcome.phase_totals = {
        kind: dict(sorted(totals.items()))
        for kind, totals in sorted(telemetry.phase_totals.items())}
    outcome.phase_episodes = dict(
        sorted(telemetry.phase_episodes.items()))
    outcome.postmortem = kernel.last_postmortem
    if kernel_hook is not None:
        kernel_hook(kernel)
    return outcome


def _probe_restores(kernel: VampOSKernel, outcome: RunOutcome) -> None:
    """Snapshot/restore state equivalence: rebooting a healthy stateful
    component must leave the observable state bit-identical."""
    def unhealthy(member: str) -> bool:
        comp = kernel.component(member)
        return (kernel.supervisor.is_degraded(member)
                or comp.state is not ComponentState.BOOTED
                or comp.injected_panic is not None
                or comp.injected_hang
                or bool(comp.deterministic_faults))

    for name in ("VFS", "9PFS", "RAMFS"):
        # A reboot covers the whole merge group: every member must be
        # healthy, or the probe would (correctly) re-trigger a fault
        # that has nothing to do with restore soundness.
        unit = kernel.scheduler.unit_of(name)
        members = [member for member in kernel.image.boot_order
                   if kernel.scheduler.unit_of(member) == unit]
        if any(unhealthy(member) for member in members):
            continue
        before = observable_state(kernel)
        try:
            kernel.reboot_component(name, reason="restore-probe")
        except TERMINAL as exc:
            outcome.restore_problems.append(
                f"{name}: restore-probe reboot died with "
                f"{type(exc).__name__}")
            return
        after = observable_state(kernel)
        if after != before:
            outcome.restore_problems.append(
                f"{name}: observable state diverged across a clean "
                f"reboot")


def violation_postmortem(scenario: Scenario,
                         violations: List[str]) -> Dict[str, Any]:
    """Freeze an ``oracle_violation`` postmortem for a scenario the
    panel convicted: the main arm is re-run (bit-identical — same seed,
    same schedule) and the artifact is built from its final kernel."""
    captured: Dict[str, Any] = {}

    def hook(kernel: VampOSKernel) -> None:
        captured["doc"] = emit_postmortem(
            kernel, "oracle_violation", "KERNEL",
            reason="oracle violations: " + ", ".join(violations))

    run_scenario(scenario, kernel_hook=hook)
    return captured["doc"]


def rootfree_twin(scenario: Scenario) -> Scenario:
    """The scenario with every root event replaced by a zero-length
    advance: same length, same event indices, but the kernel is never
    damaged — what a never-aged, never-rebooted root would have run."""
    return scenario.with_events(
        [["advance", 0.0] if event[0] in ROOT_EVENTS else list(event)
         for event in scenario.events])


def run_bundle(scenario: Scenario) -> Dict[str, RunOutcome]:
    """The up-to-five-way evaluation of one scenario (see module
    docs); ``rootfree`` is present only for scenarios carrying root
    events."""
    from .fleet import is_fleet_scenario, run_fleet_bundle
    if is_fleet_scenario(scenario):
        return run_fleet_bundle(scenario)
    main = run_scenario(scenario)
    reference = run_scenario(scenario, ops_only=True,
                             restore_probes=False)
    with reference_mode():
        refmode = run_scenario(scenario)
    noshrink = run_scenario(scenario, shrink_override=False)
    bundle = {"main": main, "reference": reference, "refmode": refmode,
              "noshrink": noshrink}
    if any(event[0] in ROOT_EVENTS for event in scenario.events):
        bundle["rootfree"] = run_scenario(rootfree_twin(scenario))
    return bundle
