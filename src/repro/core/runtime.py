"""The VampOS runtime (§IV, §V).

``VampOSKernel`` runs the same unikernel image as the vanilla kernel but
with the paper's machinery in place:

* cross-component calls travel through **message domains** and are
  scheduled onto per-component **threads** (§V-A);
* calls into stateful components are **logged**, together with the
  return values of their outbound calls (§V-B), and the logs are kept
  small by **session-aware shrinking** (§V-F);
* every component (or merge group) lives in its own **protection
  domain** (§V-D);
* post-boot **checkpoints** are taken of every stateful component
  (§V-E);
* on a fail-stop fault the **failure detector** triggers a
  component-level reboot: teardown → checkpoint restore → encapsulated
  log replay → runtime-data re-import → thread reattach — after which
  the in-flight call is retried (re-execution avoids non-deterministic
  faults, §II-B).  What happens when the retry fails *again* is owned
  by the :class:`~repro.supervisor.RecoverySupervisor`: an escalation
  ladder (fresh restart, variant swap, dependency-scoped widening,
  rejuvenate-all), retry budgets with backoff, crash-storm detection
  and graceful degradation, ending in a fail-stop only when every
  armed remedy is exhausted.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..memory.mpk import (
    INTEL_MPK_KEYS,
    PKRU,
    ProtectionDomains,
    ProtectionFault,
    VirtualizedProtectionDomains,
)
from ..memory.region import Region, RegionKind
from ..memory.snapshot import SnapshotStore
from ..sim.engine import Simulation
from ..unikernel.component import Component, ComponentState
from ..rejuvenation import (
    RootRebootRecord,
    RootWear,
    capture_root_checkpoint,
    restore_root_checkpoint,
)
from ..unikernel.errors import (
    ComponentFailure,
    HangDetected,
    KernelPanic,
    Panic,
    RecoveryFailed,
    SyscallError,
    UnrebootableComponent,
)
from ..unikernel.image import APP, UnikernelImage
from ..unikernel.kernel import Kernel
from ..obs.postmortem import emit_postmortem
from ..obs.slo import SloLedger, ledger_now_us
from .calllog import ComponentCallLog
from .config import (
    SCHEDULER_DEPENDENCY_AWARE,
    SCHEDULER_ROUND_ROBIN,
    DAS,
    VampConfig,
)
from .detector import FailureDetector
from ..fastpath import FLAGS, HANDLES
from .messages import MESSAGE_HEADER_BYTES, MessageDomain, payload_size

#: interned wire sizes, shared with messages.payload_size (empty — and
#: therefore a guaranteed miss — while interned_payloads is off)
_WIRE_SIZES = HANDLES.wire_sizes
from .restore import EncapsulatedRestorer, ReplayMismatch, ReplaySession
from .scheduler import (
    APP_THREAD,
    MSG_THREAD,
    BaseScheduler,
    DependencyAwareScheduler,
    RoundRobinScheduler,
    ThreadState,
    build_units,
)

_RUNNING = ThreadState.RUNNING
_IDLE = ThreadState.IDLE
from .shrink import LogShrinker


@dataclass
class RebootRecord:
    """One component-level reboot, for the Fig. 6 experiments."""

    component: str
    unit: str
    members: Tuple[str, ...]
    reason: str
    start_us: float
    downtime_us: float = 0.0
    snapshot_bytes: int = 0
    entries_replayed: int = 0
    retvals_fed: int = 0
    stateless: bool = False


class _CrossingPlan:
    """One non-merged crossing, compiled to a charge tape.

    Under dependency-aware scheduling the exact charge sequence of a
    crossing (request push → [MSG thread] → target switch → pull, and
    the mirror-image reply) depends only on the static pieces: the
    caller/target units, the candidate table, whether the call is
    logged and whether the caller keeps a return-value log.  Each
    dispatcher builds one plan per (caller, target, logged) and replays
    it as straight-line dict arithmetic — every individual
    ``(category, amount)`` charge is still applied separately and in
    reference order, so the virtual clock and the per-category ledger
    stay bit-identical to the ``vo_push_msgs`` → dispatch →
    ``vo_pull_msgs`` triple.

    ``req_run`` / ``rep_run`` are the tapes code-generated into one
    straight-line function each (amounts and unit names baked in as
    constants, the clock accumulated in a local and stored once — the
    same left-to-right float additions, so the result is bit-identical).
    The functions come from :func:`_exec_tape`, which compiles each
    distinct source text once per process, so kernels with the same
    image and cost model share them.  The ``*_tape`` slots keep the
    symbolic form the recorder replays and the neutrality tests inspect.
    """

    __slots__ = ("caller_unit", "target_unit", "thread",
                 "req_tape", "req_run", "rep_tape", "rep_run")


#: most distinct crossing-tape sources kept compiled per process (a
#: whole tier-1 run needs about 70)
TAPE_CACHE_SIZE = 256


@functools.lru_cache(maxsize=TAPE_CACHE_SIZE)
def _exec_tape(text):
    """Compile one generated tape source into its ``run`` function.

    The text carries the function's whole meaning (every amount is a
    round-tripping ``repr``, and the namespace holds only the two
    thread states), so the result is shared by every kernel that
    generates the same text and refers to none of them.
    """
    namespace = {"_RUNNING": _RUNNING, "_IDLE": _IDLE}
    exec(text, namespace)  # noqa: S102 - static template
    return namespace["run"]


def _compile_crossing(tape, deltas, msg_dispatch, caller_unit,
                      target_unit, reply):
    """Code-generate one crossing side into a straight-line function.

    The generated body replays the tape's charges one at a time in
    reference order (each amount a baked-in constant; ``repr`` of a
    float round-trips exactly), accumulating the clock in a local and
    storing it once — the identical sequence of left-to-right float
    additions, so clock and ledger stay bit-identical to the loop it
    replaces.  The domain/scheduler bookkeeping that the fast lane
    performed inline follows, with the per-plan stat deltas folded into
    constants.  The source text is generated on every call;
    :func:`_exec_tape` compiles it only on a cache miss.
    """
    switches, deps, wasted, fallbacks = deltas
    src = ["def run(sim, md, sched, thread, size):",
           "    clock = sim.clock",
           "    ledger = sim.ledger",
           "    totals = ledger.totals",
           "    counts = ledger.counts",
           "    n = clock._now_us",
           "    e = ledger.elapsed_us"]
    for cat, amt in tape:
        c, a = repr(cat), repr(amt)
        # e accumulates per entry (not one folded constant) so the
        # float addition order matches CostLedger.charge exactly.
        src += [f"    n += {a}",
                f"    e += {a}",
                f"    try:",
                f"        totals[{c}] += {a}",
                f"    except KeyError:",
                f"        totals[{c}] = 0.0 + {a}",
                f"        counts[{c}] = 1",
                f"    else:",
                f"        counts[{c}] += 1"]
    src += ["    clock._now_us = n",
            "    ledger.elapsed_us = e",
            "    mid = next(md._ids)",
            "    md.pushes += 1",
            "    md.pulls += 1",
            "    used = md.used_bytes + size",
            "    if used > md.peak_bytes:",
            "        md.peak_bytes = used",
            "    depth = len(md._in_flight) + 1",
            "    if depth > md.peak_in_flight:",
            "        md.peak_in_flight = depth",
            "    stats = sched.stats",
            f"    stats.dispatches += {switches}",
            f"    stats.dependency_lookups += {deps}"]
    if wasted:
        src.append(f"    stats.wasted_polls += {wasted}")
    if fallbacks:
        src.append(f"    sched.fallback_dispatches += {fallbacks}")
    if msg_dispatch:
        src.append("    stats.msg_thread_dispatches += 1")
    if reply:
        src += ["    chain = sched._active_chain",
                f"    if chain and chain[-1] == {target_unit!r}:",
                "        chain.pop()",
                f"    if {target_unit!r} not in chain:",
                "        thread.state = _IDLE",
                f"    sched.current = {caller_unit!r}"]
    else:
        src += [f"    sched._active_chain.append({target_unit!r})",
                "    thread.state = _RUNNING",
                "    thread.dispatches += 1",
                f"    sched.current = {target_unit!r}"]
    # The message id feeds the dispatch span's ``msg_id`` when a flight
    # recorder is attached; plain callers ignore the return value.
    src.append("    return mid")
    return _exec_tape("\n".join(src))


class VampDispatcher:
    """Message-passing dispatch with logging, scheduling and recovery.

    The dispatch fast lane: ``invoke`` runs per crossing, so the
    ``kernel.*`` subsystem handles it needs are bound once (lazily, on
    the first call — the kernel finishes wiring its subsystems after
    constructing the dispatcher) instead of chased through attribute
    chains per call.  The kernel rebuilds the whole dispatcher whenever
    it re-initialises (``full_reboot`` re-runs ``__init__``), so the
    bound handles can never go stale.
    """

    __slots__ = ("kernel", "sim", "replay_session", "_bound",
                 "_components", "_message_domain", "_scheduler", "_logs",
                 "_shrinkers", "_supervisor", "_detector", "_meter",
                 "_logging_enabled", "_member_map", "_plans")

    def __init__(self, kernel: "VampOSKernel") -> None:
        self.kernel = kernel
        self.sim = kernel.sim
        #: active replay session during an encapsulated restoration
        self.replay_session: Optional[ReplaySession] = None
        self._bound = False

    def _bind(self) -> None:
        kernel = self.kernel
        self._components = kernel.image.components
        self._message_domain = kernel.message_domain
        self._scheduler = kernel.scheduler
        self._logs = kernel.logs
        self._shrinkers = kernel.shrinkers
        self._supervisor = kernel.supervisor
        self._detector = kernel.detector
        self._meter = kernel.meter
        self._logging_enabled = kernel.config.logging_enabled
        self._member_map = kernel.scheduler.member_map
        #: (caller, target, logged) -> _CrossingPlan, or False when the
        #: crossing cannot be compiled (round-robin, merged units)
        self._plans: Dict[Tuple[str, str, bool], Any] = {}
        self._bound = True

    def _build_plan(self, caller: str, target: str,
                    logged: bool) -> Any:
        """Compile the crossing's charge tape (see :class:`_CrossingPlan`).

        Caches and returns False when the crossing cannot be compiled:
        anything but a plain :class:`DependencyAwareScheduler` (a
        subclass may override the switch protocol), merged units, or a
        pathological cost model with negative amounts (those take
        ``Simulation.charge``'s ignore branch, which a tape replay
        cannot reproduce).
        """
        sched = self._scheduler
        key = (caller, target, logged)
        costs = self.sim.costs
        caller_unit = sched.unit_of(caller)
        target_unit = sched.unit_of(target)
        thread = sched.threads.get(target_unit)
        if (type(sched) is not DependencyAwareScheduler
                or caller_unit == target_unit or thread is None):
            self._plans[key] = False
            return False
        candidates = sched._candidates

        def extend_switch(tape: list, deltas: list,
                          frm: str, to: str) -> str:
            # Mirrors DependencyAwareScheduler._switch_to(poll=True);
            # deltas = [switches, lookups, wasted, fallbacks].
            tape.append(("dependency_lookup", costs.dependency_lookup))
            deltas[1] += 1
            cands = candidates.get(frm)
            if cands is None or to not in cands:
                scan = len(cands) if cands else 0
                if scan:
                    tape.append(("wasted_poll", scan * costs.wasted_poll))
                    deltas[2] += scan
                deltas[3] += 1
            tape.append(("thread_switch", costs.thread_switch))
            tape.append(("pkru_write", costs.pkru_write))
            deltas[0] += 1
            return to

        req_tape: list = [("msg_push", costs.msg_push)]
        req_deltas = [0, 0, 0, 0]
        cur = caller_unit
        if logged:
            cur = extend_switch(req_tape, req_deltas, cur, MSG_THREAD)
        extend_switch(req_tape, req_deltas, cur, target_unit)
        req_tape.append(("msg_pull", costs.msg_pull))

        needs_msg = self._logs.get(caller) is not None
        rep_tape: list = [("msg_push", costs.msg_push)]
        rep_deltas = [0, 0, 0, 0]
        cur = target_unit
        if needs_msg:
            cur = extend_switch(rep_tape, rep_deltas, cur, MSG_THREAD)
        extend_switch(rep_tape, rep_deltas, cur, caller_unit)
        rep_tape.append(("msg_pull", costs.msg_pull))

        if any(amt < 0 for _, amt in req_tape) \
                or any(amt < 0 for _, amt in rep_tape):
            self._plans[key] = False
            return False
        plan = _CrossingPlan()
        plan.caller_unit = caller_unit
        plan.target_unit = target_unit
        plan.thread = thread
        plan.req_tape = tuple(req_tape)
        plan.rep_tape = tuple(rep_tape)
        plan.req_run = _compile_crossing(req_tape, req_deltas, logged,
                                         caller_unit, target_unit,
                                         reply=False)
        plan.rep_run = _compile_crossing(rep_tape, rep_deltas, needs_msg,
                                         caller_unit, target_unit,
                                         reply=True)
        self._plans[key] = plan
        return plan

    # --- the main entry point ----------------------------------------------------

    def invoke(self, caller: str, target: str, func: str,
               args: Tuple[Any, ...], kwargs: Dict[str, Any]) -> Any:
        kernel = self.kernel
        sim = self.sim
        if not self._bound:
            self._bind()

        # Encapsulated restoration: the restoring component's outbound
        # calls are answered from the return-value log (Fig. 3).
        session = self.replay_session
        if session is not None and caller == session.component:
            return session.next_retval(target, func)

        # Degraded components answer every call with an ENODEV-style
        # error instead of dispatching (graceful degradation).  The
        # error is recorded in the caller's return-value log like any
        # other errno, so a later replay of the caller re-raises it.
        supervisor = self._supervisor
        if supervisor.degraded and supervisor.is_degraded(target):
            if sim.obs is not None:
                sim.obs.inc("dispatch.degraded")
            error_exc = supervisor.answer_degraded_call(target, func)
            self._record_caller_retval(caller, target, func, None,
                                       (error_exc.errno, str(error_exc)))
            raise error_exc

        comp = self._components.get(target)
        if comp is None:
            comp = kernel.component(target)  # raises the decorated error
        # Pre-resolved dispatch: one cached dict hit instead of an
        # interface rebuild (raises AttributeError like the old lookup).
        hit = comp._export_cache.get(func)
        if hit is None:
            hit = comp.resolve_export(func)
        method, info = hit

        rec = self._meter._active  # inlined meter.note_transition(2)
        if rec is not None:
            rec.transitions += 2
        sched = self._scheduler
        mm = self._member_map  # inlined scheduler.same_unit
        merged = mm.get(caller, caller) == mm.get(target, target)
        log = self._logs.get(target)
        logged = (log is not None and info.logged
                  and self._logging_enabled)

        # --- request path: message passing + scheduling -------------------
        obs = sim.obs
        dspan = None
        dispatch_t0 = 0.0
        md = self._message_domain
        fastlane = False
        if obs is not None:
            dispatch_t0 = sim.clock.now_us
            obs.inc("dispatch.calls")
        if not merged and FLAGS.batched_crossings and sim.probes is None:
            # The tape runs only where the reference triple would take
            # the exact modelled route.  Crucible probes fire at the
            # push/pull sites and may reboot components mid-crossing,
            # which needs the reference in-flight bookkeeping.
            plan = self._plans.get((caller, target, logged))
            if plan is None:
                plan = self._build_plan(caller, target, logged)
            fastlane = (plan is not False
                        and sched.current == plan.caller_unit
                        and plan.target_unit not in sched._active_chain
                        and not sim.clock._watchers)
        if merged:
            sim.charge("function_call", sim.costs.function_call)
            if obs is not None:
                dspan = obs.open_span("dispatch", f"{target}.{func}",
                                      caller=caller, merged=True)
        elif fastlane:
            # --- the compiled request tape (see _CrossingPlan) --------
            psize = None
            if not kwargs:
                try:
                    psize = _WIRE_SIZES.get(args)
                except TypeError:  # unhashable payload
                    psize = None
            if psize is None:
                psize = payload_size(args, kwargs)
            size = MESSAGE_HEADER_BYTES + psize
            if size > md.region.size_bytes - md.used_bytes:
                md.begin_crossing(args, kwargs)  # raises (domain full)
            mid = plan.req_run(sim, md, sched, plan.thread, size)
            if obs is not None:
                # The recorder sees the same crossing the reference
                # path reports: attributions, counters, then the
                # dispatch span under the span open at entry.
                obs.on_crossing(plan.req_tape, len(md._in_flight) + 1,
                                md.used_bytes)
                dspan = obs.open_span("dispatch", f"{target}.{func}",
                                      parent=obs.current_span_id(),
                                      caller=caller, msg_id=mid)
        else:
            message = md.vo_push_msgs(
                caller, target, func, args, kwargs)
            sched.dispatch(target, needs_msg_thread=logged)
            md.vo_pull_msgs(message)
            if obs is not None:
                # Parent id travels on the message (stamped at push
                # time): the dispatch span nests under the span that
                # was open when the request entered the domain.
                dspan = obs.open_span("dispatch", f"{target}.{func}",
                                      parent=message.span_id,
                                      caller=caller,
                                      msg_id=message.msg_id)

        entry = None
        if logged:
            key = None
            if info.key_arg is not None and len(args) > info.key_arg:
                key = args[info.key_arg]
            entry = log.append(func, args, kwargs, key=key,
                               session_opener=info.session_opener,
                               canceling=info.canceling,
                               durable=info.durable)
            sim.charge("log_append", sim.costs.log_append)
            rec = self._meter._active  # inlined note_log_entries(1)
            if rec is not None:
                rec.log_entries += 1
            log._active.append(entry)  # inlined log.push_active
            if obs is not None:
                obs.inc("calllog.appends")
                obs.set_gauge(f"calllog.bytes.{target}",
                              log.space_bytes())

        # --- execution with failure handling -------------------------------
        result: Any = None
        error: Optional[Tuple[str, str]] = None
        try:
            try:
                # Inlined call_interface (same order: hang check, fault
                # check, body charge, bound-method call) — the guards
                # skip the calls entirely when no fault is injected,
                # which is every call outside the fault experiments.
                if comp.injected_hang:
                    self._detector.check_hang(comp)
                if comp.injected_panic is not None \
                        or comp.deterministic_faults:
                    comp.check_injected_faults(func)
                sim.charge("function_body",
                           sim.costs.function_body + info.body_cost)
                result = method(*args, **kwargs)
            except SyscallError as exc:
                error = (exc.errno, str(exc))
                raise
            except (Panic, HangDetected) as failure:
                # The message thread detected the fault; hand it to
                # the recovery supervisor, which walks the escalation
                # ladder (reboot-and-retry first, §II-B) and returns
                # the retried call's result — or raises the degraded
                # errno / RecoveryFailed when recovery is impossible.
                if entry is not None:
                    log.clear_nested(entry)
                try:
                    result = supervisor.handle_failure(
                        comp, func, args, kwargs, failure)
                except SyscallError as exc:
                    error = (exc.errno, str(exc))
                    raise
        finally:
            if entry is not None:
                log.pop_active(entry)
                if error is None:
                    # Direct calls bypass CallLogEntry.__setattr__'s
                    # name-based routing (identical effect: ``result``
                    # routes to _reresult, ``completed`` is unrouted).
                    log._reresult(entry, result)
                    object.__setattr__(entry, "completed", True)
                    if info.key_from_result and _is_scalar_key(result):
                        entry.key = result
                    if info.key_from_result and result is None:
                        # The call opened no session (accept() with an
                        # empty backlog): nothing to restore, drop it.
                        log.remove_entries([entry])
                    else:
                        self._shrinkers[target].on_entry_complete(entry)
                else:
                    # A failed call does not change component state;
                    # keep the log free of it.
                    log.remove_entries([entry])
            self._record_caller_retval(caller, target, func, result, error)
            # --- reply path ------------------------------------------------
            if not merged:
                if (fastlane and sched.current == plan.target_unit
                        and not sim.clock._watchers):
                    # --- the compiled reply tape ----------------------
                    reply_args = (result,)
                    try:
                        psize = _WIRE_SIZES.get(reply_args)
                    except TypeError:  # unhashable payload
                        psize = None
                    if psize is None:
                        psize = payload_size(reply_args, {})
                    size = MESSAGE_HEADER_BYTES + psize
                    if size > md.region.size_bytes - md.used_bytes:
                        md.begin_crossing(reply_args, {})  # raises
                    plan.rep_run(sim, md, sched, plan.thread, size)
                    if obs is not None:
                        obs.on_crossing(plan.rep_tape,
                                        len(md._in_flight) + 1,
                                        md.used_bytes)
                else:
                    reply = md.vo_push_msgs(
                        target, caller, func, (result,), is_reply=True)
                    sched.complete(
                        target, caller,
                        needs_msg_thread=self._logs.get(caller) is not None)
                    md.vo_pull_msgs(reply)
            if obs is not None:
                if error is None:
                    obs.close_span(dspan)
                else:
                    obs.inc("dispatch.errors")
                    obs.close_span(dspan, errno=error[0])
                obs.observe("dispatch.latency_us",
                            sim.clock.now_us - dispatch_t0)
        return result

    def _record_caller_retval(self, caller: str, target: str, func: str,
                              result: Any,
                              error: Optional[Tuple[str, str]]) -> None:
        """Store the outcome in the caller's return-value log (§V-B)."""
        caller_log = self._logs.get(caller)
        if caller_log is None:
            return
        if caller_log.record_retval(target, func, result=result,
                                    error=error):
            self.sim.charge("retval_append", self.sim.costs.retval_append)
            rec = self._meter._active  # inlined note_log_entries(1)
            if rec is not None:
                rec.log_entries += 1

class VampOSKernel(Kernel):
    """A unikernel image run under VampOS."""

    MODE = "vampos"

    def __init__(self, image: UnikernelImage,
                 config: VampConfig = DAS,
                 num_protection_keys: int = INTEL_MPK_KEYS) -> None:
        super().__init__(image)
        config.validate()
        for group, members in config.merges.items():
            for member in members:
                if member not in image:
                    raise ValueError(
                        f"merge group {group!r} member {member!r} is not "
                        f"linked into the {image.app_name!r} image")
        self.config = config
        self._vamp = VampDispatcher(self)
        self.detector = FailureDetector(
            self.sim, hang_threshold_us=config.hang_threshold_us)
        self.snapshots = SnapshotStore(self.sim)
        self.restorer = EncapsulatedRestorer(self.sim)
        self.reboots: List[RebootRecord] = []

        # --- threads -------------------------------------------------------
        units, member_map = build_units(image.boot_order, config.merges)
        if config.scheduler == SCHEDULER_ROUND_ROBIN:
            self.scheduler: BaseScheduler = RoundRobinScheduler(
                self.sim, units, member_map)
        else:
            self.scheduler = DependencyAwareScheduler(
                self.sim, units, image.dependency_graph(), member_map)

        # --- protection domains (§V-D) ---------------------------------------
        if config.virtualize_keys:
            self.domains: ProtectionDomains = VirtualizedProtectionDomains(
                num_protection_keys, enforce=config.enforce_mpk,
                sim=self.sim)
        else:
            self.domains = ProtectionDomains(num_protection_keys,
                                             enforce=config.enforce_mpk)
        self.pkrus: Dict[str, PKRU] = {}
        self._tag_domains(units, member_map, num_protection_keys)

        # --- message domain: logs + buffers (Fig. 4) ---------------------------
        self.msg_domain = Region("MSGDOM.region", RegionKind.MESSAGE,
                                 config.msg_domain_bytes, owner="MSGDOM",
                                 backed=False)
        self.domains.tag_region(self.msg_domain, self._msgdom_key)
        self.message_domain = MessageDomain(self.sim, self.msg_domain)
        self.logs: Dict[str, ComponentCallLog] = {}
        self.shrinkers: Dict[str, LogShrinker] = {}
        for name in image.stateful_components():
            comp = image.component(name)
            log = ComponentCallLog(name)
            self.logs[name] = log
            self.shrinkers[name] = LogShrinker(
                self.sim, comp, log,
                threshold=config.shrink_threshold,
                enabled=config.shrink_enabled)

        #: continuously saved runtime data (§V-B), per component
        self._runtime_data: Dict[str, Any] = {}
        #: §VIII extensions: multi-version components, graceful
        #: termination hooks, live-update history
        self.variants: Dict[str, type] = {}
        self._fail_stop_hooks: List[Any] = []
        self.updates: List[RebootRecord] = []

        # --- root rejuvenation (kernel-side wear + microreboot) ------------
        #: accumulated kernel-side damage only rejuvenate_root heals
        self.root_wear = RootWear()
        #: pending root-services panic reason (injected); surfaced at
        #: the next syscall or heartbeat — absorbed by a root reboot
        #: when armed, terminal otherwise
        self.root_panicked: Optional[str] = None
        self.root_reboots: List[RootRebootRecord] = []

        # --- recovery supervision (escalation, budgets, degradation) ------
        # Imported here (not at module level) because the supervisor
        # package reads core.detector; importing it lazily keeps
        # ``import repro.core.runtime`` acyclic from any entry point.
        from ..supervisor import RecoverySupervisor
        self.supervisor = RecoverySupervisor(self)

        # --- reliability observatory (SLO ledger + postmortems) ------------
        # Armed by config or whenever the flight recorder is attached;
        # purely observational either way, so arming it changes no
        # report byte.  Registered with the collector so recordings
        # carry the ledger (full_reboot re-runs __init__: the superseded
        # ledger stays registered and is serialised alongside).
        obs = self.sim.obs
        self.slo = SloLedger(
            enabled=config.slo_enabled or obs is not None,
            label=f"{image.app_name}/{config.name}")
        if obs is not None:
            obs.collector.slo_ledgers.append(self.slo)
        #: the most recent postmortem document (terminal failures)
        self.last_postmortem: Optional[Dict[str, Any]] = None
        self.postmortem_seq = 0

    # --- protection-domain assignment ---------------------------------------------

    def _tag_domains(self, units: List[str], member_map: Dict[str, str],
                     num_keys: int) -> None:
        app_key = self.domains.allocate(APP)
        unit_keys: Dict[str, int] = {}
        for unit in units:
            if unit in (APP_THREAD, MSG_THREAD):
                continue
            unit_keys[unit] = self.domains.allocate(unit)
        self._msgdom_key = self.domains.allocate("MSGDOM")
        self._sched_key = self.domains.allocate("SCHED")
        self._unit_keys = unit_keys
        self._app_key = app_key
        for name in self.image.boot_order:
            comp = self.image.component(name)
            key = unit_keys[self.scheduler.unit_of(name)]
            for region in comp.regions:
                self.domains.tag_region(region, key)
        # One PKRU per thread: its own domain plus the message domain.
        for unit, key in unit_keys.items():
            pkru = PKRU(num_keys)
            self.domains.grant(pkru, key, write=True)
            self.domains.grant(pkru, self._msgdom_key, write=True)
            self.pkrus[unit] = pkru
        app_pkru = PKRU(num_keys)
        self.domains.grant(app_pkru, app_key, write=True)
        self.domains.grant(app_pkru, self._msgdom_key, write=True)
        self.pkrus[APP_THREAD] = app_pkru

    def mpk_tag_count(self) -> int:
        """Tags in use: app + units + message domain + scheduler."""
        return self.domains.keys_in_use() - 1  # key 0 is the default key

    # --- Kernel plumbing ----------------------------------------------------------------

    def _dispatcher(self) -> VampDispatcher:
        return self._vamp

    def _post_boot(self) -> None:
        """Take the post-boot checkpoints (§V-E) and seed runtime data."""
        if self.config.checkpoints_enabled:
            for name in self.image.stateful_components():
                comp = self.image.component(name)
                if not comp.REBOOTABLE:
                    continue
                self.snapshots.take(name, comp.regions,
                                    comp.export_state())
        for name in self.image.boot_order:
            comp = self.image.component(name)
            data = comp.export_runtime_data()
            if data is not None:
                self._runtime_data[name] = data
        self.slo.seed_up(list(self.image.boot_order),
                         ledger_now_us(self.sim.ledger))

    def syscall(self, target: str, func: str, *args: Any,
                **kwargs: Any) -> Any:
        if self.root_panicked is not None:
            # Root services are corrupted: absorb it with a root
            # microreboot when armed, die like vanilla otherwise.
            self._root_recover(self.root_panicked)
        slo = self.slo
        if not slo.enabled:
            result = super().syscall(target, func, *args, **kwargs)
            self._save_runtime_data()
            return result
        # A served SyscallError (degraded mode, ENOENT, ...) is an
        # answered-with-error request; terminal exceptions (fail-stop,
        # kernel panic) propagate uncounted — the availability
        # intervals already record the death.
        try:
            result = super().syscall(target, func, *args, **kwargs)
        except SyscallError:
            slo.note_request(target, func, ok=False)
            raise
        slo.note_request(target, func, ok=True)
        self._save_runtime_data()
        return result

    def _save_runtime_data(self) -> None:
        """§V-B: save the special runtime data every time it may have
        been updated (after each top-level syscall).

        Components that track a ``runtime_data_dirty`` flag are only
        re-exported when a mutator actually ran since the last save;
        everything else is re-exported unconditionally, as before.
        """
        # Iterated directly: the loop only updates existing keys, so the
        # dict never changes size mid-iteration.
        for name in self._runtime_data:
            comp = self.image.component(name)
            if comp.state is not ComponentState.BOOTED:
                continue
            if (FLAGS.dirty_runtime_data
                    and comp.TRACKS_RUNTIME_DATA_DIRTY
                    and not comp.runtime_data_dirty):
                continue
            self._runtime_data[name] = comp.export_runtime_data()
            comp.runtime_data_dirty = False

    # --- component-level reboot (§IV) ------------------------------------------------------

    def reboot_component(self, name: str, reason: str = "manual",
                         replay: bool = True) -> RebootRecord:
        """Reboot the component (or its whole merge group) and restore it.

        ``replay=False`` is the supervisor's fresh-restart remedy: the
        members come back from their post-boot checkpoints *without*
        the encapsulated log replay, and the (now unreplayed, hence
        inconsistent) logs are cleared.  Lossy, but it sidesteps a
        fault that re-triggers during replay.

        Returns the :class:`RebootRecord` with the measured downtime.
        """
        comp = self.component(name)
        if not comp.REBOOTABLE:
            raise UnrebootableComponent(
                name, "its state is shared with the host (§VIII)")
        unit = self.scheduler.unit_of(name)
        members = tuple(n for n in self.image.boot_order
                        if self.scheduler.unit_of(n) == unit)
        record = RebootRecord(
            component=name, unit=unit, members=members, reason=reason,
            start_us=self.sim.clock.now_us,
            stateless=all(not self.image.component(m).STATEFUL
                          for m in members))
        if self.sim.trace.wants("reboot"):
            self.sim.emit("reboot", "component_start", component=name,
                          unit=unit, members=list(members), reason=reason)
        obs = self.sim.obs
        rspan = None
        if obs is not None:
            obs.inc("reboot.count")
            rspan = obs.open_span("reboot", name, unit=unit,
                                  reason=reason)
        self.scheduler.mark_rebooting(name)
        sup = self.supervisor
        # A direct reboot (heartbeat sweep, probe, rejuvenation) is its
        # own "sweep" episode; inside a ladder walk / storm plan / root
        # reboot the marks attribute to the enclosing episode's clock.
        clock = sup.phase_push("sweep") if not sup._phase_clocks else None
        if self.slo.enabled:
            for member in members:
                self.slo.note_state(member, "rebooting",
                                    ledger_now_us(self.sim.ledger))
        self.sim.charge("reboot_teardown", self.sim.costs.reboot_teardown)
        try:
            try:
                for member in members:
                    self.message_domain.drop_for(member)
                    self._restart_member(member, record, replay=replay)
            finally:
                if obs is not None:
                    obs.close_span(rspan,
                                   downtime_us=self.sim.clock.now_us
                                   - record.start_us)
            self.scheduler.reattach(name)
            sup.phase_mark("resume")
            if self.slo.enabled:
                for member in members:
                    self.slo.note_state(member, "up",
                                        ledger_now_us(self.sim.ledger))
        finally:
            if clock is not None:
                sup.phase_pop(clock)
        record.downtime_us = self.sim.clock.now_us - record.start_us
        self.reboots.append(record)
        if obs is not None:
            obs.observe("reboot.downtime_us", record.downtime_us)
        if self.sim.trace.wants("reboot"):
            self.sim.emit("reboot", "component_done", component=name,
                          downtime_us=record.downtime_us,
                          replayed=record.entries_replayed)
        return record

    def _restart_member(self, member: str, record: RebootRecord,
                        replay: bool = True) -> None:
        comp = self.image.component(member)
        comp.state = ComponentState.REBOOTING
        # A sticky (multi-hit) panic is environmental: the fresh image
        # does not remove its source, so the remaining hits are re-armed
        # once the restart (including the replay) has finished.
        sticky_panic = (comp.injected_panic
                        if comp.injected_panic_sticky else None)
        sticky_count = comp.injected_panic_count
        comp.injected_panic = None
        comp.injected_hang = False
        # The fresh memory image has no corruption, whatever the fault
        # did to the old one (bit flips included).
        for region in comp.regions:
            region.corrupted = False
        try:
            if not comp.STATEFUL:
                # Plain reinitialisation: no log, no snapshot (§VI).
                self.sim.charge("stateless_reinit",
                                self.sim.costs.stateless_reinit)
                comp.allocator.reset()
                comp.boot()
                self.supervisor.phase_mark("reboot")
                return
            self.supervisor.phase_mark("reboot")
            snap = self.snapshots.get(member)
            if snap is None:
                # No checkpoint (ablation config): full
                # re-initialisation, which may disturb other components
                # — exactly what §V-E warns about; the ablation
                # benchmark measures the cost.
                comp.allocator.reset()
                comp.boot()
            else:
                blob = self.snapshots.restore(snap, comp.regions)
                comp.import_state(blob)
                comp.state = ComponentState.BOOTED
                comp._boot_count += 1
                record.snapshot_bytes += snap.snapshot_bytes
            # Runtime data first (accept-created sockets occupy their
            # ids before replayed allocations pick lowest-free slots),
            # then the encapsulated replay.
            runtime_blob = self._runtime_data.get(member)
            if runtime_blob is not None:
                comp.import_runtime_data(runtime_blob)
            self.supervisor.phase_mark("checkpoint")
            log = self.logs.get(member)
            if log is None or not self.config.logging_enabled:
                return
            if not replay:
                # Fresh restart: the member keeps its checkpoint state
                # only.  The unreplayed log no longer describes the
                # component's state — clear it so a later reboot does
                # not replay stale history onto the checkpoint.
                log.clear()
                return
            session = ReplaySession(member)
            previous = self._vamp.replay_session
            self._vamp.replay_session = session
            obs = self.sim.obs
            pspan = None
            if obs is not None:
                pspan = obs.open_span("replay", member,
                                      entries=len(log))
            try:
                stats = self.restorer.replay(comp, log, session)
            except ComponentFailure as again:
                self.crashed = True
                raise RecoveryFailed(member, again) from again
            except ReplayMismatch as diverged:
                # The recorded log no longer matches the component's
                # behaviour (corrupt log / incompatible code): the
                # restoration cannot be trusted — fail-stop.
                self.crashed = True
                raise RecoveryFailed(member, diverged) from diverged
            finally:
                self._vamp.replay_session = previous
                self.supervisor.phase_mark("replay")
                if obs is not None:
                    obs.close_span(pspan)
            record.entries_replayed += stats.entries_replayed
            record.retvals_fed += stats.retvals_fed
            if obs is not None:
                obs.observe("replay.entries", stats.entries_replayed)
        finally:
            if sticky_panic is not None:
                comp.injected_panic = sticky_panic
                comp.injected_panic_count = sticky_count
                comp.injected_panic_sticky = True

    # --- §VIII extensions ---------------------------------------------------------------------

    def register_variant(self, name: str, variant_cls: type) -> None:
        """Register a multi-version alternative for a component (§VIII).

        When the rebooted component fails *again* (a deterministic
        bug), the runtime swaps the variant in — "whose functionalities
        and interfaces are the same as in the failed one, thereby
        eliminating the execution of the buggy code path".
        """
        if name not in self.image:
            raise ValueError(f"no component {name!r} in this image")
        if getattr(variant_cls, "NAME", None) != name:
            raise ValueError(
                f"variant class NAME {getattr(variant_cls, 'NAME', None)!r}"
                f" must equal {name!r}")
        original = type(self.component(name))
        missing = set(original.interface()) - set(variant_cls.interface())
        if missing:
            raise ValueError(
                f"variant of {name!r} is missing interface functions: "
                f"{sorted(missing)}")
        self.variants[name] = variant_cls

    def swap_in_variant(self, name: str,
                        reason: str = "variant swap") -> RebootRecord:
        """Replace a component instance with its registered variant and
        restore its running state via the normal recovery path."""
        variant_cls = self.variants.get(name)
        if variant_cls is None:
            raise ValueError(f"no variant registered for {name!r}")
        self._install_instance(name, variant_cls(self.sim))
        self.sim.emit("variant", "swapped", component=name,
                      cls=variant_cls.__name__)
        return self.reboot_component(name, reason=reason)

    def _install_instance(self, name: str, fresh: Component) -> None:
        """Wire a new component instance into the running image."""
        from ..unikernel.component import KernelAPI

        fresh.os = KernelAPI(self._vamp, name)
        key = self._unit_keys[self.scheduler.unit_of(name)]
        for region in fresh.regions:
            self.domains.tag_region(region, key)
        self.image.components[name] = fresh
        shrinker = self.shrinkers.get(name)
        if shrinker is not None:
            shrinker.component = fresh

    def on_fail_stop(self, callback: Any) -> None:
        """Register a graceful-termination hook (§VIII).

        Called (in registration order) when recovery has failed and the
        application is about to fail-stop — the window in which
        undamaged components can still save state ("storing the current
        in-memory KVs in storage just before a fail-stop").
        """
        self._fail_stop_hooks.append(callback)

    def fail_stop(self, component: str,
                  cause: Optional[BaseException] = None) -> Any:
        """Graceful termination: run the hooks, then fail-stop."""
        self.sim.emit("reboot", "fail_stop", component=component)
        for hook in self._fail_stop_hooks:
            try:
                hook()
            except Exception as exc:  # a dying system: best effort only
                self.sim.emit("reboot", "fail_stop_hook_error",
                              component=component, error=str(exc))
        self.crashed = True
        self.slo.note_state(component, "dead",
                            ledger_now_us(self.sim.ledger))
        emit_postmortem(self, "fail_stop", component,
                        reason=str(cause) if cause is not None
                        else "recovery exhausted")
        raise RecoveryFailed(component, cause) from cause

    def update_component(self, name: str,
                         new_cls: type) -> RebootRecord:
        """Live component update (§VIII "Reboots for Component Updates").

        Uses the reboot machinery to replace a component's *code* while
        carrying its *current* state across: export state from the old
        version, install the new instance, import the state, refresh
        the post-boot checkpoint and clear the (now superseded) log.
        """
        comp = self.component(name)
        if not comp.REBOOTABLE:
            raise UnrebootableComponent(
                name, "its state is shared with the host (§VIII)")
        if getattr(new_cls, "NAME", None) != name:
            raise ValueError(
                f"update class NAME must equal {name!r}")
        start = self.sim.clock.now_us
        unit = self.scheduler.unit_of(name)
        self.sim.emit("update", "start", component=name,
                      cls=new_cls.__name__)
        self.scheduler.mark_rebooting(name)
        self.sim.charge("reboot_teardown", self.sim.costs.reboot_teardown)
        state = comp.export_state()
        runtime_blob = comp.export_runtime_data()
        fresh = new_cls(self.sim)
        self._install_instance(name, fresh)
        fresh.import_state(state)
        fresh.state = ComponentState.BOOTED
        if runtime_blob is not None:
            fresh.import_runtime_data(runtime_blob)
            self._runtime_data[name] = runtime_blob
        # The carried-over state becomes the new recovery baseline:
        # replaying the old version's log onto the new code would mix
        # versions, so re-checkpoint and start a fresh log.
        if fresh.STATEFUL and self.config.checkpoints_enabled:
            self.snapshots.drop(name)
            self.snapshots.take(name, fresh.regions,
                                fresh.export_state())
        log = self.logs.get(name)
        if log is not None:
            log.clear()
        self.scheduler.reattach(name)
        record = RebootRecord(
            component=name, unit=unit, members=(name,),
            reason="live-update", start_us=start,
            downtime_us=self.sim.clock.now_us - start,
            stateless=not fresh.STATEFUL)
        self.updates.append(record)
        self.sim.emit("update", "done", component=name,
                      downtime_us=record.downtime_us)
        return record

    def full_reboot(self) -> float:
        """A regular whole-application reboot.

        §IV: "Regular reboots are used for other purposes, such as
        software updates and reconfiguration ... regular reboots need
        to be used for them" — so a VampOS build keeps the conventional
        path.  Every component is rebuilt and booted from scratch, the
        VampOS machinery (threads, domains, logs, checkpoints) is
        re-initialised, and the application loses its in-memory state
        exactly as under vanilla Unikraft.  Returns the downtime.
        """
        from ..unikernel.image import ImageBuilder

        start = self.sim.clock.now_us
        app_bytes = self.image.total_memory_bytes()
        self.sim.emit("reboot", "full_start", app=self.image.app_name,
                      mode=self.MODE)
        self.sim.charge("full_reboot", self.sim.costs.full_reboot_fixed)
        listeners = self._full_reboot_listeners
        previous_full_reboots = self._full_reboots
        spec = self.image.spec
        config = self.config
        num_keys = self.domains.num_keys
        fresh_image = ImageBuilder().build(spec, self.sim)
        # Rebuild every subsystem against the fresh image (threads,
        # protection domains, message domain, logs, checkpoints).
        self.__init__(fresh_image, config,  # type: ignore[misc]
                      num_protection_keys=num_keys)
        self._full_reboot_listeners = listeners
        self.boot()
        for listener in listeners:
            listener()
        self.sim.charge(
            "full_reboot_restore",
            app_bytes * self.sim.costs.full_reboot_restore_per_byte)
        downtime = self.sim.clock.now_us - start
        self._full_reboots = previous_full_reboots + 1
        self.sim.emit("reboot", "full_done", app=self.image.app_name,
                      downtime_us=downtime)
        return downtime

    def rejuvenate(self, name: str) -> RebootRecord:
        """Proactive software rejuvenation of one component (§IV)."""
        return self.reboot_component(name, reason="rejuvenation")

    def heartbeat(self) -> List[RebootRecord]:
        """The message thread's heart-beat sweep (§V-A).

        Detects components that failed *outside* a call path — a FAILED
        state left by an error handler, or a corrupted memory region
        from a hardware fault — and reboots them.  Applications call
        this from their idle loop (ServerApp.poll does).

        The sweep also drives the recovery supervisor's probation:
        degraded components whose quarantine has elapsed are probed
        (and restored on success); components still in quarantine are
        skipped — rebooting them here would defeat the degradation.

        When several units have failed at once (a crash storm) and the
        parallel-recovery planner is armed, the sweep collects the due
        set first and hands it to :meth:`reboot_components`, which
        overlaps independent units' reboots as virtual-time tracks.
        With the planner off (``reference_mode``) or a watched clock,
        the original one-at-a-time sweep runs bit-identically.
        """
        self.sim.charge("heartbeat", self.sim.costs.heartbeat_scan)
        obs = self.sim.obs
        if obs is not None:
            obs.sample_health(self)
        self._root_heartbeat()
        records: List[RebootRecord] = list(self.supervisor.tick())
        if FLAGS.parallel_recovery and not self.sim.clock._watchers:
            due = self._sweep_due()
            if len(due) > 1:
                records.extend(self.reboot_components(
                    due, reason="heartbeat",
                    precheck=self._heartbeat_due_detail))
            elif due:
                detail = self._heartbeat_due_detail(due[0])
                if detail is not None:
                    self.detector.record(due[0], "heartbeat", detail)
                    records.append(self.reboot_component(
                        due[0], reason="heartbeat"))
            return records
        swept = set()
        for name in self.image.boot_order:
            comp = self.image.component(name)
            if not comp.REBOOTABLE or name in swept:
                continue
            if self.supervisor.is_degraded(name):
                continue
            detail = self._heartbeat_due_detail(name)
            if detail is not None:
                self.detector.record(name, "heartbeat", detail)
                record = self.reboot_component(name, reason="heartbeat")
                swept.update(record.members)
                records.append(record)
        return records

    def _heartbeat_due_detail(self, name: str) -> Optional[str]:
        """The serial sweep's due check for one component: the detail
        string to record when it needs a reboot, ``None`` when healthy.

        Also the planner's *precheck*: re-evaluated right before each
        planned track executes, because an earlier reboot's replay can
        recover a later due component through the supervisor — the
        serial sweep would find it healthy at its turn and skip it.
        """
        comp = self.image.component(name)
        failed = comp.state is ComponentState.FAILED
        corrupted = any(region.corrupted for region in comp.regions)
        sensed = self.detector.sense(comp)
        if failed or corrupted or sensed:
            return sensed or ("failed state" if failed
                              else "corrupted region")
        return None

    def _sweep_due(self) -> List[str]:
        """Collect the heartbeat sweep's due components, at most one
        per unit, without rebooting (or detector-recording) anything.

        Mirrors the serial sweep's checks exactly; a unit already due
        skips its remaining merge-group members because the unit reboot
        restores them all (the serial sweep would find them healed).
        The detector record happens later, right before each reboot
        (via the :meth:`_heartbeat_due_detail` precheck), exactly where
        the serial sweep records it.
        """
        due: List[str] = []
        due_units = set()
        for name in self.image.boot_order:
            comp = self.image.component(name)
            if not comp.REBOOTABLE:
                continue
            if self.scheduler.unit_of(name) in due_units:
                continue
            if self.supervisor.is_degraded(name):
                continue
            if self._heartbeat_due_detail(name) is not None:
                due.append(name)
                due_units.add(self.scheduler.unit_of(name))
        return due

    def reboot_components(
            self, names: List[str], reason: str = "manual",
            replay: bool = True,
            precheck: Optional[Callable[[str], Optional[str]]] = None,
    ) -> List[RebootRecord]:
        """Reboot several components as one planned recovery episode.

        With the parallel-recovery planner armed (``fastpath.FLAGS``,
        unwatched clock) the failed units are partitioned into
        dependency levels — derived from the indexed call-log edges
        unioned with the declared component dependencies — and their
        reboot tracks overlap in virtual time, max-merging the clock
        (see :mod:`repro.recovery`).  Charges are issued in the exact
        serial order, so ledger totals and counts are bit-identical to
        the serial loop; only the elapsed clock shrinks.  Otherwise
        (planner off, watched clock, dependency cycle, or a single
        unit) the plain serial loop runs.

        ``precheck`` (the heartbeat sweep passes
        :meth:`_heartbeat_due_detail`) re-evaluates each component just
        before its reboot and skips it when it healed in the meantime —
        an earlier reboot's replay can recover a later component
        through the supervisor, and the serial sweep would find it
        healthy at its turn.  A still-due component is recorded with
        the detector first, exactly like the serial sweep does.
        """
        def do_reboot(name: str) -> Optional[RebootRecord]:
            if precheck is not None:
                detail = precheck(name)
                if detail is None:
                    return None
                self.detector.record(name, reason, detail)
            return self.reboot_component(name, reason=reason,
                                         replay=replay)

        sup = self.supervisor
        # A multi-unit episode (crash-storm sweep) gets its own clock;
        # single names fall through to reboot_component's own "sweep".
        clock = (sup.phase_push("storm")
                 if len(names) > 1 and not sup._phase_clocks else None)
        try:
            if (len(names) > 1 and FLAGS.parallel_recovery
                    and not self.sim.clock._watchers):
                from ..recovery import execute_plan, plan_for_kernel
                plan = plan_for_kernel(self, names)
                sup.phase_mark("plan")
                if plan.parallel:
                    return execute_plan(self, plan, reason=reason,
                                        replay=replay, reboot=do_reboot)
            records = []
            for name in names:
                record = do_reboot(name)
                if record is not None:
                    records.append(record)
            return records
        finally:
            if clock is not None:
                sup.phase_pop(clock)

    def rejuvenate_all(self) -> List[RebootRecord]:
        """Rejuvenate every rebootable component, one by one (§VII-D).

        Degraded (quarantined) components are skipped: they come back
        through the supervisor's probation, not a blanket sweep.
        """
        records = []
        for name in self.image.boot_order:
            if not self.image.component(name).REBOOTABLE:
                continue
            if self.supervisor.is_degraded(name):
                continue
            records.append(self.rejuvenate(name))
        return records

    # --- root rejuvenation (ReHype: reboot the root under live components) ---

    def rejuvenate_root(self, reason: str = "proactive") \
            -> RootRebootRecord:
        """Microreboot the kernel itself under the live components.

        Checkpoint the kernel-side state (run queue, in-flight message
        slots, supervisor policy) into a :class:`RootCheckpoint`, tear
        the root internals down and rebuild them fresh (recompiled
        crossing plans, fresh protection domains, a fresh message
        arena), then re-attach the live components — their memory
        regions, call logs, snapshots and runtime data are never
        touched, and in-flight dispatch frames resume exactly once
        against the restored state.  Kernel-side wear (orphaned message
        slots, stale crossing-plan entries, tombstones) is reclaimed by
        the teardown; a pending root panic is absorbed.  Callers
        observe only the bounded virtual-time stall charged here
        (``root_checkpoint`` + ``root_reboot`` + ``root_reattach``).
        """
        sim = self.sim
        start = sim.clock.now_us
        wear = self.root_wear
        if sim.trace.wants("reboot"):
            sim.emit("reboot", "root_start", reason=reason,
                     leaked_bytes=wear.leaked_bytes())
        obs = sim.obs
        rspan = None
        if obs is not None:
            obs.inc("root_reboot.count")
            rspan = obs.open_span("root_reboot", self.image.app_name,
                                  reason=reason,
                                  leaked_bytes=wear.leaked_bytes())
        sup = self.supervisor
        clock = sup.phase_push("root") if not sup._phase_clocks else None
        self.slo.note_state("ROOT", "rebooting", ledger_now_us(sim.ledger))
        try:
            sim.charge("root_checkpoint", sim.costs.root_checkpoint)
            cp, live = capture_root_checkpoint(self)
            sup.phase_mark("checkpoint")
            slots, plans, tombstones = wear.clear()
            self._reinit_root_internals()
            sim.charge("root_reboot", sim.costs.root_reboot_fixed)
            restore_root_checkpoint(self, cp, live)
            sup.phase_mark("reboot")
            sim.charge("root_reattach",
                       len(self.image.boot_order)
                       * sim.costs.root_reattach_per_component)
            sup.phase_mark("resume")
            self.root_panicked = None
            self.slo.note_state("ROOT", "up", ledger_now_us(sim.ledger))
        finally:
            if clock is not None:
                sup.phase_pop(clock)
            if obs is not None:
                obs.close_span(rspan, downtime_us=sim.clock.now_us
                               - start)
        record = RootRebootRecord(
            reason=reason, start_us=start,
            downtime_us=sim.clock.now_us - start,
            in_flight_resumed=len(cp.messages["slots"]),
            chain_depth=len(cp.scheduler["active_chain"]),
            slots_dropped=slots, plans_dropped=plans,
            tombstones_dropped=tombstones)
        self.root_reboots.append(record)
        if obs is not None:
            obs.observe("root_reboot.downtime_us", record.downtime_us)
        if sim.trace.wants("reboot"):
            sim.emit("reboot", "root_done", reason=reason,
                     downtime_us=record.downtime_us,
                     in_flight_resumed=record.in_flight_resumed,
                     slots_dropped=slots, plans_dropped=plans,
                     tombstones_dropped=tombstones)
        return record

    def _reinit_root_internals(self) -> None:
        """Tear down and rebuild the kernel-side internals in place.

        Object *identity* is the contract here: in-flight dispatch
        frames (and compiled crossing plans) hold the scheduler, the
        message domain, the dispatcher, the supervisor and component
        logs — so those objects survive and their ``__init__`` is
        re-run to refresh the internals (the same precedent
        ``full_reboot`` sets for the kernel itself).  Everything
        component-side — regions, call logs, snapshots, runtime data —
        is deliberately left alone.
        """
        config = self.config
        image = self.image
        num_keys = self.domains.num_keys
        units, member_map = build_units(image.boot_order, config.merges)
        # Fresh scheduler internals on the same object.
        if config.scheduler == SCHEDULER_ROUND_ROBIN:
            self.scheduler.__init__(  # type: ignore[misc]
                self.sim, units, member_map)
        else:
            self.scheduler.__init__(  # type: ignore[misc]
                self.sim, units, image.dependency_graph(), member_map)
        # Fresh protection domains, keys and PKRUs (charge-free: only
        # residency swaps are priced).  Component regions are re-tagged
        # — a kernel-side attribute — never written.
        if config.virtualize_keys:
            self.domains = VirtualizedProtectionDomains(
                num_keys, enforce=config.enforce_mpk, sim=self.sim)
        else:
            self.domains = ProtectionDomains(num_keys,
                                             enforce=config.enforce_mpk)
        self.pkrus = {}
        self._tag_domains(units, member_map, num_keys)
        # Fresh message arena bookkeeping on the same domain object.
        self.msg_domain = Region("MSGDOM.region", RegionKind.MESSAGE,
                                 config.msg_domain_bytes, owner="MSGDOM",
                                 backed=False)
        self.domains.tag_region(self.msg_domain, self._msgdom_key)
        self.message_domain.__init__(  # type: ignore[misc]
            self.sim, self.msg_domain)
        # Drop the dispatcher's bound handles: the next invoke rebinds
        # and rebuilds every crossing plan against the fresh root (the
        # tape code itself comes back from the process-wide cache).
        self._vamp._bound = False

    def _root_heartbeat(self) -> None:
        """The heartbeat's root-health check: absorb a pending root
        panic, and proactively rejuvenate once accumulated wear crosses
        the configured byte threshold (Microreboot's cheap-enough-to-
        use-proactively argument, applied to the root)."""
        if self.root_panicked is not None:
            self._root_recover(self.root_panicked)
            return
        if (self.config.root_rejuvenation_enabled
                and self.root_wear.leaked_bytes()
                >= self.config.root_wear_threshold_bytes):
            self.rejuvenate_root(reason="wear")

    def _root_recover(self, reason: str) -> None:
        """A root panic surfaced: rejuvenate when armed, else die —
        the root is the one component a component-level reboot cannot
        reach, so without rejuvenation this is terminal."""
        if self.config.root_rejuvenation_enabled:
            self.rejuvenate_root(reason=f"panic: {reason}")
            return
        self.sim.emit("fault", "root_panic", reason=reason)
        self.crashed = True
        self.slo.note_state("ROOT", "dead",
                            ledger_now_us(self.sim.ledger))
        emit_postmortem(self, "root_panic", "ROOT", reason=reason)
        raise KernelPanic(component="ROOT", cause=None)

    # --- fault surface ------------------------------------------------------------------------

    def attempt_wild_write(self, source: str, victim: str) -> None:
        """A buggy component writes into another component's memory.

        Under VampOS the write is stopped by the protection domain and
        the *faulty* component is rebooted; the victim is untouched
        (§V-D).  Contrast with the vanilla kernel, where the write
        lands and corrupts the victim.
        """
        victim_comp = self.component(victim)
        source_unit = self.scheduler.unit_of(source)
        pkru = self.pkrus[source_unit if source != APP else APP_THREAD]
        try:
            self.domains.check(pkru, victim_comp.heap, write=True)
        except ProtectionFault as fault:
            self.detector.record(source, "protection_fault", str(fault))
            self.sim.emit("fault", "wild_write_blocked", source=source,
                          victim=victim)
            self.reboot_component(source, reason="protection_fault")
            return
        # Same protection domain (merged components): the write lands.
        victim_comp.heap.mark_corrupted()
        self.sim.emit("fault", "wild_write_landed", source=source,
                      victim=victim)

    # --- accounting (Fig. 7b) ---------------------------------------------------------------------

    def log_space_bytes(self) -> int:
        return sum(log.space_bytes() for log in self.logs.values())

    def memory_overhead_bytes(self) -> int:
        """VampOS's extra memory: message domain + checkpoints + logs."""
        return (self.msg_domain.size_bytes
                + self.snapshots.total_bytes()
                + self.log_space_bytes())

    def total_memory_bytes(self) -> int:
        return self.image.total_memory_bytes() + self.memory_overhead_bytes()


def _is_scalar_key(value: Any) -> bool:
    return isinstance(value, (int, str)) and not isinstance(value, bool)


def build_vampos(spec: "Any", sim: Simulation,
                 config: VampConfig = DAS) -> VampOSKernel:
    """Convenience: link and boot an image under VampOS."""
    from ..unikernel.image import ImageBuilder

    image = ImageBuilder().build(spec, sim)
    kernel = VampOSKernel(image, config)
    kernel.boot()
    return kernel
