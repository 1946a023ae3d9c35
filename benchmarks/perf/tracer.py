"""Layer map and host-time tracer for the benchmark's ``--trace 1`` run.

Every module of ``src/repro`` belongs to exactly one layer
(:data:`LAYER_OF_MODULE`).  The tracer wraps a fixed set of each
layer's public functions (:data:`WRAP_TARGETS`) from the benchmark's
own files — nothing under ``src/`` is edited — and keeps a span stack:
a layer's *self time* is the time its spans were open minus the time
their child spans (of any layer) were open.  Whatever runs outside every
span (the benchmark's own loop) is reported as ``other``.

Work that a wrapped function does inline is charged to it.  In
particular the compiled crossing tapes of the dispatch fast lane do the
message-domain bookkeeping (``MessageDomain.begin_crossing`` /
``end_crossing``) inside ``VampDispatcher.invoke``, so on the DaS fast
lane that time lands in ``core.runtime``, not ``core.messages``.

Install the wrappers *before* building the app under test: components
cache bound export methods on first dispatch, and a cache filled before
installation would bypass the wrappers.
"""

from __future__ import annotations

import gc
import importlib
import inspect
import pkgutil
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: module or package -> layer.  A module takes the layer of its longest
#: matching key (``repro.core.shrink`` before ``repro.core``); the bare
#: ``repro`` key covers only the package root, so a new top-level
#: package stays unmapped until it is listed here.
LAYER_OF_MODULE: Dict[str, str] = {
    "repro": "experiments",
    "repro.__main__": "experiments",
    "repro.cli": "experiments",
    "repro.experiments": "experiments",
    "repro.crucible": "crucible",
    "repro.apps": "apps",
    "repro.workloads": "apps",
    # runtime, config, detector and the package root: dispatch
    "repro.core": "core.runtime",
    "repro.fastpath": "core.runtime",
    "repro.core.calllog": "core.calllog",
    "repro.core.shrink": "core.shrink",
    "repro.core.messages": "core.messages",
    "repro.core.scheduler": "core.messages",
    "repro.core.restore": "core.restore",
    "repro.core.policy": "recovery",
    "repro.recovery": "recovery",
    "repro.rejuvenation": "recovery",
    "repro.faults": "recovery",
    "repro.components": "components",
    "repro.net": "net",
    "repro.unikernel": "unikernel",
    "repro.memory": "memory.snapshot",
    "repro.supervisor": "supervisor",
    "repro.sim": "sim",
    "repro.obs": "obs",
    "repro.metrics": "obs",
    "repro.fleet": "fleet",
    "repro.parallel": "parallel",
}

#: reporting order
LAYERS: Tuple[str, ...] = (
    "apps", "core.runtime", "core.calllog", "core.shrink",
    "core.messages", "core.restore", "components", "net", "unikernel",
    "memory.snapshot", "recovery", "supervisor", "sim", "obs", "fleet",
    "parallel", "crucible", "experiments",
)

#: ``module:Qual.name`` wraps one function or method; ``module:*`` wraps
#: every public function defined in that module; ``module:@export``
#: wraps the exported interface of every component class defined there.
WRAP_TARGETS: Tuple[str, ...] = (
    # apps: the libc shim the benchmark's clients call
    "repro.apps.libc:Libc.*",
    "repro.apps.base:ServerApp.poll",
    # core.runtime
    "repro.core.runtime:VampOSKernel.syscall",
    "repro.core.runtime:VampDispatcher.invoke",
    "repro.core.runtime:VampOSKernel.heartbeat",
    "repro.core.runtime:VampOSKernel.reboot_component",
    "repro.core.runtime:VampOSKernel.reboot_components",
    # core.calllog / core.shrink
    "repro.core.calllog:ComponentCallLog.append",
    "repro.core.calllog:ComponentCallLog.record_retval",
    "repro.core.calllog:ComponentCallLog.entries_for_key",
    "repro.core.calllog:ComponentCallLog.remove_entries",
    "repro.core.shrink:LogShrinker.on_entry_complete",
    "repro.core.shrink:LogShrinker.force_shrink",
    # core.messages: message domain + thread scheduler
    "repro.core.messages:MessageDomain.begin_crossing",
    "repro.core.messages:MessageDomain.end_crossing",
    "repro.core.messages:MessageDomain.vo_push_msgs",
    "repro.core.messages:MessageDomain.vo_pull_msgs",
    "repro.core.scheduler:BaseScheduler.dispatch",
    "repro.core.scheduler:BaseScheduler.complete",
    # core.restore
    "repro.core.restore:EncapsulatedRestorer.replay",
    # components: every exported interface function
    "repro.components.lwip:@export",
    "repro.components.netdev:@export",
    "repro.components.ninep:@export",
    "repro.components.process:@export",
    "repro.components.ramfs:@export",
    "repro.components.sysinfo:@export",
    "repro.components.timer:@export",
    "repro.components.user:@export",
    "repro.components.vfs:@export",
    "repro.components.virtio:@export",
    # net: the host side of sockets and the 9P share
    "repro.net.tcp:ClientSocket.send",
    "repro.net.tcp:ClientSocket.recv",
    "repro.net.tcp:HostNetwork.connect",
    "repro.net.tcp:HostNetwork.accept",
    "repro.net.tcp:HostNetwork.server_send",
    "repro.net.tcp:HostNetwork.server_recv",
    "repro.net.hostshare:HostShare.read",
    "repro.net.hostshare:HostShare.write",
    # unikernel: vanilla dispatch and the cross-component call handle
    "repro.unikernel.kernel:Kernel.syscall",
    "repro.unikernel.kernel:Kernel.boot",
    "repro.unikernel.kernel:DirectDispatcher.invoke",
    "repro.unikernel.component:KernelAPI.invoke",
    "repro.unikernel.component:Component.call_interface",
    "repro.unikernel.image:ImageBuilder.build",
    # memory.snapshot
    "repro.memory.snapshot:SnapshotStore.take",
    "repro.memory.snapshot:SnapshotStore.restore",
    # recovery: planner, plan executor, fault injection
    "repro.recovery:plan_for_kernel",
    "repro.recovery:execute_plan",
    "repro.faults.injector:FaultInjector.inject_panic",
    "repro.faults.injector:FaultInjector.inject_corruption",
    # supervisor
    "repro.supervisor.supervisor:RecoverySupervisor.handle_failure",
    "repro.supervisor.supervisor:RecoverySupervisor.tick",
    # sim
    "repro.sim.engine:Simulation.charge",
    "repro.sim.engine:Simulation.emit",
    "repro.sim.clock:VirtualClock.advance",
    # obs: metrics substrate + flight recorder hot path
    "repro.obs.metrics:Histogram.observe",
    "repro.obs.metrics:MetricsRegistry.inc",
    "repro.obs.metrics:MetricsRegistry.set_gauge",
    "repro.obs.metrics:MetricsRegistry.observe",
    "repro.obs.metrics:MetricsRegistry.merge_from",
    "repro.obs.recorder:FlightRecorder.open_span",
    "repro.obs.recorder:FlightRecorder.close_span",
    "repro.obs.recorder:FlightRecorder.on_charge",
    "repro.obs.recorder:FlightRecorder.on_crossing",
    # fleet
    "repro.fleet.router:HealthRouter.route",
    "repro.fleet.router:HealthRouter.observe",
    "repro.fleet.admission:TokenBucket.take",
    "repro.fleet.instance:FleetInstance.advance",
    "repro.fleet.instance:FleetInstance.probe",
    "repro.fleet.campaign:fleet_cell",
    "repro.fleet:run",
    # parallel
    "repro.parallel:parallel_map",
    # crucible
    "repro.crucible.explorer:*",
    "repro.crucible.runner:run_scenario",
    "repro.crucible.oracles:evaluate_oracles",
    "repro.crucible.shrinker:shrink_events",
    # experiments: the CLI entry and every experiment's functions
    "repro.cli:main",
    "repro.experiments.ablations:*",
    "repro.experiments.app_overhead:*",
    "repro.experiments.chaos_soak:*",
    "repro.experiments.endurance:*",
    "repro.experiments.failure_recovery:*",
    "repro.experiments.fault_campaign:*",
    "repro.experiments.log_space:*",
    "repro.experiments.reboot_time:*",
    "repro.experiments.rejuvenation:*",
    "repro.experiments.scalability:*",
    "repro.experiments.shrink_threshold:*",
    "repro.experiments.syscall_overhead:*",
)


def layer_of(module: str) -> Optional[str]:
    """The layer of a dotted module name, or None when unmapped."""
    return LAYER_OF_MODULE.get(layer_key(module) or "")


def layer_key(module: str) -> Optional[str]:
    """The :data:`LAYER_OF_MODULE` key that decides ``module``'s layer."""
    parts = module.split(".")
    for cut in range(len(parts), 1, -1):
        key = ".".join(parts[:cut])
        if key in LAYER_OF_MODULE:
            return key
    return module if module == "repro" else None


def _import_all() -> None:
    import repro
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name != "repro.__main__":
            importlib.import_module(info.name)


# --- per-target counters for the layer ratios -------------------------------

#: target -> (counter name, value taken from the call's args/result)
_HOOKS: Dict[str, Tuple[str, Callable[[tuple, Any], float]]] = {
    "repro.core.calllog:ComponentCallLog.append":
        ("calllog.appends", lambda args, result: 1),
    "repro.core.calllog:ComponentCallLog.remove_entries":
        ("calllog.removed", lambda args, result: result or 0),
    "repro.memory.snapshot:SnapshotStore.restore":
        ("snapshot.restore_bytes", lambda args, result: args[1].snapshot_bytes),
    "repro.core.restore:EncapsulatedRestorer.replay":
        ("replay.entries", lambda args, result:
            result.entries_replayed + result.synthetic_applied),
    "repro.recovery:plan_for_kernel":
        ("planner.tracks", lambda args, result: result.track_count),
    "repro.fleet.instance:FleetInstance.probe":
        ("fleet.probes", lambda args, result: 1),
    "repro.fleet.campaign:fleet_cell":
        ("fleet.offered", lambda args, result: result.offered),
}


class LayerTracer:
    """Wraps :data:`WRAP_TARGETS` and accumulates per-layer self time.

    Use as a context manager; leaving it restores every patched name to
    the original object.  ``clock`` returns nanoseconds: the wall clock
    by default, or a :class:`speed.SpeedProbe`'s reference-speed clock.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter_ns
                 ) -> None:
        self.clock = clock
        self.self_ns: Dict[str, float] = {layer: 0 for layer in LAYERS}
        self.calls: Dict[str, int] = {layer: 0 for layer in LAYERS}
        #: hook counter -> [total, hooked calls]
        self.counters: Dict[str, List[float]] = {}
        #: targets that do not exist in the traced source tree
        self.missing: List[str] = []
        self._stack: List[float] = []
        #: (owner, attribute name, original object) for every patch
        self._patches: List[Tuple[Any, str, Any]] = []

    # --- installation ---------------------------------------------------------

    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.uninstall()

    def install(self) -> None:
        _import_all()
        wrapped: Dict[int, Callable] = {}
        for target in WRAP_TARGETS:
            module_name, _, qual = target.partition(":")
            module = sys.modules.get(module_name)
            if module is None:
                self.missing.append(target)
                continue
            found = self._resolve(module, qual)
            if not found:
                self.missing.append(target)
            for owner, name, func in found:
                layer = layer_of(func.__module__)
                if layer is None or inspect.isgeneratorfunction(func):
                    continue
                traced = wrapped.get(id(func))
                if traced is None:
                    traced = self._wrap(func, layer, _HOOKS.get(target))
                    wrapped[id(func)] = traced
                if owner is None:
                    self._patch_everywhere(func, traced)
                else:
                    self._patches.append((owner, name, owner.__dict__[name]))
                    setattr(owner, name, traced)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[name] = original
            else:
                setattr(owner, name, original)
        self._patches.clear()

    @staticmethod
    def _resolve(module: Any, qual: str) -> List[Tuple[Any, str, Callable]]:
        """(class or None, attribute, function) triples for one target."""
        if qual == "*":
            return [(None, name, obj) for name, obj in vars(module).items()
                    if not name.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__]
        if qual == "@export":
            out = []
            for cls in vars(module).values():
                if not inspect.isclass(cls) \
                        or cls.__module__ != module.__name__:
                    continue
                for name, obj in vars(cls).items():
                    if hasattr(obj, "__export_info__") \
                            and inspect.isfunction(obj):
                        out.append((cls, name, obj))
            return out
        owner_name, _, attr = qual.rpartition(".")
        if not owner_name:
            obj = getattr(module, attr, None)
            return [(None, attr, obj)] if inspect.isfunction(obj) else []
        cls = getattr(module, owner_name, None)
        if cls is None:
            return []
        if attr == "*":
            return [(cls, name, obj) for name, obj in vars(cls).items()
                    if not name.startswith("_") and inspect.isfunction(obj)]
        obj = vars(cls).get(attr)
        return [(cls, attr, obj)] if inspect.isfunction(obj) else []

    def _patch_everywhere(self, func: Callable, traced: Callable) -> None:
        """Rebind a module-level function in every ``repro`` namespace
        that imported it by name."""
        for name, module in list(sys.modules.items()):
            if not (name == "repro" or name.startswith("repro.")):
                continue
            namespace = vars(module)
            for attr, value in list(namespace.items()):
                if value is func:
                    self._patches.append((namespace, attr, func))
                    namespace[attr] = traced

    def _wrap(self, func: Callable, layer: str,
              hook: Optional[Tuple[str, Callable]]) -> Callable:
        clock = self.clock
        stack = self._stack
        self_ns = self.self_ns
        calls = self.calls
        counters = self.counters

        def traced(*args: Any, **kwargs: Any) -> Any:
            stack.append(0)
            t0 = clock()
            result = None
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                elapsed = clock() - t0
                self_ns[layer] += elapsed - stack.pop()
                calls[layer] += 1
                if stack:
                    stack[-1] += elapsed
                if hook is not None and result is not None:
                    name, value = hook
                    counter = counters.setdefault(name, [0, 0])
                    counter[0] += value(args, result)
                    counter[1] += 1

        # Carry the component-export marker so interface reflection still
        # sees the function; no __wrapped__, so the export cache binds
        # this wrapper instead of unwrapping past it.
        export_info = getattr(func, "__export_info__", None)
        if export_info is not None:
            traced.__export_info__ = export_info  # type: ignore[attr-defined]
        traced.__name__ = func.__name__
        traced.__qualname__ = func.__qualname__
        traced.__doc__ = func.__doc__
        return traced

    # --- results -------------------------------------------------------------

    def reset(self) -> None:
        """Zero every counter (after a warm-up)."""
        for layer in LAYERS:
            self.self_ns[layer] = 0
            self.calls[layer] = 0
        self.counters.clear()

    def absorb(self, other: "LayerTracer") -> None:
        """Add another tracer's counts to this one's."""
        for layer in LAYERS:
            self.self_ns[layer] += other.self_ns[layer]
            self.calls[layer] += other.calls[layer]
        for key, (total, calls) in other.counters.items():
            counter = self.counters.setdefault(key, [0, 0])
            counter[0] += total
            counter[1] += calls

    def total(self, name: str) -> float:
        return self.counters.get(name, [0, 0])[0]

    def ratio(self, name: str) -> float:
        """Mean hook value per hooked call (0 when never called)."""
        total, calls = self.counters.get(name, [0, 0])
        return total / calls if calls else 0.0

    def layer_metrics(self, wall_s: float) -> Dict[str, float]:
        out: Dict[str, float] = {}
        attributed = 0.0
        for layer in LAYERS:
            seconds = self.self_ns[layer] / 1e9
            attributed += seconds
            out[f"{layer}.self_s"] = seconds
            out[f"{layer}.calls"] = self.calls[layer]
        out["other.self_s"] = max(wall_s - attributed, 0.0)
        appends = self.total("calllog.appends")
        out["shrink.pruned_per_append"] = (
            self.total("calllog.removed") / appends if appends else 0.0)
        out["snapshot.bytes_per_restore"] = self.ratio(
            "snapshot.restore_bytes")
        out["replay.entries_per_recovery"] = self.ratio("replay.entries")
        out["planner.tracks_per_plan"] = self.ratio("planner.tracks")
        offered = self.total("fleet.offered")
        out["fleet.executed_frac"] = (
            self.total("fleet.probes") / offered if offered else 0.0)
        return out


_UNITS = {
    "other.self_s": "s",
    "trace.overhead_frac": "ratio",
    "parallel.efficiency": "ratio",
    "shrink.pruned_per_append": "ratio",
    "snapshot.bytes_per_restore": "bytes",
    "replay.entries_per_recovery": "count",
    "planner.tracks_per_plan": "count",
    "fleet.executed_frac": "ratio",
    "calllog.live_ratio": "ratio",
    "calllog.space_bytes": "bytes",
    "trace.events_retained": "count",
}


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric name."""
    if metric.endswith(".self_s"):
        return "s"
    if metric.endswith(".calls"):
        return "count"
    return _UNITS[metric]


def heap_metrics() -> Dict[str, float]:
    """Retention gauges read off the live heap: call-log liveness and
    size, and trace events still held."""
    from repro.core.calllog import ComponentCallLog
    from repro.sim.trace import Trace

    live = indexed = space = events = 0
    for obj in gc.get_objects():
        cls = type(obj)
        if cls is ComponentCallLog:
            space += obj.space_bytes()
            for key, bucket in getattr(obj, "_by_key", {}).items():
                indexed += len(bucket)
                live += sum(1 for e in bucket if e.alive and e.key == key)
        elif cls is Trace:
            events += len(obj)
    return {
        "calllog.live_ratio": live / indexed if indexed else 1.0,
        "calllog.space_bytes": space,
        "trace.events_retained": events,
    }
