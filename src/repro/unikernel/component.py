"""The component model of the unikernel substrate.

Unikraft's defining property — the one VampOS exploits — is that the OS
layer is split into components with well-defined interfaces, selected at
link time.  A :class:`Component` here declares:

* its **interface**: methods decorated with :func:`export`, each tagged
  with whether it changes component state (state-neutral calls such as
  ``fstat()`` are skipped by VampOS's function-call log, §V-B) and
  whether it is a **canceling function** for session-aware log
  shrinking (§V-F);
* its **dependencies**: which other components it invokes — the edge
  set used both by the image linker and by dependency-aware scheduling
  (§V-C);
* its **statefulness**: stateless components reboot by plain
  reinitialisation; stateful ones need checkpoint + log replay;
* its **memory**: per-component text/data/bss/heap/stack regions with a
  real buddy allocator, matching Fig. 4.

Cross-component calls never touch another object directly — they go
through ``self.os.invoke(...)``, whose implementation is the pluggable
dispatcher (direct function calls in vanilla Unikraft, message passing
in VampOS).
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..memory.buddy import BuddyAllocator
from ..memory.region import Region, RegionKind, RegionSet
from ..sim.engine import Simulation
from .errors import Panic


class ComponentState(enum.Enum):
    CREATED = "created"
    BOOTED = "booted"
    REBOOTING = "rebooting"
    FAILED = "failed"
    SHUTDOWN = "shutdown"


@dataclass(frozen=True)
class ExportInfo:
    """Metadata attached to an exported interface function."""

    name: str
    state_changing: bool = True
    logged: bool = True
    canceling: bool = False
    #: extra virtual-us charged by this function's body on top of the
    #: cost model's generic ``function_body``
    body_cost: float = 0.0
    #: positional-argument index identifying the session key (fd, fid,
    #: socket id) this call belongs to, for session-aware log shrinking
    key_arg: Optional[int] = None
    #: the call's return value IS the session key (open() returns fd)
    key_from_result: bool = False
    #: this call opens a session for its key (open/create/socket); a
    #: repeat of the key prunes the previous open..close pair (§V-F)
    session_opener: bool = False
    #: the call allocates descriptor-like ids returned in its result;
    #: replay pins them via Component.set_forced_ids
    allocates_ids: bool = False
    #: the call's effect outlives its session (it writes data the
    #: component itself holds, e.g. RAMFS file contents) — canceling
    #: functions must NOT prune it; only a canceling call for the same
    #: key (e.g. remove) or forced-shrink compaction may
    durable: bool = False


def export(state_changing: bool = True, logged: Optional[bool] = None,
           canceling: bool = False, body_cost: float = 0.0,
           key_arg: Optional[int] = None, key_from_result: bool = False,
           session_opener: bool = False,
           allocates_ids: Optional[bool] = None,
           durable: bool = False) -> Callable:
    """Mark a method as part of the component's public interface.

    ``logged`` defaults to ``state_changing``: VampOS only logs calls
    whose replay is needed to rebuild state.  Canceling functions
    (``close()``-like) additionally trigger log shrinking.
    """
    if logged is None:
        logged = state_changing
    if allocates_ids is None:
        allocates_ids = key_from_result

    def decorator(func: Callable) -> Callable:
        func.__export_info__ = ExportInfo(
            name=func.__name__,
            state_changing=state_changing,
            logged=logged,
            canceling=canceling,
            body_cost=body_cost,
            key_arg=key_arg,
            key_from_result=key_from_result,
            session_opener=session_opener,
            allocates_ids=allocates_ids,
            durable=durable,
        )

        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            return func(*args, **kwargs)

        wrapper.__export_info__ = func.__export_info__  # type: ignore[attr-defined]
        return wrapper

    return decorator


class KernelAPI:
    """The handle a component uses to reach the rest of the image.

    Bound to the calling component's name so the dispatcher can
    attribute hops, schedule threads, and log calls with correct
    provenance.
    """

    def __init__(self, dispatcher: "DispatcherProtocol", caller: str) -> None:
        self._dispatcher = dispatcher
        self._caller = caller

    def invoke(self, target: str, func: str, *args: Any,
               **kwargs: Any) -> Any:
        return self._dispatcher.invoke(self._caller, target, func,
                                       args, kwargs)

    @property
    def caller(self) -> str:
        return self._caller


class DispatcherProtocol:
    """What a dispatcher must provide (duck-typed; this class documents)."""

    def invoke(self, caller: str, target: str, func: str,
               args: Tuple[Any, ...], kwargs: Dict[str, Any]) -> Any:
        raise NotImplementedError


@dataclass
class MemoryLayout:
    """Requested sizes for a component's regions (bytes)."""

    text: int = 64 * 1024
    data: int = 16 * 1024
    bss: int = 16 * 1024
    heap_order: int = 20  # 1 MiB buddy arena
    stack: int = 64 * 1024

    def heap_bytes(self) -> int:
        return 1 << self.heap_order


class Component:
    """Base class for every OS component in the substrate."""

    #: canonical component name (Table I), overridden by subclasses
    NAME: str = "component"
    #: components this one invokes (dependency-aware scheduling, §V-C)
    DEPENDENCIES: Tuple[str, ...] = ()
    #: stateful components need checkpoint + encapsulated restoration
    STATEFUL: bool = False
    #: components whose state is shared with the host cannot be rebooted
    REBOOTABLE: bool = True
    #: memory layout request; subclasses with big footprints override
    LAYOUT: MemoryLayout = MemoryLayout()
    #: components exempt from the hang detector because they legitimately
    #: wait on external events (LWIP waiting for connections, §V-A)
    HANG_EXEMPT: bool = False
    #: True when the component marks ``runtime_data_dirty`` on every
    #: mutation of its runtime data (§V-B): the runtime then skips the
    #: per-syscall re-export while the data is unchanged.  Components
    #: that export runtime data without opting in are re-exported every
    #: time, as before (correct by default).
    TRACKS_RUNTIME_DATA_DIRTY: bool = False

    def __init__(self, sim: Simulation) -> None:
        self.sim = sim
        self.state = ComponentState.CREATED
        self.os: Optional[KernelAPI] = None
        self.regions = RegionSet(self.NAME)
        layout = self.LAYOUT
        self.regions.add(Region(f"{self.NAME}.text", RegionKind.TEXT,
                                layout.text))
        # 9PFS famously has no data/bss image in the prototype (§VII-B),
        # making its snapshot the smallest; subclasses opt out via a
        # zero-size layout rather than special cases here.
        if layout.data:
            self.regions.add(Region(f"{self.NAME}.data", RegionKind.DATA,
                                    layout.data))
        if layout.bss:
            self.regions.add(Region(f"{self.NAME}.bss", RegionKind.BSS,
                                    layout.bss))
        heap = self.regions.add(Region(f"{self.NAME}.heap", RegionKind.HEAP,
                                       layout.heap_bytes()))
        self.regions.add(Region(f"{self.NAME}.stack", RegionKind.STACK,
                                layout.stack))
        self.allocator = BuddyAllocator(heap, layout.heap_order)
        #: failure flags the fault injector sets
        self.injected_panic: Optional[str] = None
        #: how many times the armed panic fires before clearing (a
        #: multi-hit transient: survives one reboot+retry, §II-B edge)
        self.injected_panic_count: int = 1
        #: a multi-hit panic (count > 1) is environmental, not memory
        #: corruption: a reboot wipes the image but the fault source
        #: persists, so the recovery path re-arms it after the replay
        self.injected_panic_sticky: bool = False
        self.injected_hang: bool = False
        #: functions that panic *every* time (deterministic bugs, §II-B)
        self.deterministic_faults: set = set()
        #: id hints consumed during log replay (see unikernel.idalloc)
        self._forced_ids: List[int] = []
        self._boot_count = 0
        #: per-instance (bound method, ExportInfo) dispatch cache
        self._export_cache: Dict[str, Tuple[Callable, ExportInfo]] = {}
        #: runtime data changed since the last save (see
        #: TRACKS_RUNTIME_DATA_DIRTY); starts dirty so the first save
        #: always exports
        self.runtime_data_dirty = True

    # --- lifecycle -----------------------------------------------------------

    def boot(self) -> None:
        """Initialise component state.  Subclasses override ``on_boot``."""
        self._boot_count += 1
        self.on_boot()
        self.state = ComponentState.BOOTED

    def shutdown(self) -> None:
        self.on_shutdown()
        self.state = ComponentState.SHUTDOWN

    def on_boot(self) -> None:  # pragma: no cover - trivial default
        """Subclass hook: build initial state (may invoke dependencies)."""

    def on_shutdown(self) -> None:  # pragma: no cover - trivial default
        """Subclass hook: release resources."""

    @property
    def boot_count(self) -> int:
        return self._boot_count

    # --- checkpointable state ---------------------------------------------------

    def export_state(self) -> Any:
        """Full state blob for checkpointing (deep-copied by the store).

        Bundles the heap allocator's bookkeeping with the component's
        own state so that a checkpoint restore rolls back leaks and
        fragmentation too — that is the rejuvenation effect (§V-E).
        Subclasses override :meth:`export_custom_state` instead.
        """
        return {
            "allocator": self.allocator.export_state(),
            "custom": self.export_custom_state(),
        }

    def import_state(self, blob: Any) -> None:
        """Install a previously exported state blob."""
        if blob is None:
            return
        self.allocator.import_state(blob["allocator"])
        self.import_custom_state(blob["custom"])

    def export_custom_state(self) -> Any:
        """Subclass hook: the component's own serializable state."""
        return None

    def import_custom_state(self, blob: Any) -> None:
        """Subclass hook: install state returned by export_custom_state."""

    # --- session-aware shrinking hooks (§V-F) -------------------------------------

    def entry_is_state_neutral(self, func: str, key: Any) -> bool:
        """Whether a *logged* call turned out to change no component
        state for this key (so shrinking can drop it immediately).

        The canonical case is VFS ``read``/``write`` on a *socket*
        descriptor: the interface is logged (Table II), but sockets
        keep no offset in VFS, so the entry is restoration-irrelevant —
        this is why Table III shows socket_read/write shrinking to 0.
        """
        return False

    # --- forced log shrinking (§V-F threshold path) ------------------------------

    def extract_key_state(self, key: Any) -> Any:
        """Current state for one session key (fd/fid/sock entry).

        Used by threshold-triggered forced shrinking: a long series of
        data operations on a key collapses into one synthetic log entry
        holding this patch.  ``None`` means the key has no live state.
        """
        return None

    def apply_key_state(self, key: Any, patch: Any) -> None:
        """Re-install a patch produced by :meth:`extract_key_state`
        during log replay."""

    # --- runtime data (§V-B, the LWIP seq/ACK optimisation) ---------------------

    def export_runtime_data(self) -> Any:
        """Data given at runtime by external parties that log replay
        cannot rebuild (e.g. TCP sequence/ACK numbers).  ``None`` means
        the component has no such data (most components)."""
        return None

    def import_runtime_data(self, blob: Any) -> None:
        """Re-install runtime data after encapsulated restoration."""

    def mark_runtime_data_dirty(self) -> None:
        """Flag that :meth:`export_runtime_data` would now return
        something new.  Dirty-tracking components (see
        TRACKS_RUNTIME_DATA_DIRTY) call this from every mutator so the
        runtime's continuous save touches only changed components."""
        self.runtime_data_dirty = True

    # --- memory helpers ------------------------------------------------------------

    @property
    def heap(self) -> Region:
        return self.regions.get(f"{self.NAME}.heap")

    def alloc(self, nbytes: int) -> int:
        """Allocate from the component's own heap.

        Exhaustion panics the component — the aging-induced crash of
        §II ("proactive restarts ... prevent crashes and hangs caused
        by software aging"): in a kernel component a failed allocation
        is a NULL dereference waiting to happen.
        """
        from ..memory.buddy import OutOfMemory

        try:
            return self.allocator.alloc(nbytes)
        except OutOfMemory as exc:
            self.state = ComponentState.FAILED
            raise Panic(self.NAME,
                        f"out of memory in {self.NAME} "
                        f"(aging: {self.allocator.leaked_bytes()}B "
                        f"leaked): {exc}") from exc

    def free(self, offset: int) -> None:
        self.allocator.free(offset)

    def memory_footprint(self) -> int:
        return self.regions.total_bytes()

    # --- forced-id replay support ------------------------------------------------------

    def set_forced_ids(self, ids: List[int]) -> None:
        """Pin the ids the next allocations must return (log replay).

        Replay must reproduce the exact fd/fid/socket ids of the
        original execution even after session-aware shrinking pruned
        open/close pairs that influenced lowest-free allocation; since
        the log records each call's return value, replay pins them.
        """
        self._forced_ids = list(ids)

    def take_forced_id(self) -> Optional[int]:
        if self._forced_ids:
            return self._forced_ids.pop(0)
        return None

    # --- fault hooks -----------------------------------------------------------------

    def check_injected_faults(self, func: str = "") -> None:
        """Called by dispatchers before executing an interface function."""
        if func and func in self.deterministic_faults:
            self.state = ComponentState.FAILED
            raise Panic(self.NAME,
                        f"deterministic bug in {self.NAME}.{func}()")
        if self.injected_panic is not None:
            reason = self.injected_panic
            self.injected_panic_count -= 1
            if self.injected_panic_count <= 0:
                self.injected_panic = None
                self.injected_panic_count = 1
                self.injected_panic_sticky = False
            self.state = ComponentState.FAILED
            raise Panic(self.NAME, f"panic() in {self.NAME}: {reason}")

    # --- interface reflection -------------------------------------------------------

    @classmethod
    def interface(cls) -> Dict[str, ExportInfo]:
        """All exported functions of this component type.

        Memoized per class (``cls.__dict__``, so subclasses build their
        own): component classes are immutable after definition, which
        makes the `dir()` reflection walk a one-time cost instead of a
        per-dispatch one.
        """
        cached = cls.__dict__.get("_interface_cache")
        if cached is not None:
            return cached
        exported: Dict[str, ExportInfo] = {}
        for name in dir(cls):
            if name.startswith("_"):
                continue
            attr = getattr(cls, name, None)
            info = getattr(attr, "__export_info__", None)
            if info is not None:
                exported[info.name] = info
        cls._interface_cache = exported
        return exported

    def resolve_export(self, func: str) -> Tuple[Callable, ExportInfo]:
        """The pre-resolved dispatch target: (bound method, ExportInfo).

        Cached per instance, so the dispatcher's per-call work is one
        dict hit instead of an interface rebuild plus ``getattr``.
        Raises AttributeError for non-exported names.
        """
        hit = self._export_cache.get(func)
        if hit is not None:
            return hit
        info = self.interface().get(func)
        if info is None:
            raise AttributeError(
                f"{self.NAME} exports no function {func!r}")
        method = getattr(self, func)
        # Skip the @export forwarding wrapper on the hot path: bind the
        # wrapped function directly (behaviour-identical — the wrapper
        # only forwards *args/**kwargs).
        inner = getattr(method, "__wrapped__", None)
        if inner is not None:
            method = inner.__get__(self, type(self))
        hit = (method, info)
        self._export_cache[func] = hit
        return hit

    def call_interface(self, func: str, args: Tuple[Any, ...],
                       kwargs: Dict[str, Any]) -> Any:
        """Execute one exported function (used by dispatchers).

        Charges the generic body cost plus the function's own extra
        cost; fault checks happen first so injected panics surface at
        the call boundary like a real crash would.
        """
        method, info = self.resolve_export(func)
        self.check_injected_faults(func)
        self.sim.charge("function_body",
                        self.sim.costs.function_body + info.body_cost)
        return method(*args, **kwargs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.NAME} {self.state.value}>"
