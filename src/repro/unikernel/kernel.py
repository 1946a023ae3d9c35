"""The vanilla kernel: direct-dispatch Unikraft baseline.

This is the "Unikraft" bar in every figure of the paper: components are
plain linked libraries, cross-component calls are direct function calls
(cheap), there is no isolation between components (a wild write lands),
and any component fault kills the whole image — recovery is a full
reboot that loses all application state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..sim.engine import Simulation
from .component import Component, KernelAPI
from .errors import (
    ApplicationHang,
    ComponentFailure,
    KernelPanic,
    UnikernelError,
)
from .image import APP, ImageBuilder, ImageSpec, UnikernelImage


class SyscallRecord:
    """Measured facts about one top-level syscall (Fig. 5 raw data).

    Slotted hot-path class: one is built per top-level syscall.
    """

    __slots__ = ("name", "start_us", "end_us", "transitions",
                 "log_entries")

    def __init__(self, name: str, start_us: float, end_us: float = 0.0,
                 transitions: int = 0, log_entries: int = 0) -> None:
        self.name = name
        self.start_us = start_us
        self.end_us = end_us
        self.transitions = transitions
        self.log_entries = log_entries

    @property
    def duration_us(self) -> float:
        return self.end_us - self.start_us

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"SyscallRecord(name={self.name!r}, "
                f"start_us={self.start_us!r}, end_us={self.end_us!r}, "
                f"transitions={self.transitions!r}, "
                f"log_entries={self.log_entries!r})")


class SyscallMeter:
    """Counts component transitions and time per top-level syscall.

    A *transition* is one crossing of a component boundary; a call and
    its return are two transitions, matching how the paper counts
    (getpid=4: APP→PROCESS→APP is one call from the libc shim plus one
    internal hop).
    """

    def __init__(self, sim: Simulation) -> None:
        self._sim = sim
        self._active: Optional[SyscallRecord] = None
        self.records: List[SyscallRecord] = []

    def begin(self, name: str) -> None:
        self._active = SyscallRecord(name=name,
                                     start_us=self._sim.clock.now_us)

    def end(self) -> Optional[SyscallRecord]:
        if self._active is None:
            return None
        self._active.end_us = self._sim.clock.now_us
        self.records.append(self._active)
        record, self._active = self._active, None
        return record

    def note_transition(self, count: int = 1) -> None:
        if self._active is not None:
            self._active.transitions += count

    def note_log_entries(self, count: int = 1) -> None:
        if self._active is not None:
            self._active.log_entries += count

    @property
    def in_syscall(self) -> bool:
        return self._active is not None

    def by_name(self, name: str) -> List[SyscallRecord]:
        return [r for r in self.records if r.name == name]

    def clear(self) -> None:
        self.records.clear()
        self._active = None


class Kernel:
    """Shared machinery of both kernels (vanilla and VampOS)."""

    MODE = "base"

    def __init__(self, image: UnikernelImage) -> None:
        self.image = image
        self.sim: Simulation = image.sim
        self.meter = SyscallMeter(self.sim)
        self.booted = False
        self.crashed = False
        self._full_reboots = 0
        #: callbacks the application layer registers to be told when the
        #: whole image restarts (so it can drop its own state)
        self._full_reboot_listeners: List[Callable[[], None]] = []

    # --- component access ---------------------------------------------------

    def component(self, name: str) -> Component:
        return self.image.component(name)

    # --- lifecycle -------------------------------------------------------------

    def boot(self) -> None:
        if self.booted:
            raise UnikernelError("kernel already booted")
        for name in self.image.boot_order:
            comp = self.image.component(name)
            comp.os = KernelAPI(self._dispatcher(), name)
            comp.boot()
        self.booted = True
        self.crashed = False
        self.sim.emit("kernel", "boot", mode=self.MODE,
                      app=self.image.app_name)
        self._post_boot()

    def _post_boot(self) -> None:
        """Hook for subclasses (VampOS takes checkpoints here)."""

    def _dispatcher(self) -> Any:
        raise NotImplementedError

    def on_full_reboot(self, callback: Callable[[], None]) -> None:
        self._full_reboot_listeners.append(callback)

    @property
    def full_reboots(self) -> int:
        return self._full_reboots

    # --- the syscall surface ------------------------------------------------------

    def syscall(self, target: str, func: str, *args: Any,
                **kwargs: Any) -> Any:
        """A top-level entry from the application layer.

        Wraps the dispatch in the syscall meter; nested cross-component
        calls triggered inside accumulate into the same record.
        """
        if self.crashed:
            raise KernelPanic(component="", cause=None)
        meter = self.meter
        nested = meter._active is not None
        if not nested:  # inlined meter.begin(func)
            meter._active = SyscallRecord(
                name=func, start_us=self.sim.clock._now_us)
        obs = self.sim.obs
        span = None
        if obs is not None and not nested:
            # One root span per top-level request; everything the call
            # triggers (dispatches, reboots, replays, ladder rungs)
            # nests under it in the recovery tree.
            span = obs.open_span("request", func, target=target)
            obs.inc("request.count")
        try:
            return self._dispatcher().invoke(APP, target, func, args, kwargs)
        finally:
            if obs is not None and not nested:
                start_us = span.start_us if span is not None \
                    else self.sim.clock.now_us
                obs.close_span(span)
                obs.observe("request.latency_us",
                            self.sim.clock.now_us - start_us)
            if not nested:  # inlined meter.end()
                record = meter._active
                if record is not None:
                    record.end_us = self.sim.clock._now_us
                    meter.records.append(record)
                    meter._active = None

    # --- fault surface --------------------------------------------------------------

    def attempt_wild_write(self, source: str, victim: str) -> None:
        """A buggy component writes into another component's memory.

        Vanilla: the write lands and corrupts the victim (the error
        propagation VampOS's protection domains prevent).  Overridden by
        the VampOS runtime to raise a :class:`ProtectionFault` instead.
        """
        victim_comp = self.component(victim)
        victim_comp.heap.mark_corrupted()
        self.sim.emit("fault", "wild_write_landed", source=source,
                      victim=victim)


class DirectDispatcher:
    """Vanilla dispatch: a cross-component call is a function call."""

    def __init__(self, kernel: "UnikraftKernel") -> None:
        self.kernel = kernel
        self.sim = kernel.sim

    def invoke(self, caller: str, target: str, func: str,
               args: Tuple[Any, ...], kwargs: Dict[str, Any]) -> Any:
        sim = self.sim
        kernel = self.kernel
        comp = kernel.component(target)
        kernel.meter.note_transition(2)  # call + return
        sim.charge("function_call", sim.costs.function_call)
        if comp.injected_hang:
            # No detector in vanilla Unikraft: the whole app stalls.
            kernel.crashed = True
            sim.emit("fault", "hang", component=target, mode="unikraft")
            raise ApplicationHang(target)
        try:
            return comp.call_interface(func, args, kwargs)
        except ComponentFailure as failure:
            # Any component fault crashes the whole image.
            kernel.crashed = True
            sim.emit("fault", "kernel_panic", component=failure.component,
                     mode="unikraft")
            raise KernelPanic(cause=failure,
                              component=failure.component) from failure


class UnikraftKernel(Kernel):
    """The full-reboot baseline."""

    MODE = "unikraft"

    def __init__(self, image: UnikernelImage,
                 builder: Optional[ImageBuilder] = None) -> None:
        super().__init__(image)
        self._direct = DirectDispatcher(self)
        self._builder = builder if builder is not None else ImageBuilder()

    def _dispatcher(self) -> DirectDispatcher:
        return self._direct

    def full_reboot(self) -> float:
        """Restart the whole unikernel-linked application.

        Every component is rebuilt from the image spec and booted from
        scratch; the application layer is told to drop its state (its
        in-memory data is gone).  Returns the downtime in virtual us.
        The per-byte term models re-reading durable state (e.g. Redis
        AOF replay), charged against the image's total footprint.
        """
        start = self.sim.clock.now_us
        app_bytes = self.image.total_memory_bytes()
        self.sim.emit("reboot", "full_start", app=self.image.app_name,
                      mode=self.MODE)
        self.sim.charge("full_reboot", self.sim.costs.full_reboot_fixed)
        # Rebuild the image: new component instances, fresh state.
        fresh = self._builder.build(self.image.spec, self.sim)
        self.image = fresh
        self.booted = False
        self.crashed = False
        self.meter = SyscallMeter(self.sim)
        self.boot()
        for listener in self._full_reboot_listeners:
            listener()
        self.sim.charge(
            "full_reboot_restore",
            app_bytes * self.sim.costs.full_reboot_restore_per_byte)
        downtime = self.sim.clock.now_us - start
        self._full_reboots += 1
        self.sim.emit("reboot", "full_done", app=self.image.app_name,
                      downtime_us=downtime)
        return downtime


def build_unikraft(spec: ImageSpec, sim: Simulation,
                   builder: Optional[ImageBuilder] = None) -> UnikraftKernel:
    """Convenience: link and boot a vanilla Unikraft image."""
    builder = builder if builder is not None else ImageBuilder()
    image = builder.build(spec, sim)
    kernel = UnikraftKernel(image, builder)
    kernel.boot()
    return kernel
