"""Software-aging model (§II, §IV).

Aging-related bugs — memory leaks and fragmentation from "numerous
resource allocations/releases for long time execution" — are the reason
rejuvenation exists.  The motivating Unikraft bug is a leak in
``ukallocbuddy``; this module drives a component's real buddy allocator
the same way:

* **leaks** — a fraction of allocations is never freed;
* **fragmentation** — alternating sizes and out-of-order frees shatter
  the free space;
* eventually allocation fails (:class:`OutOfMemory`) — the aging crash
  rejuvenation is meant to prevent.

A checkpoint restore (VampOS's component reboot) resets the allocator
to its post-boot image, clearing both phenomena; the aging ablation
benchmark measures exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..memory.buddy import BuddyAllocator, InvalidFree, OutOfMemory
from ..sim.engine import Simulation
from ..unikernel.component import Component


def leak_snapshot(image) -> Dict[str, int]:
    """Current allocator-side leak bytes per stateful component.

    Reads the live buddy allocators only (no model required, no
    charges, no RNG) — the health timeline samples this from the
    heartbeat.  A checkpoint restore resets an allocator to its
    post-boot image, so the curve visibly drops at every recovery.
    """
    return {name: image.component(name).allocator.leaked_bytes()
            for name in image.stateful_components()}


@dataclass
class AgingReport:
    """Allocator health at one observation point."""

    t_us: float
    used_bytes: int
    leaked_bytes: int
    free_bytes: int
    fragmentation: float
    largest_free_block: int
    failed_allocations: int
    #: cumulative bytes ever leaked by the model, surviving component
    #: reboots (``leaked_bytes`` above reads the *allocator*, which a
    #: checkpoint restore resets to its post-boot image — without this
    #: lifetime figure, aging became invisible after every reboot)
    lifetime_leaked_bytes: int = 0


class AgingModel:
    """Drives leak/fragmentation load into one component's allocator."""

    def __init__(self, sim: Simulation, component: Component,
                 leak_probability: float = 0.05,
                 min_alloc: int = 32, max_alloc: int = 4096,
                 rng_stream: str = "aging") -> None:
        if not 0.0 <= leak_probability <= 1.0:
            raise ValueError("leak_probability must be in [0, 1]")
        self.sim = sim
        self.component = component
        self.allocator: BuddyAllocator = component.allocator
        self.leak_probability = leak_probability
        self.min_alloc = min_alloc
        self.max_alloc = max_alloc
        self._rng = sim.rng.stream(f"{rng_stream}:{component.NAME}")
        self._live: List[int] = []
        self.reports: List[AgingReport] = []
        # Lifetime accounting, kept by the *model* rather than the
        # allocator: a component reboot resets the allocator to its
        # post-boot image, so allocator-side leak figures vanish on
        # every recovery and long-run aging was unobservable.
        self.lifetime_leaked_bytes = 0
        self.lifetime_leaks = 0
        #: live blocks dropped by :meth:`forget_live` (reboots)
        self.forgotten_live_blocks = 0

    def step(self, operations: int = 1) -> int:
        """Run ``operations`` allocate/free cycles; returns how many
        allocations failed (aging-induced)."""
        failures = 0
        for _ in range(operations):
            size = self._rng.randint(self.min_alloc, self.max_alloc)
            try:
                offset = self.allocator.alloc(size)
            except OutOfMemory:
                failures += 1
                self._free_one()
                continue
            if self._rng.random() < self.leak_probability:
                self.allocator.leak(offset)
                self.lifetime_leaked_bytes += size
                self.lifetime_leaks += 1
            else:
                self._live.append(offset)
            # Free out of order to build fragmentation.
            if len(self._live) > 24:
                self._free_one()
        return failures

    def _free_one(self) -> None:
        if not self._live:
            return
        idx = self._rng.randrange(len(self._live))
        offset = self._live.pop(idx)
        try:
            self.allocator.free(offset)
        except InvalidFree:
            # The component was rebooted underneath the model (its
            # allocator reset); the stale offset is simply forgotten.
            pass

    def run_until_exhaustion(self, max_operations: int = 1_000_000) -> int:
        """Operations until the first allocation failure (or the cap)."""
        for done in range(max_operations):
            if self.step(1):
                return done + 1
        return max_operations

    def observe(self) -> AgingReport:
        report = AgingReport(
            t_us=self.sim.clock.now_us,
            used_bytes=self.allocator.used_bytes(),
            leaked_bytes=self.allocator.leaked_bytes(),
            free_bytes=self.allocator.free_bytes(),
            fragmentation=self.allocator.fragmentation(),
            largest_free_block=self.allocator.largest_free_block(),
            failed_allocations=self.allocator.stats.failed_allocations,
            lifetime_leaked_bytes=self.lifetime_leaked_bytes,
        )
        self.reports.append(report)
        return report

    def forget_live(self) -> None:
        """Drop references to live blocks (after a component reboot has
        reset the allocator, the old offsets are meaningless).

        Audit note: this only forgets *component-held* references — a
        reboot heals exactly that scope.  Damage held by the kernel on
        the component's behalf (orphaned message-domain slots, stale
        crossing-plan entries) survives every component reboot and is
        tracked by :class:`~repro.rejuvenation.RootWear` /
        :class:`RootAgingModel` instead; only a root reboot clears it.
        The lifetime counters here stay, so aging remains observable
        across reboots.
        """
        self.forgotten_live_blocks += len(self._live)
        self._live.clear()


class RootAgingModel:
    """Leaks *kernel-side* bookkeeping — the damage no component reboot
    can heal (§IV's aging argument, applied to the root itself):

    * **orphaned message slots** — in-flight arena buffers whose owner
      bookkeeping was lost; addressed to ``"ROOT"``, so ``drop_for``
      never reclaims them and the arena fills toward a terminal
      :class:`~repro.core.messages.MessageDomainFull`;
    * **stale crossing-plan entries** — junk keys accumulated in the
      dispatcher's own ``_plans`` dict (not the process-wide tape
      code cache, which holds no kernel state);
    * **tombstones** — dead registry records that grow without bound.

    Charge-free by design: aging is environmental damage, not work, so
    the virtual clock and ledger stay identical to an unaged run — the
    crucible's ``root_transparency`` oracle depends on that.  All
    randomness comes from a dedicated named stream, leaving every other
    seeded sequence untouched.
    """

    def __init__(self, kernel, min_slot: int = 256,
                 max_slot: int = 8192,
                 rng_stream: str = "root-aging") -> None:
        if not hasattr(kernel, "root_wear"):
            raise ValueError(
                "root aging targets the VampOS root; a vanilla kernel "
                "has no kernel-side wear ledger")
        self.kernel = kernel
        self.sim: Simulation = kernel.sim
        self.min_slot = min_slot
        self.max_slot = max_slot
        self._rng = kernel.sim.rng.stream(rng_stream)
        self._serial = 0

    def step(self, operations: int = 1) -> int:
        """Age the root by ``operations`` damage events; returns the
        wear's leaked bytes afterwards.  Raises
        :class:`~repro.core.messages.MessageDomainFull` when orphaned
        slots have exhausted the arena — the terminal failure
        rejuvenation exists to prevent."""
        for _ in range(operations):
            kind = self._rng.randrange(4)
            if kind <= 1:
                self._orphan_slot(
                    self._rng.randint(self.min_slot, self.max_slot))
            elif kind == 2:
                self._stale_plan()
            else:
                self._tombstone(
                    self._rng.randint(self.min_slot, self.max_slot))
        return self.kernel.root_wear.leaked_bytes()

    def _orphan_slot(self, size: int) -> None:
        from ..core.messages import Message, MessageDomainFull

        md = self.kernel.message_domain
        if size > md.free_bytes:
            raise MessageDomainFull(
                f"orphaned slot of {size}B does not fit "
                f"({md.used_bytes}/{md.capacity_bytes}B used): "
                f"kernel-side leaks exhausted the arena")
        message = Message(msg_id=next(md._ids), sender="ROOT",
                          receiver="ROOT", func="orphan",
                          payload_bytes=size)
        # Planted directly — no push charge, no stats: the slot is lost
        # bookkeeping, not traffic.  Peak statistics are left alone.
        md._in_flight[message.msg_id] = message
        md.used_bytes += size
        md.region.used_bytes = md.used_bytes
        self.kernel.root_wear.note_orphan_slot(message.msg_id, size)

    def _stale_plan(self) -> None:
        vamp = self.kernel._vamp
        if not vamp._bound:
            vamp._bind()
        self._serial += 1
        key = ("ROOT", f"stale-{self._serial}", False)
        # A poisoned plan entry: the dispatcher's _plans dict treats
        # False as "cannot compile", so real dispatches never read it —
        # the entry is pure unreclaimed growth.
        vamp._plans[key] = False
        self.kernel.root_wear.note_stale_plan(key)

    def _tombstone(self, size: int) -> None:
        self._serial += 1
        self.kernel.root_wear.note_tombstone(self._serial, size)
