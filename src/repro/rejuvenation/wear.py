"""Kernel-side wear: the bookkeeping leaks only a root reboot clears.

Component-level recovery (the whole escalation ladder) can rebuild any
*component's* state, but three kinds of damage live on the kernel side
of the state boundary and survive every component reboot:

* **orphaned message slots** — in-flight message-domain buffers whose
  owner bookkeeping was lost; ``drop_for`` never matches them, so they
  consume arena bytes until ``MessageDomainFull`` becomes terminal;
* **stale crossing-plan entries** — junk keys accumulated in the
  dispatcher's own ``_plans`` dict (not the process-wide tape
  code cache, which holds no kernel state);
* **tombstones** — dead registry/teardown records that grow without
  bound.

:class:`RootWear` is the kernel's ledger of that damage.  It is pure
bookkeeping: *creating* wear is the root-aging model's job
(:mod:`repro.faults.aging`), *healing* it is
``VampOSKernel.rejuvenate_root``'s — nothing else may clear it.
"""

from __future__ import annotations

from typing import Any, Dict, List, Set, Tuple


class RootWear:
    """Accumulated kernel-side damage, healed only by a root reboot."""

    __slots__ = ("orphan_ids", "orphan_bytes", "stale_plan_keys",
                 "tombstones", "tombstone_bytes", "lifetime_slots",
                 "lifetime_bytes", "lifetime_plans",
                 "lifetime_tombstones")

    def __init__(self) -> None:
        #: message ids of orphaned in-flight slots (excluded from the
        #: RootCheckpoint: the reboot is what reclaims them)
        self.orphan_ids: Set[int] = set()
        self.orphan_bytes: int = 0
        #: junk keys planted in the dispatcher's crossing-plan cache
        self.stale_plan_keys: List[Tuple[Any, ...]] = []
        #: dead bookkeeping records ``(serial, bytes)``
        self.tombstones: List[Tuple[int, int]] = []
        self.tombstone_bytes: int = 0
        # lifetime counters survive clear(): wear stays observable
        # across root reboots, mirroring the AgingModel accounting fix
        self.lifetime_slots: int = 0
        self.lifetime_bytes: int = 0
        self.lifetime_plans: int = 0
        self.lifetime_tombstones: int = 0

    def leaked_bytes(self) -> int:
        """Arena + bookkeeping bytes currently held by wear."""
        return self.orphan_bytes + self.tombstone_bytes

    def is_worn(self) -> bool:
        return bool(self.orphan_ids or self.stale_plan_keys
                    or self.tombstones)

    def note_orphan_slot(self, msg_id: int, size: int) -> None:
        self.orphan_ids.add(msg_id)
        self.orphan_bytes += size
        self.lifetime_slots += 1
        self.lifetime_bytes += size

    def note_stale_plan(self, key: Tuple[Any, ...]) -> None:
        self.stale_plan_keys.append(key)
        self.lifetime_plans += 1

    def note_tombstone(self, serial: int, size: int) -> None:
        self.tombstones.append((serial, size))
        self.tombstone_bytes += size
        self.lifetime_tombstones += 1
        self.lifetime_bytes += size

    def counts(self) -> Dict[str, int]:
        """JSON-safe snapshot (reports, telemetry, tests)."""
        return {
            "orphan_slots": len(self.orphan_ids),
            "orphan_bytes": self.orphan_bytes,
            "stale_plans": len(self.stale_plan_keys),
            "tombstones": len(self.tombstones),
            "tombstone_bytes": self.tombstone_bytes,
            "lifetime_slots": self.lifetime_slots,
            "lifetime_bytes": self.lifetime_bytes,
            "lifetime_plans": self.lifetime_plans,
            "lifetime_tombstones": self.lifetime_tombstones,
        }

    def clear(self) -> Tuple[int, int, int]:
        """Heal the wear (root reboot only); returns what was dropped
        as ``(slots, plans, tombstones)``.  Lifetime counters survive."""
        dropped = (len(self.orphan_ids), len(self.stale_plan_keys),
                   len(self.tombstones))
        self.orphan_ids.clear()
        self.orphan_bytes = 0
        self.stale_plan_keys.clear()
        self.tombstones.clear()
        self.tombstone_bytes = 0
        return dropped
