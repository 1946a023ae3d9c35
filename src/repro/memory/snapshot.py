"""Component-level memory snapshots (the QEMU-snapshot analogue).

Checkpoint-based initialization (§V-E) takes a memory snapshot of each
component just after boot and restores it on reboot instead of running
the shutdown/boot routines (which would disturb other components).  The
paper reuses QEMU's snapshot feature; here a snapshot is the set of
region images plus an opaque component state blob.

Storage is copy-on-write (gated by ``fastpath.FLAGS.cow_snapshots``):
region images are immutable ``bytes`` shared between the store and the
regions restored from them, and reused across takes while the region
is unchanged.  A region nothing has written to is stored as the shared
zero image of its size, so post-boot snapshots copy no bytes at all.
Mutable state blobs are still deep-copied, immutable ones shared by
reference.  None of this touches virtual time — take/restore charge
``snapshot_bytes`` exactly as the eager-copy reference implementation
does.

Costs: taking and restoring a snapshot charge the simulation clock
proportionally to the snapshot's byte size — Fig. 6 shows restoration
dominating stateful reboot time and scaling with the memory footprint
(9PFS is fastest because it has no data/bss image, only a heap).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..fastpath import FLAGS, is_immutable
from ..sim.engine import Simulation
from .region import Region, RegionSet, RegionSnapshot


def _copy_state_blob(state: Any) -> Any:
    """Deep-copy a component state blob — unless it is transitively
    immutable, in which case sharing the reference is indistinguishable
    (the same fast path the call log applies to logged payloads)."""
    if FLAGS.cow_snapshots and is_immutable(state):
        return state
    return copy.deepcopy(state)


@dataclass
class ComponentSnapshot:
    """Everything needed to put a component back to a known point."""

    component: str
    label: str
    regions: List[RegionSnapshot] = field(default_factory=list)
    state_blob: Any = None
    taken_at_us: float = 0.0

    @property
    def snapshot_bytes(self) -> int:
        return sum(r.snapshot_bytes for r in self.regions)


class SnapshotStore:
    """Holds per-component snapshots, keyed by (component, label).

    The runtime keeps one ``"post-boot"`` snapshot per stateful
    component; experiments are free to take extra labelled snapshots
    (e.g. the ablation comparing checkpoint-based against full re-init).
    """

    def __init__(self, sim: Simulation) -> None:
        self._sim = sim
        self._snapshots: Dict[str, Dict[str, ComponentSnapshot]] = {}

    def take(self, component: str, regions: RegionSet, state: Any,
             label: str = "post-boot") -> ComponentSnapshot:
        """Snapshot the regions and a copy of ``state``.

        Region images are taken copy-on-write: unchanged regions reuse
        their previous snapshot's image, unwritten regions store their
        shared zero image, and immutable state blobs skip the deep copy
        (``reference_mode()`` restores the eager-copy semantics).
        """
        sim = self._sim
        if sim.probes is not None:
            sim.probes.fire("checkpoint", component=component, op="take",
                            label=label)
        obs = sim.obs
        span = None
        if obs is not None:
            span = obs.open_span("checkpoint", f"take:{component}")
        t0 = sim.clock.now_us
        snap = ComponentSnapshot(
            component=component,
            label=label,
            regions=[r.snapshot() for r in regions],
            state_blob=_copy_state_blob(state),
            taken_at_us=t0,
        )
        sim.charge(
            "snapshot_take",
            snap.snapshot_bytes * sim.costs.snapshot_take_per_byte)
        sim.emit("checkpoint", "take", component=component,
                 label=label, bytes=snap.snapshot_bytes)
        if obs is not None:
            obs.close_span(span, bytes=snap.snapshot_bytes)
            obs.inc("snapshot.takes")
            obs.observe("snapshot.save_us", sim.clock.now_us - t0)
        self._snapshots.setdefault(component, {})[label] = snap
        return snap

    def get(self, component: str,
            label: str = "post-boot") -> Optional[ComponentSnapshot]:
        return self._snapshots.get(component, {}).get(label)

    def has(self, component: str, label: str = "post-boot") -> bool:
        return self.get(component, label) is not None

    def restore(self, snap: ComponentSnapshot,
                regions: RegionSet) -> Any:
        """Write the snapshot back into the regions; returns a copy of
        the stored state blob (callers install it as component state).
        Restored regions share the stored image copy-on-write — the
        first mutation materializes a private copy — and immutable
        state blobs are returned by reference.

        Charges the clock for the snapshot-load, the dominant factor in
        stateful component reboot time (Fig. 6); the charge is always
        the full ``snapshot_bytes``, shared storage or not (virtual
        time is sharing-neutral).
        """
        sim = self._sim
        if sim.probes is not None:
            sim.probes.fire("checkpoint", component=snap.component,
                            op="restore", label=snap.label)
        obs = sim.obs
        span = None
        t0 = 0.0
        if obs is not None:
            t0 = sim.clock.now_us
            span = obs.open_span("checkpoint",
                                 f"restore:{snap.component}",
                                 bytes=snap.snapshot_bytes)
        sim.charge("snapshot_restore",
                   sim.costs.snapshot_restore_fixed)
        sim.charge(
            "snapshot_restore",
            snap.snapshot_bytes * sim.costs.snapshot_restore_per_byte)
        by_name = {r.name: r for r in regions}
        for region_snap in snap.regions:
            region = by_name.get(region_snap.name)
            if region is None:
                # The component grew a region after the checkpoint; a
                # restore simply does not recreate it (matching a raw
                # memory-image load which only covers checkpointed pages).
                continue
            region.restore(region_snap)
        sim.emit("checkpoint", "restore", component=snap.component,
                 label=snap.label, bytes=snap.snapshot_bytes)
        if obs is not None:
            obs.close_span(span)
            obs.inc("snapshot.restores")
            obs.observe("snapshot.restore_us", sim.clock.now_us - t0)
        return _copy_state_blob(snap.state_blob)

    def drop(self, component: str, label: Optional[str] = None) -> None:
        if label is None:
            self._snapshots.pop(component, None)
        else:
            self._snapshots.get(component, {}).pop(label, None)

    def labels(self, component: str) -> List[str]:
        return sorted(self._snapshots.get(component, {}).keys())

    def total_bytes(self) -> int:
        return sum(snap.snapshot_bytes
                   for per_component in self._snapshots.values()
                   for snap in per_component.values())
