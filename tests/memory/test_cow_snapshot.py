"""COW snapshot safety and sharing invariants.

The store shares immutable region images with the regions restored
from them, and every backed region starts on the one zero image of its
size.  Safety hinges on one rule: **a shared image is never written** —
the first mutation materializes a private copy.  These tests pin that
rule from every direction (write, flip_bit, grow, cross-component and
cross-kernel sharing) plus the sharing/caching behaviour that makes
COW worth having, and the ``reference_mode()`` escape hatch.
"""

import contextlib

import pytest

from repro.apps.nginx import MiniNginx
from repro.core.config import DAS
from repro.faults.injector import FaultInjector
from repro.fastpath import FLAGS, reference_mode
from repro.memory.region import (
    Region,
    RegionKind,
    RegionSet,
    zero_image,
)
from repro.memory.snapshot import SnapshotStore
from repro.sim.engine import Simulation


def make_component(name: str) -> RegionSet:
    regions = RegionSet(name)
    regions.add(Region(f"{name}.data", RegionKind.DATA, 1024))
    regions.add(Region(f"{name}.heap", RegionKind.HEAP, 4096))
    return regions


def make_store() -> SnapshotStore:
    return SnapshotStore(Simulation())


class TestCowSafety:
    """Mutations after restore must never reach the stored image."""

    def test_write_after_restore_does_not_corrupt_snapshot(self):
        store = make_store()
        regions = make_component("VFS")
        regions.get("VFS.data").write(0, b"boot")
        snap = store.take("VFS", regions, None)
        store.restore(snap, regions)
        regions.get("VFS.data").write(0, b"aged")
        # The stored image still says "boot" — a second restore proves
        # the write went to a private copy, not the shared image.
        store.restore(snap, regions)
        assert regions.get("VFS.data").read(0, 4) == b"boot"
        assert snap.regions[0].backing[:4] == b"boot"

    def test_flip_bit_after_restore_does_not_corrupt_snapshot(self):
        store = make_store()
        regions = make_component("VFS")
        snap = store.take("VFS", regions, None)
        store.restore(snap, regions)
        regions.get("VFS.heap").flip_bit(8, 3)
        heap_snap = [s for s in snap.regions if s.kind == RegionKind.HEAP][0]
        assert heap_snap.backing[8] == 0
        store.restore(snap, regions)
        assert regions.get("VFS.heap").read(8, 1) == b"\x00"

    def test_grow_after_restore_does_not_corrupt_snapshot(self):
        store = make_store()
        regions = make_component("VFS")
        snap = store.take("VFS", regions, None)
        store.restore(snap, regions)
        heap = regions.get("VFS.heap")
        heap.grow(8192)
        heap.write(5000, b"x")
        heap_snap = [s for s in snap.regions if s.kind == RegionKind.HEAP][0]
        assert heap_snap.size_bytes == 4096
        assert len(heap_snap.backing) == 4096

    def test_sibling_sharing_one_writer_does_not_leak(self):
        """Two components restored from one shared image: dirtying one
        must never show through the other's snapshot."""
        store = make_store()
        a, b = make_component("A"), make_component("B")
        # Same size, never written: both DATA snapshots store the one
        # zero image of that size.
        snap_a = store.take("A", a, None)
        snap_b = store.take("B", b, None)
        assert snap_a.regions[0].backing is snap_b.regions[0].backing
        store.restore(snap_a, a)
        store.restore(snap_b, b)
        a.get("A.data").write(0, b"DIRTY")
        assert b.get("B.data").read(0, 5) == b"\x00" * 5
        assert snap_b.regions[0].backing[:5] == b"\x00" * 5
        store.restore(snap_a, a)
        assert a.get("A.data").read(0, 5) == b"\x00" * 5

    def test_restore_read_serves_shared_image_without_copying(self):
        store = make_store()
        regions = make_component("VFS")
        regions.get("VFS.data").write(0, b"boot")
        snap = store.take("VFS", regions, None)
        store.restore(snap, regions)
        region = regions.get("VFS.data")
        # Reads work straight off the shared image, no private copy yet.
        assert region._backing is None
        assert region.read(0, 4) == b"boot"
        assert region.backed

    def test_corrupted_flag_cleared_on_restore(self):
        store = make_store()
        regions = make_component("VFS")
        snap = store.take("VFS", regions, None)
        regions.get("VFS.data").mark_corrupted()
        store.restore(snap, regions)
        assert not regions.get("VFS.data").corrupted
        assert regions.get("VFS.data").read(0, 4) == b"\x00" * 4


class TestSnapshotSharing:
    """The storage wins: cache reuse, shared blobs."""

    def test_unchanged_region_reuses_cached_snapshot(self):
        store = make_store()
        regions = make_component("VFS")
        snap1 = store.take("VFS", regions, None)
        snap2 = store.take("VFS", regions, None)
        assert snap1.regions[0] is snap2.regions[0]

    def test_write_invalidates_cache(self):
        store = make_store()
        regions = make_component("VFS")
        snap1 = store.take("VFS", regions, None)
        regions.get("VFS.data").write(0, b"new")
        snap2 = store.take("VFS", regions, None)
        assert snap1.regions[0] is not snap2.regions[0]
        assert snap2.regions[0].backing[:3] == b"new"

    def test_used_bytes_change_invalidates_cache(self):
        # Allocators adjust used_bytes without bumping version; the
        # cache must not return a snapshot with stale accounting.
        store = make_store()
        regions = make_component("VFS")
        snap1 = store.take("VFS", regions, None)
        regions.get("VFS.heap").used_bytes = 512
        snap2 = store.take("VFS", regions, None)
        heap2 = [s for s in snap2.regions if s.kind == RegionKind.HEAP][0]
        assert heap2.used_bytes == 512
        assert snap1.regions != snap2.regions

    def test_immutable_state_blob_shared_by_reference(self):
        store = make_store()
        regions = make_component("VFS")
        state = (("fd", 3), ("path", "/etc"))
        snap = store.take("VFS", regions, state)
        assert snap.state_blob is state
        assert store.restore(snap, regions) is state

    def test_mutable_state_blob_still_deep_copied(self):
        store = make_store()
        regions = make_component("VFS")
        state = {"fds": {3: "/etc"}}
        snap = store.take("VFS", regions, state)
        assert snap.state_blob is not state
        state["fds"][3] = "/tmp"
        assert snap.state_blob == {"fds": {3: "/etc"}}
        restored = store.restore(snap, regions)
        assert restored is not snap.state_blob


class TestZeroImage:
    """A backed region starts on its size's shared zero image: booting
    and checkpointing a kernel copy no region bytes."""

    def test_backed_region_shares_the_zero_image_of_its_size(self):
        a = Region("A.data", RegionKind.DATA, 1024)
        b = Region("B.bss", RegionKind.BSS, 1024)
        assert a._backing is None and b._backing is None
        assert a._shared is zero_image(1024)
        assert b._shared is a._shared
        assert a.backed
        assert a.read(0, 1024) == bytes(1024)

    @pytest.mark.parametrize("mutate", [
        lambda region: region.write(16, b"\x80"),
        lambda region: region.flip_bit(16, 7),
    ], ids=["write", "flip_bit"])
    def test_mutation_materializes_a_private_copy(self, mutate):
        region = Region("A.heap", RegionKind.HEAP, 4096)
        sibling = Region("B.heap", RegionKind.HEAP, 4096)
        mutate(region)
        assert region._shared is None
        assert isinstance(region._backing, bytearray)
        assert region.read(16, 1) == b"\x80"
        assert zero_image(4096) == bytes(4096)
        assert sibling._shared is zero_image(4096)
        assert sibling.read(0, 4096) == bytes(4096)

    def test_booted_kernel_checkpoints_the_zero_images_themselves(self):
        kernel = MiniNginx(Simulation(seed=1), mode=DAS).kernel
        for name in kernel.image.boot_order:
            for region in kernel.image.component(name).regions:
                assert region._backing is None, region.name
                if region.backed:
                    assert region._shared is zero_image(region.size_bytes)
        checkpointed = 0
        for name in kernel.image.stateful_components():
            snap = kernel.snapshots.get(name)
            if snap is None:
                continue
            checkpointed += 1
            for region_snap in snap.regions:
                assert region_snap.backing is zero_image(
                    region_snap.size_bytes), region_snap.name
        assert checkpointed >= 3


@pytest.mark.parametrize("reference", [False, True],
                         ids=["cow", "reference"])
def test_bit_flip_stays_inside_its_kernel(reference):
    """Two kernels share their zero images; a bit flip in one kernel's
    VFS heap reaches neither the other kernel nor the zero image, and
    the reboot brings the flipped heap back to all-zero."""
    mode = reference_mode() if reference else contextlib.nullcontext()
    with mode:
        a = MiniNginx(Simulation(seed=1), mode=DAS).kernel
        b = MiniNginx(Simulation(seed=2), mode=DAS).kernel
        heap_a = a.component("VFS").regions.get("VFS.heap")
        heap_b = b.component("VFS").regions.get("VFS.heap")
        size = heap_a.size_bytes
        FaultInjector(a).inject_bit_flip("VFS", "heap", offset=64, bit=5)
        assert heap_a.read(64, 1) == b"\x20"
        assert heap_b.read(0, size) == bytes(size)
        assert zero_image(size) == bytes(size)
        a.reboot_component("VFS")
        heap_a = a.component("VFS").regions.get("VFS.heap")
        assert heap_a.read(0, size) == bytes(size)
        assert zero_image(size) == bytes(size)


class TestReferenceMode:
    """``reference_mode()`` must restore eager-copy semantics."""

    def test_flag_exists_and_reference_mode_disables_it(self):
        assert FLAGS.cow_snapshots
        with reference_mode():
            assert not FLAGS.cow_snapshots
        assert FLAGS.cow_snapshots

    def test_reference_restore_copies_eagerly(self):
        with reference_mode():
            store = make_store()
            regions = make_component("VFS")
            snap = store.take("VFS", regions, None)
            store.restore(snap, regions)
            region = regions.get("VFS.data")
            assert region._shared is None
            assert region._backing is not None

    def test_reference_restore_never_shares_the_zero_image(self):
        with reference_mode():
            store = make_store()
            regions = make_component("VFS")
            snap = store.take("VFS", regions, None)
            store.restore(snap, regions)
            heap = regions.get("VFS.heap")
            assert heap._shared is None
            assert isinstance(heap._backing, bytearray)
            heap.flip_bit(8, 3)
        assert zero_image(4096) == bytes(4096)
        heap_snap = [s for s in snap.regions if s.kind == RegionKind.HEAP][0]
        assert heap_snap.backing == bytes(4096)
        assert make_component("X").get("X.heap").read(8, 1) == b"\x00"

    def test_reference_state_blob_goes_through_deepcopy(self):
        # deepcopy itself shares atomic immutables, so identity is not
        # the discriminator — a nested mutable is: reference mode must
        # copy it even inside an otherwise shared structure.
        with reference_mode():
            store = make_store()
            state = ("header", ["mutable", "tail"])
            snap = store.take("VFS", make_component("VFS"), state)
            assert snap.state_blob == state
            assert snap.state_blob[1] is not state[1]

    def test_reference_and_cow_restores_agree(self):
        def run_cycle() -> bytes:
            store = make_store()
            regions = make_component("VFS")
            regions.get("VFS.data").write(0, b"boot")
            snap = store.take("VFS", regions, None)
            regions.get("VFS.data").write(0, b"aged")
            store.restore(snap, regions)
            return regions.get("VFS.data").read(0, 4)

        cow = run_cycle()
        with reference_mode():
            ref = run_cycle()
        assert cow == ref == b"boot"
