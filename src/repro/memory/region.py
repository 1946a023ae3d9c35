"""Simulated memory regions.

Each unikernel component owns a set of regions — ``text``, ``data``,
``bss``, ``heap`` and ``stack`` — mirroring the VampOS implementation
(Fig. 4) where static data is placed via a per-component linker section
and each component creates its own heap.  Regions are the unit of MPK
protection-key assignment and of checkpoint snapshots.

Regions are *accounting-first*: they always track their size, the bytes
in use and a version counter, and additionally carry real byte contents
when small enough to afford them (the bytes are what the fault injector
flips bits in).  A backed region starts on the shared, immutable zero
image of its size (:func:`zero_image`) and gets a private ``bytearray``
only when something writes to it, so booting a kernel allocates no
region bytes at all.  Gigabyte-scale regions (the warm Redis heap of
Fig. 8) stay accounting-only so the simulation fits in host memory.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from typing import Dict, Optional

from ..fastpath import FLAGS

PAGE_SIZE = 4096

#: regions at or below this size get a real byte backing
BACKING_LIMIT_BYTES = 1 << 20

#: distinct backed region sizes whose zero image is kept (the shipped
#: commands together use 15)
ZERO_CACHE_SIZE = 64


@functools.lru_cache(maxsize=ZERO_CACHE_SIZE)
def zero_image(size_bytes: int) -> bytes:
    """The shared immutable all-zero image of ``size_bytes`` bytes.

    Every backed region of that size starts on this one object, and so
    does every snapshot taken before the region's first write.  It is
    never written: mutations materialize a private copy first.
    """
    return bytes(size_bytes)


class RegionKind(enum.Enum):
    TEXT = "text"
    DATA = "data"
    BSS = "bss"
    HEAP = "heap"
    STACK = "stack"
    MESSAGE = "message"  # message domains (§V-D)


class MemoryFault(Exception):
    """Base class for simulated memory errors."""


class OutOfRegion(MemoryFault):
    """An access fell outside the region's address range."""


class RegionCorrupted(MemoryFault):
    """The region was marked corrupted by a fault and then accessed."""


def pages_for(size_bytes: int) -> int:
    """Number of whole pages needed to hold ``size_bytes``."""
    if size_bytes < 0:
        raise ValueError("size must be non-negative")
    return (size_bytes + PAGE_SIZE - 1) // PAGE_SIZE


@dataclass
class RegionSnapshot:
    """A point-in-time image of a region (metadata + optional backing)."""

    name: str
    kind: RegionKind
    size_bytes: int
    used_bytes: int
    version: int
    backing: Optional[bytes]

    @property
    def snapshot_bytes(self) -> int:
        """Bytes that would be written/read for this snapshot."""
        return self.size_bytes


class Region:
    """A contiguous simulated memory area owned by one component.

    ``used_bytes`` is maintained by the owning allocator/component;
    ``version`` increments on every mutation so tests can assert whether
    a restore actually rolled state back.
    """

    def __init__(self, name: str, kind: RegionKind, size_bytes: int,
                 owner: str = "", backed: Optional[bool] = None) -> None:
        if size_bytes < 0:
            raise ValueError("region size must be non-negative")
        self.name = name
        self.kind = kind
        self.size_bytes = size_bytes
        self.owner = owner
        self.used_bytes = 0
        self.version = 0
        self.corrupted = False
        self.protection_key: Optional[int] = None
        if backed is None:
            backed = size_bytes <= BACKING_LIMIT_BYTES
        #: the private contents, once a mutation has materialized them
        self._backing: Optional[bytearray] = None
        #: copy-on-write source: an immutable image shared with other
        #: regions and the snapshot store — the zero image until the
        #: first write, or a restored snapshot's image.  Mutually
        #: exclusive with ``_backing`` — reads serve from either; the
        #: first mutation materializes a private ``bytearray`` copy so
        #: the shared image is never written.
        self._shared: Optional[bytes] = (
            zero_image(size_bytes) if backed else None
        )
        #: the last snapshot taken of (or restored into) this region,
        #: reused zero-copy while the region is provably unchanged
        self._snap_cache: Optional[RegionSnapshot] = None

    # --- size management ----------------------------------------------------

    @property
    def pages(self) -> int:
        return pages_for(self.size_bytes)

    @property
    def backed(self) -> bool:
        return self._backing is not None or self._shared is not None

    def _materialize(self) -> None:
        """Break copy-on-write sharing before a mutation: give the
        region its own private ``bytearray`` copy of the shared image."""
        if self._shared is not None:
            self._backing = bytearray(self._shared)
            self._shared = None

    def grow(self, new_size_bytes: int) -> None:
        """Extend the region (heaps grow; text/data never shrink)."""
        if new_size_bytes < self.size_bytes:
            raise ValueError("regions do not shrink; create a new region")
        self._materialize()
        if self._backing is not None:
            if new_size_bytes <= BACKING_LIMIT_BYTES:
                self._backing.extend(
                    bytearray(new_size_bytes - self.size_bytes))
            else:
                self._backing = None
        self.size_bytes = new_size_bytes
        self.version += 1

    # --- access -------------------------------------------------------------

    def _check_range(self, offset: int, length: int) -> None:
        if offset < 0 or length < 0 or offset + length > self.size_bytes:
            raise OutOfRegion(
                f"access [{offset}, {offset + length}) outside region "
                f"{self.name!r} of {self.size_bytes} bytes")

    def read(self, offset: int, length: int) -> bytes:
        """Read raw bytes (zero-filled when the region is accounting-only)."""
        self._check_range(offset, length)
        if self.corrupted:
            raise RegionCorrupted(f"region {self.name!r} is corrupted")
        if self._shared is not None:
            return self._shared[offset:offset + length]
        if self._backing is None:
            return bytes(length)
        return bytes(self._backing[offset:offset + length])

    def write(self, offset: int, data: bytes) -> None:
        self._check_range(offset, len(data))
        self._materialize()
        if self._backing is not None:
            self._backing[offset:offset + len(data)] = data
        self.version += 1

    def touch(self) -> None:
        """Record a mutation without byte-level detail (accounting mode)."""
        self.version += 1

    def flip_bit(self, offset: int, bit: int) -> None:
        """Fault injection: flip one bit (marks corruption when unbacked)."""
        if not 0 <= bit < 8:
            raise ValueError("bit index must be in [0, 8)")
        self._check_range(offset, 1)
        self._materialize()
        if self._backing is not None:
            self._backing[offset] ^= (1 << bit)
        else:
            self.corrupted = True
        self.version += 1

    def mark_corrupted(self) -> None:
        self.corrupted = True
        self.version += 1

    # --- snapshots ------------------------------------------------------------

    def snapshot(self) -> RegionSnapshot:
        if not FLAGS.cow_snapshots:
            # Reference semantics: no snapshot cache.  For a shared
            # image ``bytes()`` returns that same immutable object,
            # which no reader can tell from a copy; the reference
            # restore below still copies it into a private
            # ``bytearray``.
            backing = None
            if self._shared is not None:
                backing = bytes(self._shared)
            elif self._backing is not None:
                backing = bytes(self._backing)
            return RegionSnapshot(
                name=self.name,
                kind=self.kind,
                size_bytes=self.size_bytes,
                used_bytes=self.used_bytes,
                version=self.version,
                backing=backing,
            )
        # Every mutation bumps ``version``; allocators additionally
        # adjust ``used_bytes`` without one, so a cache hit requires
        # both (plus the size, which only ``grow`` — a version bump —
        # changes, kept for belt-and-braces).
        cached = self._snap_cache
        if (cached is not None
                and cached.version == self.version
                and cached.used_bytes == self.used_bytes
                and cached.size_bytes == self.size_bytes):
            return cached
        if self._shared is not None:
            backing: Optional[bytes] = self._shared
        elif self._backing is not None:
            backing = bytes(self._backing)
        else:
            backing = None
        snap = RegionSnapshot(
            name=self.name,
            kind=self.kind,
            size_bytes=self.size_bytes,
            used_bytes=self.used_bytes,
            version=self.version,
            backing=backing,
        )
        self._snap_cache = snap
        return snap

    def restore(self, snap: RegionSnapshot) -> None:
        if snap.name != self.name:
            raise ValueError(
                f"snapshot of {snap.name!r} cannot restore region "
                f"{self.name!r}")
        self.size_bytes = snap.size_bytes
        self.used_bytes = snap.used_bytes
        self.version = snap.version
        self.corrupted = False
        if FLAGS.cow_snapshots:
            # Share the stored image; the first write materializes a
            # private copy, so the snapshot can never be corrupted
            # through the region.
            self._backing = None
            self._shared = snap.backing
            self._snap_cache = snap
            return
        self._snap_cache = None
        self._shared = None
        if snap.backing is not None:
            self._backing = bytearray(snap.backing)
        else:
            self._backing = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Region({self.name!r}, {self.kind.value}, "
                f"{self.size_bytes}B, used={self.used_bytes}B)")


class RegionSet:
    """The regions belonging to one component, keyed by kind/name."""

    def __init__(self, owner: str) -> None:
        self.owner = owner
        self._regions: Dict[str, Region] = {}

    def add(self, region: Region) -> Region:
        if region.name in self._regions:
            raise ValueError(f"duplicate region {region.name!r}")
        region.owner = self.owner
        self._regions[region.name] = region
        return region

    def get(self, name: str) -> Region:
        return self._regions[name]

    def __contains__(self, name: str) -> bool:
        return name in self._regions

    def __iter__(self):
        return iter(self._regions.values())

    def __len__(self) -> int:
        return len(self._regions)

    def by_kind(self, kind: RegionKind) -> list:
        return [r for r in self._regions.values() if r.kind == kind]

    def total_bytes(self) -> int:
        return sum(r.size_bytes for r in self._regions.values())

    def used_bytes(self) -> int:
        return sum(r.used_bytes for r in self._regions.values())
