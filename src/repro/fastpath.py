"""Fast-path switches for the hot-path optimisations.

The runtime carries six wall-clock optimisations that, by design,
change **no** virtual-time (`sim.charge`) semantics:

* the per-key call-log index with incremental space accounting,
* a deep-copy bypass for immutable logged payloads,
* dirty-tracked runtime-data saving,
* the copy-on-write snapshot store (shared region images, deep-copy
  bypass for immutable state blobs),
* compiled domain crossings: a crossing whose charge sequence depends
  only on static facts runs as a code-generated tape that issues the
  identical ``msg_push`` / switch / ``msg_pull`` charges in the
  identical order; every other crossing takes the reference
  ``vo_push_msgs`` → dispatch → ``vo_pull_msgs`` triple,
* interned payload handles: content-keyed caches let repeated immutable
  payloads share one size computation and one logged blob.

One switch is different in kind: ``parallel_recovery`` overlaps
independent component reboots as virtual-time tracks.  It keeps ledger
*totals and counts* bit-identical to the serial path (charges are
issued in the identical serial order) but deliberately shrinks the
elapsed clock from the sum of reboot costs to the dependency DAG's
critical path — that clock delta is the optimisation.  ``reference_mode``
turns it off, forcing the serial sweep bit-identically.

Each can be switched off to fall back to the original scan-everything /
copy-everything reference implementation.  The switches exist for one
purpose: the virtual-time-neutrality regression tests run the same
workload under both settings and assert bit-identical ledgers and
clocks (see ``tests/core/test_fastpath.py``).  Production
code never turns them off.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, fields
from typing import Any, Dict, Iterator, Tuple

#: types safe to share by reference: no mutation can ever reach them
IMMUTABLE_SCALARS = (type(None), bool, int, float, str, bytes, frozenset)

#: exact-class verdicts for the common case (subclasses still resolve
#: through ``isinstance`` below and land in the per-class cache)
_ATOMIC_IMMUTABLES = frozenset(IMMUTABLE_SCALARS)

#: class -> immutability verdict.  A class fully determines the verdict
#: for every non-tuple value: the scalar check is type-based, and the
#: ``__immutable_payload__`` marker is a class-level declaration that
#: instances are transitively immutable (e.g. a frozen dataclass of
#: scalars).  Tuples never enter the cache — their verdict depends on
#: their contents.
_CLASS_VERDICTS: Dict[type, bool] = {}


def is_immutable(value: Any) -> bool:
    """Whether ``value`` is transitively immutable (and so never needs a
    defensive deep copy).  Shared by the call log's payload fast path
    and the snapshot store's state-blob fast path."""
    cls = value.__class__
    if cls in _ATOMIC_IMMUTABLES:
        return True
    if cls is tuple:
        for item in value:
            if not is_immutable(item):
                return False
        return True
    verdict = _CLASS_VERDICTS.get(cls)
    if verdict is None:
        verdict = bool(getattr(cls, "__immutable_payload__", False)) \
            or isinstance(value, IMMUTABLE_SCALARS)
        _CLASS_VERDICTS[cls] = verdict
    return verdict


# --- interned payload handles ---------------------------------------------
#
# Content-keyed caches over values that passed :func:`is_immutable`.
# Facts derived purely from content (wire size, log bytes) may be cached
# under the value itself: within the immutable family, ``==``-equal
# values always price identically (bool/int/float cross-type equality
# all land on the 8-byte scalar bucket; str only equals str; bytes only
# equals bytes).  *Blobs* — canonical shared objects substituted for
# equal payloads — additionally key on a recursive type fingerprint,
# because ``(1,) == (True,)`` must not alias distinguishable payloads.
# The caches are pure content -> fact maps, so clearing them at the
# bound never changes behaviour, only hit rate.

#: entry bound per handle cache; cleared wholesale when exceeded
HANDLE_CACHE_LIMIT = 8192


def type_fingerprint(value: Any) -> Any:
    """A hashable tag making equal-but-distinguishable immutables
    (``1`` vs ``True``, ``(1,)`` vs ``(True,)``) hash apart when used
    alongside the value in a cache key."""
    cls = value.__class__
    if cls is not tuple:
        return cls
    tags = []
    for item in value:
        icls = item.__class__
        tags.append(type_fingerprint(item) if icls is tuple else icls)
    return (tuple, tuple(tags))


class PayloadHandles:
    """The shared handle caches (see module docstring in context)."""

    __slots__ = ("wire_sizes", "log_bytes", "blobs")

    def __init__(self) -> None:
        #: args tuple -> message-domain wire size (str priced by chars)
        self.wire_sizes: Dict[Tuple[Any, ...], int] = {}
        #: str/tuple payload -> call-log byte price (str priced by UTF-8)
        self.log_bytes: Dict[Any, int] = {}
        #: (payload, type fingerprint) -> canonical logged blob
        self.blobs: Dict[Any, Any] = {}

    def clear(self) -> None:
        # in place: hot paths hold direct references to these dicts
        self.wire_sizes.clear()
        self.log_bytes.clear()
        self.blobs.clear()


#: the process-wide handle caches consulted by the hot paths
HANDLES = PayloadHandles()


@dataclass
class FastPathFlags:
    """Global on/off switches: every optimisation flag is True outside
    neutrality tests."""

    #: answer call-log key queries from the per-key index instead of
    #: scanning the whole entry list
    indexed_log: bool = True
    #: skip copy.deepcopy for immutable logged payloads
    copy_fast_path: bool = True
    #: re-export runtime data only for components that flagged a
    #: mutation since the last save
    dirty_runtime_data: bool = True
    #: copy-on-write snapshots: share immutable region images between
    #: the store and restored regions (materialized on first write) and
    #: skip deep-copying immutable state blobs
    cow_snapshots: bool = True
    #: run each crossing that compiles as its code-generated charge tape
    #: (identical charges, no Message object / dict churn); off, or with
    #: crucible probes attached, every crossing takes the reference
    #: ``vo_push_msgs`` → dispatch → ``vo_pull_msgs`` triple
    batched_crossings: bool = True
    #: content-keyed handle caches: repeated immutable payloads share
    #: one size computation and one logged blob (see PayloadHandles)
    interned_payloads: bool = True
    #: dependency-aware parallel recovery: when a heartbeat sweep (or a
    #: multi-component ladder rung) must reboot several independent
    #: units, overlap their reboots as virtual-time tracks whose clocks
    #: max-merge instead of summing.  Charges are issued in the exact
    #: serial order, so ledger totals/counts stay bit-identical to the
    #: serial path; only the elapsed clock shrinks to the dependency
    #: DAG's critical path.  Off (reference_mode) the same reboots run
    #: one after another in ``reboot_components``' serial loop.
    parallel_recovery: bool = True

    def set_all(self, value: bool) -> None:
        for f in fields(self):
            setattr(self, f.name, value)


#: the process-wide switch block consulted by the hot paths
FLAGS = FastPathFlags()


@contextlib.contextmanager
def reference_mode() -> Iterator[FastPathFlags]:
    """Temporarily disable every fast path (the pre-optimisation
    reference semantics).  Used by the neutrality tests."""
    saved = {f.name: getattr(FLAGS, f.name) for f in fields(FLAGS)}
    FLAGS.set_all(False)
    try:
        yield FLAGS
    finally:
        for name, value in saved.items():
            setattr(FLAGS, name, value)
