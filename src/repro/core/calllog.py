"""Function-call and return-value logs (Fig. 4, §V-B).

The message domain keeps, per stateful component, a log of the calls
*into* the component (the function-call log) and, attached to each such
entry, the return values of the calls the component made *out* while
executing it (the return-value log).  Encapsulated restoration replays
the call log and answers the outbound calls from the attached return
values instead of executing them, so the running components never see
the restoration (Fig. 3).

Entries deep-copy arguments and results: the log must stay valid even
if the caller later mutates the objects it passed (and a faulty
component must not be able to corrupt its own recovery data — in the
paper the logs live in the message domain behind their own MPK tag for
exactly this reason).  Immutable payloads (the vast majority of logged
syscall arguments) are stored by reference instead — mutation-safety
holds trivially and the copy is free.

Hot-path data structures (see DESIGN.md, "Fast-path invariants"):

* ``self._entries`` holds every entry in log order, with pruned
  entries tombstoned (``entry.alive = False``) and compacted away once
  they outnumber the live ones; the public ``entries`` view exposes
  only live entries.
* ``self._by_key`` maps each session key to exactly its live entries,
  in log order: a prune drops the entries from their buckets in one
  pass per call, and a key with no live entry has no bucket.  The
  shrinker's per-key queries therefore cost O(live entries for that
  key), and a long-lived key (a listening socket) holds only what is
  live, however much traffic it has seen.
* ``space_bytes()`` / ``record_count()`` are maintained incrementally
  on append / prune / retval-attach instead of walking the log.  A
  ``CallLogEntry`` notifies its owning log when its ``key`` or
  ``result`` is assigned after append (the dispatcher does both), so
  the index and the accounting stay exact.
"""

from __future__ import annotations

import copy
import itertools
from typing import Any, Dict, List, Optional, Tuple

from ..fastpath import (
    FLAGS,
    HANDLE_CACHE_LIMIT,
    HANDLES,
    type_fingerprint,
)
from ..fastpath import IMMUTABLE_SCALARS as _IMMUTABLE_SCALARS  # noqa: F401
from ..fastpath import is_immutable as _is_immutable

#: content-keyed caches shared with the snapshot/message fast paths
_LOG_BYTES = HANDLES.log_bytes
_BLOBS = HANDLES.blobs


class ReturnValueRecord:
    """One outbound call's outcome, recorded for replay interception."""

    __slots__ = ("target", "func", "result", "error")

    def __init__(self, target: str, func: str, result: Any = None,
                 error: Optional[Tuple[str, str]] = None) -> None:
        self.target = target
        self.func = func
        self.result = result
        #: (errno, message) when the call raised a SyscallError; replay
        #: re-raises it so the component takes the same path again
        self.error = error

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ReturnValueRecord(target={self.target!r}, "
                f"func={self.func!r}, result={self.result!r}, "
                f"error={self.error!r})")


class CallLogEntry:
    """One logged inbound call.

    Slotted (hot-path class: one is built per logged syscall).  The
    ``_log`` slot is the owning :class:`ComponentCallLog` back-pointer;
    it is initialised first so ``__setattr__`` can always read it.
    """

    __slots__ = ("seq", "func", "args", "kwargs", "key", "result",
                 "session_opener", "canceling", "durable", "nested",
                 "synthetic_patch", "completed", "alive", "_log",
                 "_space")

    def __init__(self, seq: int, func: str, args: Tuple[Any, ...],
                 kwargs: Dict[str, Any], key: Any = None,
                 result: Any = None, session_opener: bool = False,
                 canceling: bool = False, durable: bool = False,
                 nested: Optional[List[ReturnValueRecord]] = None,
                 synthetic_patch: Optional[Tuple[Any, Any]] = None,
                 completed: bool = False, alive: bool = True) -> None:
        oset = object.__setattr__
        oset(self, "_log", None)
        oset(self, "seq", seq)
        oset(self, "func", func)
        oset(self, "args", args)
        oset(self, "kwargs", kwargs)
        #: session key (fd / fid / socket id) for session-aware shrinking
        oset(self, "key", key)
        oset(self, "result", result)
        #: whether this entry opens a session for its key (open/socket)
        oset(self, "session_opener", session_opener)
        #: whether this entry is a canceling function (close)
        oset(self, "canceling", canceling)
        #: durable entries hold data the component itself stores (§V-F
        #: caveat); canceling prunes skip them
        oset(self, "durable", durable)
        #: return values of the component's outbound calls during this
        #: call
        oset(self, "nested", nested if nested is not None else [])
        #: forced-shrink synthetic entry: apply this state patch instead
        #: of replaying pruned per-key operations
        oset(self, "synthetic_patch", synthetic_patch)
        #: False while the call is still executing; replay skips
        #: in-flight entries (their nested retvals are partial)
        oset(self, "completed", completed)
        #: tombstone flag: False once the entry has been pruned
        oset(self, "alive", alive)
        #: cached space_bytes() while registered in a log (maintained by
        #: the owning log so _unregister never re-walks the payloads)
        oset(self, "_space", 0)

    def __setattr__(self, name: str, value: Any) -> None:
        # ``key`` and ``result`` are assigned by the dispatcher *after*
        # the entry is in the log (key_from_result, completion); route
        # those through the owning log so the per-key index and the
        # incremental space accounting stay exact.
        log = self._log
        if log is not None:
            if name == "key":
                log._rekey(self, value)
                return
            if name == "result":
                log._reresult(self, value)
                return
        object.__setattr__(self, name, value)

    def __getstate__(self) -> Dict[str, Any]:
        # Copies/pickles detach from the owning log: the copy is not in
        # any log's index, so routing its late assignments through one
        # would corrupt accounting.
        return {name: getattr(self, name) for name in self.__slots__
                if name != "_log"}

    def __setstate__(self, state: Dict[str, Any]) -> None:
        oset = object.__setattr__
        oset(self, "_log", None)
        for name, value in state.items():
            oset(self, name, value)

    @property
    def is_synthetic(self) -> bool:
        return self.synthetic_patch is not None

    def entry_count(self) -> int:
        """How many log records this entry holds (call + retvals)."""
        return 1 + len(self.nested)

    def space_bytes(self) -> int:
        """This entry's contribution to the Fig. 7b space accounting."""
        total = 64 + _payload_bytes(self.args) + _payload_bytes(self.result)
        for record in self.nested:
            total += 64 + _payload_bytes(record.result)
        return total


class ComponentCallLog:
    """The per-component slice of the message domain's logs."""

    #: compact the tombstoned entry list once the dead outnumber the
    #: live beyond this floor (amortised O(1) per prune)
    _COMPACT_FLOOR = 32

    def __init__(self, component: str) -> None:
        self.component = component
        #: entries in log order, including tombstones (see `entries`)
        self._entries: List[CallLogEntry] = []
        self._dead = 0
        #: key -> its live entries in log order (no bucket is empty)
        self._by_key: Dict[Any, List[CallLogEntry]] = {}
        #: number of buckets holding >= 2 entries
        self._multi_keys = 0
        # incremental accounting (kept equal to a full recompute)
        self._live_count = 0
        self._record_count = 0
        self._space_bytes = 0
        self._seq = itertools.count(1)
        #: caller->target call edges: live return-value records per
        #: callee, maintained incrementally on append/tombstone so the
        #: recovery planner reads the dependency graph off the hot path
        self._edge_counts: Dict[str, int] = {}
        #: entries currently being executed (innermost last); outbound
        #: retvals attach to the innermost active entry
        self._active: List[CallLogEntry] = []
        # lifetime counters for the experiments
        self.total_appended = 0
        self.total_pruned = 0
        self.total_retvals = 0

    # --- recording --------------------------------------------------------------

    def append(self, func: str, args: Tuple[Any, ...],
               kwargs: Dict[str, Any], key: Any = None,
               session_opener: bool = False,
               canceling: bool = False,
               durable: bool = False) -> CallLogEntry:
        entry = CallLogEntry(
            seq=next(self._seq),
            func=func,
            args=_copy_payload(args),
            kwargs=_copy_kwargs(kwargs) if kwargs else {},
            key=key,
            session_opener=session_opener,
            canceling=canceling,
            durable=durable,
        )
        # Inlined _register, specialised for a fresh entry: alive is
        # already True, nested is empty and result is None, so the
        # space walk collapses to 64 (header) + 8 (None result) + the
        # args price and the record count to exactly 1.
        self._entries.append(entry)
        object.__setattr__(entry, "_log", self)
        if key is not None:
            self._index_add(key, entry)
        self._live_count += 1
        self._record_count += 1
        space = 72 + _payload_bytes(entry.args)
        object.__setattr__(entry, "_space", space)
        self._space_bytes += space
        self.total_appended += 1
        return entry

    def adopt(self, entry: CallLogEntry) -> CallLogEntry:
        """Append an externally built entry (e.g. a synthetic one from
        :meth:`make_synthetic`) with full index + accounting."""
        self._register(entry)
        self.total_appended += 1
        return entry

    def push_active(self, entry: CallLogEntry) -> None:
        self._active.append(entry)

    def pop_active(self, entry: CallLogEntry) -> None:
        """Close the innermost active entry.

        The active stack mirrors the dispatcher's call nesting exactly
        (push/pop happen in paired try/finally blocks); a mismatch
        means nested return values are being attributed to the wrong
        entry — recovery data corruption — so it is a hard error rather
        than a silent no-op.
        """
        if not self._active or self._active[-1] is not entry:
            innermost = (f"{self._active[-1].func!r} "
                         f"seq={self._active[-1].seq}"
                         if self._active else "<none>")
            raise RuntimeError(
                f"call-log corruption in {self.component!r}: "
                f"pop_active({entry.func!r} seq={entry.seq}) does not "
                f"match the innermost active entry ({innermost})")
        self._active.pop()

    @property
    def active_entry(self) -> Optional[CallLogEntry]:
        return self._active[-1] if self._active else None

    def record_retval(self, target: str, func: str, result: Any = None,
                      error: Optional[Tuple[str, str]] = None) -> bool:
        """Attach an outbound call's outcome to the active entry.

        Returns True when a record was stored (i.e. a logged call of
        this component is currently executing).
        """
        active = self._active
        if not active:
            return False
        entry = active[-1]
        # Scalar/bytes results (the vast majority) copy by identity and
        # price trivially under every flag combination: deepcopy returns
        # the same object for atomic immutables, so the fast path is
        # exactly equivalent to _copy_payload + _payload_bytes.
        cls = result.__class__
        if result is None or cls is int or cls is float:
            copied = result
            size = 8
        elif cls is bytes:
            copied = result
            size = len(result)
        else:
            copied = _copy_payload(result)
            size = -1
        entry.nested.append(ReturnValueRecord(target, func, copied, error))
        if entry.alive:
            self._record_count += 1
            delta = 64 + (_payload_bytes(result) if size < 0 else size)
            self._space_bytes += delta
            object.__setattr__(entry, "_space", entry._space + delta)
            counts = self._edge_counts
            counts[target] = counts.get(target, 0) + 1
        self.total_retvals += 1
        return True

    def clear_nested(self, entry: CallLogEntry) -> None:
        """Drop an entry's recorded return values (retry-after-reboot
        repopulates them)."""
        if entry.alive and entry.nested:
            self._record_count -= len(entry.nested)
            delta = 0
            for record in entry.nested:
                delta += 64 + _payload_bytes(record.result)
            self._space_bytes -= delta
            object.__setattr__(entry, "_space", entry._space - delta)
            self._edges_drop(entry.nested)
        entry.nested.clear()

    # --- queries -------------------------------------------------------------------

    @property
    def entries(self) -> List[CallLogEntry]:
        """The live entries, in append order (tombstones hidden)."""
        if self._dead:
            return [e for e in self._entries if e.alive]
        return list(self._entries)

    def __len__(self) -> int:
        return self._live_count

    def record_count(self) -> int:
        """Total records: call entries plus attached return values."""
        if not FLAGS.indexed_log:
            return sum(e.entry_count() for e in self.entries)
        return self._record_count

    def entries_for_key(self, key: Any) -> List[CallLogEntry]:
        if not FLAGS.indexed_log:
            return [e for e in self.entries if e.key == key]
        bucket = self._by_key.get(key)
        return list(bucket) if bucket is not None else []

    def live_keys(self) -> List[Any]:
        """Keys with at least one live entry, oldest key first."""
        return list(self._by_key)

    def call_edges(self) -> Dict[str, int]:
        """Outbound call edges of this component: callee name -> number
        of live return-value records targeting it.

        This is the recovery planner's raw dependency data ("this
        component's logged history calls into those components"), kept
        incrementally so reading it is O(edges), never O(log).
        """
        if not FLAGS.indexed_log:
            counts: Dict[str, int] = {}
            for entry in self.entries:
                for record in entry.nested:
                    counts[record.target] = counts.get(record.target, 0) + 1
            return counts
        return dict(self._edge_counts)

    def has_multi_entry_key(self) -> bool:
        """O(1): does any key hold >= 2 live entries?  (This is the
        forced-shrink `_compactable` predicate.)"""
        return self._multi_keys > 0

    def space_bytes(self) -> int:
        """Approximate log memory footprint (for Fig. 7b accounting).

        Priced per record rather than via sys.getsizeof so the number
        is deterministic across Python builds: 64 bytes of header per
        record plus the payload bytes of any byte-string arguments and
        results.  Maintained incrementally; `recompute_space_bytes`
        walks the log and must always agree.
        """
        if not FLAGS.indexed_log:
            return self.recompute_space_bytes()
        return self._space_bytes

    def recompute_space_bytes(self) -> int:
        """Reference O(n) walk (tests assert it matches the counter)."""
        return sum(e.space_bytes() for e in self._entries if e.alive)

    # --- pruning primitives (used by the shrinker) -------------------------------------

    def remove_entries(self, doomed: List[CallLogEntry]) -> int:
        """Prune ``doomed`` (entries already pruned or owned by another
        log are skipped) and return how many were removed.  Each key
        bucket the prune touches is filtered once, however many of its
        entries go."""
        removed = 0
        touched: Dict[Any, None] = {}
        for entry in doomed:
            if entry.alive and entry._log is self:
                self._unregister(entry)
                removed += 1
                if entry.key is not None:
                    touched[entry.key] = None
        for key in touched:
            self._index_prune(key)
        self.total_pruned += removed
        if self._dead > self._COMPACT_FLOOR \
                and self._dead * 2 > len(self._entries):
            self._entries = [e for e in self._entries if e.alive]
            self._dead = 0
        return removed

    def replace_entries(self, doomed: List[CallLogEntry],
                        replacement: CallLogEntry,
                        at_entry: CallLogEntry) -> None:
        """Replace ``doomed`` with ``replacement`` at the position of
        ``at_entry`` (forced shrinking)."""
        index = next(i for i, e in enumerate(self._entries)
                     if e is at_entry)  # identity, not dataclass ==
        self._register(replacement, index=index)
        self.remove_entries(doomed)

    def make_synthetic(self, key: Any, patch: Any) -> CallLogEntry:
        entry = CallLogEntry(seq=next(self._seq), func="__setstate__",
                             args=(), kwargs={}, key=key, completed=True,
                             synthetic_patch=(key, copy.deepcopy(patch)))
        self.total_appended += 1
        return entry

    def clear(self) -> None:
        """Drop the logged history (fresh restart / live update).

        Entries still on the active stack survive: they describe calls
        that are mid-dispatch, whose paired push/pop bookkeeping the
        dispatcher still owns and whose retry executes against the new
        baseline — so they re-seed the emptied log instead of vanishing
        from the recovery history.
        """
        survivors = list(self._active)
        keep = {id(entry) for entry in survivors}
        for entry in self._entries:
            if id(entry) in keep:
                continue
            if entry.alive:
                object.__setattr__(entry, "alive", False)
            object.__setattr__(entry, "_log", None)
        self._entries.clear()
        self._dead = 0
        self._by_key.clear()
        self._multi_keys = 0
        self._live_count = 0
        self._record_count = 0
        self._space_bytes = 0
        self._edge_counts.clear()
        for entry in survivors:
            self._register(entry)

    # --- index + accounting internals -----------------------------------------------

    def _register(self, entry: CallLogEntry,
                  index: Optional[int] = None) -> None:
        object.__setattr__(entry, "alive", True)
        if index is None:
            self._entries.append(entry)
        else:
            self._entries.insert(index, entry)
        object.__setattr__(entry, "_log", self)
        if entry.key is not None:
            self._index_insert(entry.key, entry)
        self._live_count += 1
        self._record_count += entry.entry_count()
        space = entry.space_bytes()
        object.__setattr__(entry, "_space", space)
        self._space_bytes += space
        if entry.nested:
            counts = self._edge_counts
            for record in entry.nested:
                counts[record.target] = counts.get(record.target, 0) + 1

    def _unregister(self, entry: CallLogEntry) -> None:
        object.__setattr__(entry, "alive", False)
        self._dead += 1
        self._live_count -= 1
        self._record_count -= entry.entry_count()
        # entry._space tracks every registered-lifetime mutation
        # (result assignment, nested retvals), so no payload re-walk
        self._space_bytes -= entry._space
        if entry.nested:
            self._edges_drop(entry.nested)

    def _edges_drop(self, records: List[ReturnValueRecord]) -> None:
        counts = self._edge_counts
        for record in records:
            remaining = counts.get(record.target, 0) - 1
            if remaining > 0:
                counts[record.target] = remaining
            else:
                counts.pop(record.target, None)

    def _index_add(self, key: Any, entry: CallLogEntry) -> None:
        """Index ``entry``, the newest entry of the log."""
        bucket = self._by_key.get(key)
        if bucket is None:
            self._by_key[key] = [entry]
        else:
            bucket.append(entry)
            if len(bucket) == 2:
                self._multi_keys += 1

    def _index_insert(self, key: Any, entry: CallLogEntry) -> None:
        """Index ``entry``, already placed anywhere in ``_entries``, at
        its log position in the bucket (``_index_add`` is the fast case
        of an entry just appended)."""
        bucket = self._by_key.get(key)
        if bucket is None:
            self._by_key[key] = [entry]
            return
        # The bucket members that follow ``entry`` in the log form the
        # bucket's tail; count them walking back from the newest entry
        # (a rekeyed or replacing entry sits at or near the end).
        later = 0
        for other in reversed(self._entries):
            if other is entry:
                break
            if other.alive and other.key == key:
                later += 1
        bucket.insert(len(bucket) - later, entry)
        if len(bucket) == 2:
            self._multi_keys += 1

    def _index_prune(self, key: Any) -> None:
        """Drop the just-pruned entries from ``key``'s bucket."""
        bucket = self._by_key[key]
        live = [e for e in bucket if e.alive]
        if len(bucket) > 1 and len(live) < 2:
            self._multi_keys -= 1
        if live:
            self._by_key[key] = live
        else:
            del self._by_key[key]

    def _rekey(self, entry: CallLogEntry, new_key: Any) -> None:
        """Re-index an entry whose ``key`` is assigned after append
        (the dispatcher's key_from_result path)."""
        old_key = entry.key
        if new_key == old_key:
            return
        object.__setattr__(entry, "key", new_key)
        if not entry.alive:
            return
        if old_key is not None:
            bucket = self._by_key[old_key]
            if len(bucket) == 1:
                del self._by_key[old_key]
            else:
                bucket.remove(entry)  # identity: entries define no __eq__
                if len(bucket) == 1:
                    self._multi_keys -= 1
        if new_key is not None:
            self._index_insert(new_key, entry)

    def _reresult(self, entry: CallLogEntry, result: Any) -> None:
        """Track the space delta when ``result`` is assigned late."""
        old = entry.result
        object.__setattr__(entry, "result", result)
        if entry.alive:
            delta = _payload_bytes(result) - _payload_bytes(old)
            if delta:
                self._space_bytes += delta
                object.__setattr__(entry, "_space", entry._space + delta)


# --- payload helpers -------------------------------------------------------------

# The immutability check (`_is_immutable`) is shared with the snapshot
# store's state-blob fast path; the canonical implementation lives in
# repro.fastpath and is imported at the top of this module.


def _copy_payload(value: Any) -> Any:
    """The copy fast path: immutable payloads (None/bool/int/float/str/
    bytes and tuples thereof — the vast majority of logged syscall
    arguments) need no defensive copy; everything else deep-copies
    exactly as before.

    With ``FLAGS.interned_payloads``, repeated immutable argument
    tuples additionally share one canonical logged blob.  The blob key
    carries a recursive type fingerprint: ``(1,) == (True,)`` but they
    are distinguishable payloads, so equality alone must not let one
    stand in for the other.
    """
    if FLAGS.copy_fast_path:
        if _is_immutable(value):
            if FLAGS.interned_payloads and type(value) is tuple and value:
                key = (value, type_fingerprint(value))
                canonical = _BLOBS.get(key)
                if canonical is not None:
                    return canonical
                if len(_BLOBS) >= HANDLE_CACHE_LIMIT:
                    _BLOBS.clear()
                _BLOBS[key] = value
            return value
        if type(value) is dict \
                and all(_is_immutable(v) for v in value.values()):
            # a flat dict of immutables needs only a fresh top-level
            # dict — mutation-safety matches the deep copy
            return dict(value)
    return copy.deepcopy(value)


def _copy_kwargs(kwargs: Dict[str, Any]) -> Dict[str, Any]:
    if not kwargs:
        return {}
    if FLAGS.copy_fast_path \
            and all(_is_immutable(v) for v in kwargs.values()):
        return dict(kwargs)
    return copy.deepcopy(kwargs)


def _payload_bytes(value: Any) -> int:
    """Log-space price of one payload.

    str and immutable-tuple prices are answered from a content-keyed
    cache when ``FLAGS.interned_payloads`` is on: the price depends
    only on content, and within the immutable family equal values
    always price identically (str only equals str; the scalar types
    whose equality crosses type boundaries all price at 8 and never
    reach the cache).

    Dispatches on the exact class first (every real payload is a
    built-in); subclasses take the original ``isinstance`` chain in
    :func:`_payload_bytes_slow` with identical pricing.
    """
    cls = value.__class__
    if cls is bytes:
        return len(value)
    if cls is str:
        # encoded byte length, not character count (a str payload costs
        # what its UTF-8 serialisation occupies)
        if not FLAGS.interned_payloads:
            return len(value.encode("utf-8"))
        size = _LOG_BYTES.get(value)
        if size is None:
            size = len(value.encode("utf-8"))
            if len(_LOG_BYTES) >= HANDLE_CACHE_LIMIT:
                _LOG_BYTES.clear()
            _LOG_BYTES[value] = size
        return size
    if cls is tuple:
        if FLAGS.interned_payloads and value:
            try:
                size = _LOG_BYTES.get(value)
            except TypeError:  # unhashable element: compute directly
                return sum(map(_payload_bytes, value))
            if size is None:
                size = sum(map(_payload_bytes, value))
                if _is_immutable(value):
                    if len(_LOG_BYTES) >= HANDLE_CACHE_LIMIT:
                        _LOG_BYTES.clear()
                    _LOG_BYTES[value] = size
            return size
        return sum(map(_payload_bytes, value))
    if cls is list:
        return sum(map(_payload_bytes, value))
    if cls is dict:
        return sum(map(_payload_bytes, value.values()))
    if value is None or cls is int or cls is float or cls is bool:
        return 8
    return _payload_bytes_slow(value)


def _payload_bytes_slow(value: Any) -> int:
    """Subclass / oddball pricing — the original ``isinstance`` chain."""
    if isinstance(value, (bytes, bytearray)):
        return len(value)
    if isinstance(value, str):
        return len(value.encode("utf-8"))
    if isinstance(value, (tuple, list)):
        return sum(map(_payload_bytes, value))
    if isinstance(value, dict):
        return sum(map(_payload_bytes, value.values()))
    return 8
