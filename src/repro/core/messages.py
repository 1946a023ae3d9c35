"""The message domain (Fig. 4).

VampOS components communicate through a shared message domain that
holds (a) the in-flight message buffers and (b) the function-call and
return-value logs, all isolated behind their own MPK tag so a faulty
component cannot corrupt its own recovery data (§V-D).

This module implements the paper's named interface —
``vo_push_msgs()`` / ``vo_pull_msgs()`` — over a byte-accounted buffer
arena inside the message-domain region.  The message thread "releases
buffers when they are used by the target component and are not needed
for the restoration": a pull releases its message's buffer immediately
(the durable copy, when the call is logged, lives in the call log, not
the message buffer).

Both halves of a crossing live in one place each:
``begin_crossing()`` holds the size check, the ``msg_push`` charge,
the arena reservation, the domain stats and the obs metrics, and
``end_crossing()`` holds the ``msg_pull`` charge and the release.  The
reference pair is built on them and adds only what a live message
needs: the crucible probes, the :class:`Message` object with its
causal span id, the in-flight table and the region's ``used_bytes``
mirror.  The dispatcher's compiled crossing tapes (``core/runtime.py``)
replay the same charges and stats inline and call ``begin_crossing``
only to raise :class:`MessageDomainFull`.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Optional, Tuple

from ..fastpath import FLAGS, HANDLE_CACHE_LIMIT, HANDLES, is_immutable
from ..memory.region import Region
from ..sim.engine import Simulation

#: fixed per-message header charged on top of the payload
MESSAGE_HEADER_BYTES = 48

#: content-keyed wire-size cache (see fastpath.PayloadHandles)
_WIRE_SIZES = HANDLES.wire_sizes


class MessageDomainFull(Exception):
    """The message buffer arena is exhausted (undrained messages)."""


class Message:
    """One in-flight request or reply."""

    __slots__ = ("msg_id", "sender", "receiver", "func", "payload_bytes",
                 "is_reply", "span_id")

    def __init__(self, msg_id: int, sender: str, receiver: str, func: str,
                 payload_bytes: int, is_reply: bool = False,
                 span_id: Optional[int] = None) -> None:
        self.msg_id = msg_id
        self.sender = sender
        self.receiver = receiver
        self.func = func
        self.payload_bytes = payload_bytes
        self.is_reply = is_reply
        #: flight-recorder span active when the message was pushed — the
        #: causal parent the receiving side nests its dispatch span
        #: under (None when observability is off or no span is open)
        self.span_id = span_id

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Message(msg_id={self.msg_id}, sender={self.sender!r}, "
                f"receiver={self.receiver!r}, func={self.func!r}, "
                f"payload_bytes={self.payload_bytes}, "
                f"is_reply={self.is_reply}, span_id={self.span_id})")


def _value_size(value: Any) -> int:
    if isinstance(value, (bytes, bytearray, str)):
        return len(value)
    if isinstance(value, (list, tuple)):
        return sum(len(v) if isinstance(v, (bytes, str)) else 8
                   for v in value)
    return 8


def payload_size(args: Tuple[Any, ...], kwargs: Dict[str, Any]) -> int:
    """Approximate wire size of a call's arguments (deterministic).

    Single pass over ``args`` then ``kwargs.values()`` (no concatenated
    list).  With ``FLAGS.interned_payloads`` the all-positional case is
    answered from a content-keyed cache: within the immutable family,
    equal argument tuples always price identically, so the key is the
    tuple itself.
    """
    if not kwargs and FLAGS.interned_payloads:
        try:
            size = _WIRE_SIZES.get(args)
        except TypeError:  # unhashable argument somewhere inside
            size = None
        else:
            if size is None:
                size = 0
                for value in args:
                    size += _value_size(value)
                if is_immutable(args):
                    if len(_WIRE_SIZES) >= HANDLE_CACHE_LIMIT:
                        _WIRE_SIZES.clear()
                    _WIRE_SIZES[args] = size
            return size
    total = 0
    for value in args:
        total += _value_size(value)
    for value in kwargs.values():
        total += _value_size(value)
    return total


class MessageDomain:
    """Buffer arena + accounting for one VampOS instance."""

    def __init__(self, sim: Simulation, region: Region) -> None:
        self.sim = sim
        self.region = region
        self._ids = itertools.count(1)
        #: msg_id -> Message for buffers not yet pulled
        self._in_flight: Dict[int, Message] = {}
        self.used_bytes = 0
        # lifetime stats
        self.pushes = 0
        self.pulls = 0
        self.peak_bytes = 0
        self.peak_in_flight = 0

    @property
    def capacity_bytes(self) -> int:
        return self.region.size_bytes

    @property
    def free_bytes(self) -> int:
        return self.capacity_bytes - self.used_bytes

    def vo_push_msgs(self, sender: str, receiver: str, func: str,
                     args: Tuple[Any, ...] = (),
                     kwargs: Optional[Dict[str, Any]] = None,
                     is_reply: bool = False) -> Message:
        """Push a request (or a return value) into the message buffer.

        Fires the ``msg_push`` probe, then runs :meth:`begin_crossing`
        (size check, charge, reservation) and files the message in the
        in-flight table; raises :class:`MessageDomainFull` if the arena
        cannot hold it (a real deployment would block the sender — in
        the synchronous simulation every message is pulled promptly, so
        hitting this means a leak).
        """
        sim = self.sim
        probes = sim.probes
        if probes is not None:
            probes.fire("msg_push", sender=sender, receiver=receiver,
                        func=func, is_reply=is_reply)
        size, msg_id = self.begin_crossing(args, kwargs or {})
        obs = sim.obs
        # The causal parent travels with the message: the receiver
        # opens its dispatch span under this id.
        message = Message(msg_id=msg_id, sender=sender, receiver=receiver,
                          func=func, payload_bytes=size, is_reply=is_reply,
                          span_id=None if obs is None
                          else obs.current_span_id())
        self._in_flight[msg_id] = message
        self.region.used_bytes = self.used_bytes
        return message

    def vo_pull_msgs(self, message: Message) -> Message:
        """Pull a message out; its buffer is released immediately."""
        if message.msg_id not in self._in_flight:
            raise KeyError(f"message {message.msg_id} not in flight")
        probes = self.sim.probes
        if probes is not None:
            probes.fire("msg_pull", sender=message.sender,
                        receiver=message.receiver, func=message.func,
                        is_reply=message.is_reply)
        self.end_crossing(message.payload_bytes)
        del self._in_flight[message.msg_id]
        self.region.used_bytes = self.used_bytes
        return message

    # --- the two halves of every crossing ---------------------------------

    def begin_crossing(self, args: Tuple[Any, ...],
                       kwargs: Dict[str, Any]) -> Tuple[int, int]:
        """The push half of a crossing: size check, ``msg_push``
        charge, arena reservation, stats and obs metrics.

        Raises :class:`MessageDomainFull` before charging anything.
        Returns ``(size, msg_id)`` for the paired :meth:`end_crossing`;
        the in-flight depth counts the message being pushed.
        """
        size = MESSAGE_HEADER_BYTES + payload_size(args, kwargs)
        if size > self.region.size_bytes - self.used_bytes:
            raise MessageDomainFull(
                f"message of {size}B does not fit "
                f"({self.used_bytes}/{self.capacity_bytes}B used)")
        sim = self.sim
        sim.charge("msg_push", sim.costs.msg_push)
        msg_id = next(self._ids)
        used = self.used_bytes + size
        depth = len(self._in_flight) + 1
        obs = sim.obs
        if obs is not None:
            obs.inc("msgdom.pushes")
            obs.observe("msgdom.queue_depth", depth)
        self.used_bytes = used
        self.pushes += 1
        if used > self.peak_bytes:
            self.peak_bytes = used
        if depth > self.peak_in_flight:
            self.peak_in_flight = depth
        return size, msg_id

    def end_crossing(self, size: int) -> None:
        """The pull half of a crossing: ``msg_pull`` charge, release,
        stats and obs metrics (see :meth:`begin_crossing`)."""
        sim = self.sim
        sim.charge("msg_pull", sim.costs.msg_pull)
        self.used_bytes -= size
        self.pulls += 1
        obs = sim.obs
        if obs is not None:
            obs.inc("msgdom.pulls")
            obs.set_gauge("msgdom.used_bytes", self.used_bytes)

    # --- the root-rejuvenation state boundary -----------------------------
    #
    # In-flight buffers are kernel-side state a root microreboot must
    # carry across the teardown.  Everything exported here is JSON-safe
    # (the fleet layer will ship it); live ``Message`` objects travel
    # separately so in-flight dispatch frames keep their identity.

    def export_run_state(self, exclude: Tuple[int, ...] = ()) \
            -> Dict[str, object]:
        """In-flight slots + counters as plain data.  ``exclude`` names
        message ids deliberately left behind (orphaned wear slots — the
        reboot is what reclaims their bytes).  Peeking at the id counter
        does not consume an id."""
        excluded = set(exclude)
        next_id = next(self._ids)
        self._ids = itertools.count(next_id)
        return {
            "next_id": next_id,
            "slots": [[m.msg_id, m.sender, m.receiver, m.func,
                       m.payload_bytes, m.is_reply]
                      for msg_id, m in sorted(self._in_flight.items())
                      if msg_id not in excluded],
            "stats": [self.pushes, self.pulls, self.peak_bytes,
                      self.peak_in_flight],
        }

    def restore_run_state(self, state: Dict[str, object],
                          live: Optional[Dict[int, Message]]
                          = None) -> None:
        """Load an :meth:`export_run_state` snapshot into this (freshly
        re-initialised) domain.  ``live`` optionally maps msg_id to the
        pre-teardown :class:`Message` objects so frames holding them
        stay valid (and span ids survive); missing ids are rebuilt
        cold.  ``used_bytes`` is recomputed from the kept slots — that
        recomputation is exactly how excluded orphans are reclaimed."""
        self._ids = itertools.count(int(state["next_id"]))
        self._in_flight.clear()
        used = 0
        for msg_id, sender, receiver, func, size, is_reply \
                in state["slots"]:
            message = (live or {}).get(msg_id)
            if message is None:
                message = Message(msg_id=int(msg_id), sender=str(sender),
                                  receiver=str(receiver), func=str(func),
                                  payload_bytes=int(size),
                                  is_reply=bool(is_reply))
            self._in_flight[message.msg_id] = message
            used += message.payload_bytes
        self.used_bytes = used
        (self.pushes, self.pulls, self.peak_bytes,
         self.peak_in_flight) = (int(v) for v in state["stats"])
        self.region.used_bytes = used

    def in_flight_count(self) -> int:
        return len(self._in_flight)

    def drop_for(self, component: str) -> int:
        """Release any buffers addressed to a component being torn down
        (part of the reboot path's cleanup).

        Keeps the obs dashboard in sync: the ``msgdom.used_bytes``
        gauge tracks the release (push/pull already maintain it, so a
        reboot-time drop must too or dashboards show ghost bytes) and
        drops are counted separately.  Peak statistics are lifetime
        high-water marks and are deliberately not rewound.
        """
        doomed = [m for m in self._in_flight.values()
                  if m.receiver == component]
        for message in doomed:
            del self._in_flight[message.msg_id]
            self.used_bytes -= message.payload_bytes
        self.region.used_bytes = self.used_bytes
        obs = self.sim.obs
        if obs is not None and doomed:
            obs.inc("msgdom.drops", len(doomed))
            obs.set_gauge("msgdom.used_bytes", self.used_bytes)
        return len(doomed)
