"""Structured event trace.

Mechanisms emit :class:`TraceEvent` records (message pushes, dispatches,
reboots, faults, request completions).  Tests and examples assert on the
trace to verify behaviour ("the VFS thread was dispatched before 9PFS",
"no message crossed a rebooting component"), and subscribers (the fault
injector's root-cause hooks, the crucible runner) react to events as
they are emitted.  Nothing in the library reads retained events back.

A trace is a ring buffer: it keeps the newest :data:`TRACE_RING_SIZE`
events by default, so a long run holds a bounded window instead of its
whole history.  Subscribers still see every event, and evictions are
counted in ``dropped`` (and reported through ``on_drop``).
"""

from __future__ import annotations

from collections import deque
from types import MappingProxyType
from typing import (Any, Callable, Deque, Iterator, List, Mapping,
                    NamedTuple, Optional)

#: events a default :class:`Trace` retains before evicting the oldest
TRACE_RING_SIZE = 2048

_NO_DETAIL: Mapping[str, Any] = MappingProxyType({})


class TraceEvent(NamedTuple):
    """One traced occurrence at a point in virtual time (immutable)."""

    t_us: float
    category: str
    name: str
    detail: Mapping[str, Any] = _NO_DETAIL

    def matches(self, category: Optional[str] = None,
                name: Optional[str] = None, **detail: Any) -> bool:
        if category is not None and self.category != category:
            return False
        if name is not None and self.name != name:
            return False
        for key, value in detail.items():
            if self.detail.get(key) != value:
                return False
        return True


class Trace:
    """A ring buffer of recent events with query helpers.

    ``max_events`` sizes the ring (``None`` keeps every event, for short
    runs that want the whole history).
    """

    def __init__(self, max_events: Optional[int] = TRACE_RING_SIZE) -> None:
        # deque(maxlen) evicts the oldest event in O(1) per append.
        self._events: Deque[TraceEvent] = deque(maxlen=max_events)
        self._max_events = max_events
        #: events evicted by the ring buffer
        self.dropped = 0
        #: optional eviction hook — the flight recorder counts ring
        #: drops into the recording through it
        self.on_drop: Optional[Callable[[], None]] = None
        self._subscribers: List[Callable[[TraceEvent], None]] = []

    def emit(self, t_us: float, category: str, name: str,
             **detail: Any) -> None:
        self.record(t_us, category, name, detail)

    def record(self, t_us: float, category: str, name: str,
               detail: Mapping[str, Any]) -> None:
        """:meth:`emit` with the detail mapping passed as is (the trace
        keeps it, so the caller must not mutate it afterwards)."""
        event = TraceEvent(t_us, category, name, detail)
        events = self._events
        if len(events) == self._max_events:
            self.dropped += 1
            if self.on_drop is not None:
                self.on_drop()
        events.append(event)
        if self._subscribers:
            # Iterate a snapshot: a subscriber may unsubscribe itself
            # (or others) while handling the event.
            for subscriber in tuple(self._subscribers):
                subscriber(event)

    def subscribe(self, callback: Callable[[TraceEvent], None]) -> None:
        """Call ``callback`` for every future recorded event, including
        those the ring later evicts."""
        self._subscribers.append(callback)

    def unsubscribe(self, callback: Callable[[TraceEvent], None]) -> None:
        """Stop delivering events to ``callback``; a no-op when it is
        not (or no longer) subscribed.  Safe to call from within the
        callback itself."""
        try:
            self._subscribers.remove(callback)
        except ValueError:
            pass

    # --- queries -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)

    @property
    def events(self) -> List[TraceEvent]:
        return list(self._events)

    def select(self, category: Optional[str] = None,
               name: Optional[str] = None, **detail: Any) -> List[TraceEvent]:
        return [e for e in self._events
                if e.matches(category=category, name=name, **detail)]

    def count(self, category: Optional[str] = None,
              name: Optional[str] = None, **detail: Any) -> int:
        return len(self.select(category=category, name=name, **detail))

    def first(self, category: Optional[str] = None,
              name: Optional[str] = None, **detail: Any) -> Optional[TraceEvent]:
        for e in self._events:
            if e.matches(category=category, name=name, **detail):
                return e
        return None

    def last(self, category: Optional[str] = None,
             name: Optional[str] = None, **detail: Any) -> Optional[TraceEvent]:
        for e in reversed(self._events):
            if e.matches(category=category, name=name, **detail):
                return e
        return None

    def between(self, start_us: float, end_us: float) -> List[TraceEvent]:
        return [e for e in self._events if start_us <= e.t_us <= end_us]

    def clear(self) -> None:
        self._events.clear()
