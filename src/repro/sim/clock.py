"""Virtual time for the simulation.

Every mechanism in the reproduction charges *virtual microseconds* to a
shared :class:`VirtualClock` instead of consuming wall-clock time.  This
keeps every experiment deterministic and lets the benchmark harness
reason about downtime, latency and throughput without a real CPU or a
real network.

The clock moves forward, except where the parallel-recovery scheduler
seeks it between overlapping reboot tracks (:meth:`VirtualClock.seek`).
Components, the VampOS runtime, and the workload generators all share
one clock owned by the simulation :class:`~repro.sim.engine.Simulation`
(or created standalone in tests).
"""

from __future__ import annotations


class ClockError(Exception):
    """Raised on invalid clock operations (e.g. moving time backwards)."""


class VirtualClock:
    """A virtual clock measured in microseconds.

    The clock supports two styles of use:

    * ``advance(us)`` — charge a cost: "this operation took *us*
      microseconds of virtual time".
    * ``advance_to(t)`` — jump to an absolute point, used by workload
      generators that pace requests ("the next request arrives at t").
    """

    def __init__(self, start_us: float = 0.0) -> None:
        if start_us < 0:
            raise ClockError("clock cannot start before time zero")
        self._now_us: float = float(start_us)

    @property
    def now_us(self) -> float:
        """Current virtual time in microseconds."""
        return self._now_us

    @property
    def now_ms(self) -> float:
        """Current virtual time in milliseconds."""
        return self._now_us / 1_000.0

    @property
    def now_s(self) -> float:
        """Current virtual time in seconds."""
        return self._now_us / 1_000_000.0

    def advance(self, delta_us: float) -> float:
        """Move time forward by ``delta_us`` microseconds.

        Returns the new time.  A zero delta is allowed (free operations)
        but a negative delta raises :class:`ClockError`.
        """
        if delta_us < 0:
            raise ClockError(f"cannot advance clock by negative {delta_us}")
        self._now_us += delta_us
        return self._now_us

    def advance_to(self, t_us: float) -> float:
        """Jump forward to absolute time ``t_us``.

        Jumping to the current time (or earlier) is a no-op so that
        workload generators can schedule "now or later" uniformly.
        """
        if t_us <= self._now_us:
            return self._now_us
        return self.advance(t_us - self._now_us)

    def seek(self, t_us: float) -> float:
        """Set the clock to absolute ``t_us`` — the parallel-recovery
        scheduler's track primitive.

        Overlapping recovery tracks each start at their own ready time:
        the scheduler seeks back to that time before running a track,
        and seeks forward to the max track end (the "max-merge") once
        every track has run, so concurrent reboots cost the critical
        path instead of the sum.
        """
        if t_us < 0:
            raise ClockError("cannot seek before time zero")
        self._now_us = float(t_us)
        return self._now_us


def us_from_s(s: float) -> float:
    """Convert seconds to microseconds."""
    return s * 1_000_000.0
