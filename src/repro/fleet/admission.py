"""Admission control: per-tenant token buckets + shed accounting.

The load balancer protects the fleet with two gates, both integer and
O(1) per batch:

* a :class:`TokenBucket` per tenant — ``rate`` tokens refill each tick
  up to ``burst``; a batch of arrivals is admitted up to the tokens on
  hand, the rest are shed;
* queue-depth shedding at the chosen instance — the serving loop
  refuses a request whose queue weight would push the per-tick depth
  past capacity (that check lives in the campaign loop; the shed is
  charged here).

Every shed is a 429-style rejection the router still had to *answer*,
so it costs virtual time: :class:`ShedAccount` charges
:data:`SHED_CHARGE_US` per rejected request, exactly once — the
property tests hold ``sheds == charges`` and
``charged_us == sheds * SHED_CHARGE_US`` over arbitrary arrival
sequences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List

#: virtual time the balancer spends writing one 429 rejection
SHED_CHARGE_US = 4.0


class TokenBucket:
    """An integer token bucket: ``rate`` tokens per tick, ``burst``
    capacity, batch admission in O(1)."""

    __slots__ = ("rate", "burst", "tokens")

    def __init__(self, rate: int, burst: int) -> None:
        if rate < 0 or burst < 0:
            raise ValueError("rate and burst must be non-negative")
        self.rate = int(rate)
        self.burst = int(burst)
        self.tokens = int(burst)  # starts full

    def refill(self) -> None:
        tokens = self.tokens + self.rate
        self.tokens = tokens if tokens < self.burst else self.burst

    def take(self, requested: int) -> int:
        """Admit up to ``requested`` from the tokens on hand; returns
        the admitted count (the remainder is the caller's shed)."""
        if requested <= 0:
            return 0
        granted = requested if requested <= self.tokens else self.tokens
        self.tokens -= granted
        return granted


def naive_admission(rate: int, burst: int,
                    arrivals: Iterable[int]) -> List[int]:
    """The obviously-correct reference model the property tests hold
    :class:`TokenBucket` to: one refill per tick, then one token per
    request until the bucket is dry.  Returns admitted per tick."""
    tokens = burst
    admitted: List[int] = []
    for batch in arrivals:
        tokens = min(burst, tokens + rate)
        granted = 0
        for _ in range(max(0, batch)):
            if tokens > 0:
                tokens -= 1
                granted += 1
        admitted.append(granted)
    return admitted


@dataclass
class ShedAccount:
    """Virtual-time charging for rejected requests.

    ``sheds`` counts rejected requests, ``charges`` counts how many
    were charged, ``charged_us`` the virtual time spent answering
    them.  The serving loop calls :meth:`charge` at exactly one point
    per tenant-tick, so the "charged and counted exactly once"
    invariant is structural — and the claims re-verify it anyway.
    """

    sheds: int = 0
    charges: int = 0
    charged_us: float = 0.0

    def charge(self, count: int) -> None:
        if count <= 0:
            return
        self.sheds += count
        self.charges += count
        self.charged_us += count * SHED_CHARGE_US
