"""Mergeable metrics: counters, gauges and log-bucketed histograms.

The flight recorder's quantitative half.  Every instrument is designed
around one invariant: a metrics registry folded from per-shard
registries in canonical cell order is **byte-identical** (once
serialised with sorted keys) to the registry a serial run accumulates —
the same contract the parallel engine's report merging already honours.

* :class:`Counter` values and histogram buckets merge by summation
  (commutative + associative, so worker completion order is
  irrelevant);
* :class:`Gauge` carries its last-written value *and* its peak; "last"
  is resolved in canonical shard order, which matches the serial
  execution order by construction;
* :class:`Histogram` buckets virtual-microsecond samples into log2
  bins (bucket ``i`` holds samples in ``[2**i, 2**(i+1))``), so two
  shards' distributions union exactly — no quantile sketch drift.

:func:`merge` and :func:`fold` are the shard merge rule every per-shard
ledger in the reproduction folds through, these instruments included.

Nothing here touches the virtual clock or the RNG: recording a sample
is purely observational.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field, fields, is_dataclass
from functools import reduce
from typing import Any, Dict, Iterable, Sequence, Tuple, TypeVar

T = TypeVar("T")


def merge(left: Any, right: Any) -> Any:
    """Merge two shard values; ``left`` is the earlier in canonical
    order.

    Numbers add, lists concatenate, dicts merge key-wise (a key only
    ``right`` holds is taken as is), strings keep ``left``, a type with
    a ``merged_with`` method merges itself, and dataclasses merge field
    by field.  Anything else raises :class:`TypeError`.  No input is
    mutated.
    """
    if isinstance(left, (int, float)) and not isinstance(left, bool):
        return left + right
    if isinstance(left, str):
        return left
    if isinstance(left, list):
        return left + right
    if isinstance(left, dict):
        out = dict(left)
        for key, value in right.items():
            out[key] = merge(out[key], value) if key in out else value
        return out
    if hasattr(left, "merged_with"):
        return left.merged_with(right)
    if is_dataclass(left):
        return type(left)(**{f.name: merge(getattr(left, f.name),
                                           getattr(right, f.name))
                             for f in fields(left)})
    raise TypeError(f"no shard merge rule for {type(left).__name__}")


def fold(start: T, items: Iterable[T]) -> T:
    """:func:`merge` ``items`` into ``start`` left to right: the
    caller passes the empty value and the shards in canonical order,
    so float sums add in the order a serial run adds them."""
    return reduce(merge, items, start)


def bucket_index(value: float) -> int:
    """The log2 bucket a sample lands in (``-1`` holds zeros and
    sub-microsecond values below 1.0)."""
    if value < 1.0:
        return -1
    # floor(log2(value)) via frexp: exact for the powers of two where
    # log2() would wobble on some libm builds.
    mantissa, exponent = math.frexp(value)
    return exponent - 1


def bucket_bounds(index: int) -> Tuple[float, float]:
    """The ``[low, high)`` range of a bucket index."""
    if index < 0:
        return (0.0, 1.0)
    return (float(2 ** index), float(2 ** (index + 1)))


@dataclass
class Gauge:
    """A last-value instrument with its lifetime peak."""

    value: float = 0.0
    peak: float = 0.0
    sets: int = 0

    def set(self, value: float) -> None:
        self.value = value
        if self.sets == 0 or value > self.peak:
            self.peak = value
        self.sets += 1

    def merged_with(self, other: "Gauge") -> "Gauge":
        """``other`` is the later shard in canonical order: its last
        value wins (when it wrote at all); peaks combine."""
        out = Gauge(value=other.value if other.sets else self.value,
                    peak=max(self.peak, other.peak),
                    sets=self.sets + other.sets)
        return out

    def to_dict(self) -> Dict[str, float]:
        return {"value": self.value, "peak": self.peak, "sets": self.sets}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Gauge":
        return cls(value=float(data["value"]), peak=float(data["peak"]),
                   sets=int(data["sets"]))


@dataclass
class Histogram:
    """Log2-bucketed distribution of virtual-microsecond samples."""

    count: int = 0
    total: float = 0.0
    min: float = 0.0
    max: float = 0.0
    buckets: Dict[int, int] = field(default_factory=dict)

    def observe(self, value: float) -> None:
        value = float(value)
        if self.count == 0:
            self.min = value
            self.max = value
        else:
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value
        self.count += 1
        self.total += value
        index = bucket_index(value)
        self.buckets[index] = self.buckets.get(index, 0) + 1

    def observe_many(self, values: Sequence[float]) -> None:
        """Observe ``values`` in order: the same count, total, min, max
        and buckets as one :meth:`observe` per value.

        ``total`` adds the values left to right, as the one-by-one
        calls do; ``sum()`` would not (it compensates from Python 3.12
        on).  Bucketing is monotone, so a batch whose min and max share
        a bucket fills just that one; a wider batch is counted off one
        sort, one bisection per occupied bucket.
        """
        if not values:
            return
        total = self.total
        for value in values:
            total += value
        if not math.isfinite(total):
            # an infinite or NaN sample: min, max and the bucket order
            # no longer apply, so take the batch one value at a time
            for value in values:
                self.observe(value)
            return
        # min() and max() keep the first of equal values, as observe does
        low = float(min(values))
        high = float(max(values))
        if self.count == 0:
            self.min = low
            self.max = high
        else:
            if low < self.min:
                self.min = low
            if high > self.max:
                self.max = high
        self.count += len(values)
        self.total = total
        buckets = self.buckets
        index = bucket_index(low)
        if index == bucket_index(high):
            buckets[index] = buckets.get(index, 0) + len(values)
            return
        ordered = sorted(values)
        start = 0
        while start < len(ordered):
            index = bucket_index(ordered[start])
            # the top bucket of a finite float has no finite upper bound
            upper = 2.0 ** (index + 1) if index < 1023 else math.inf
            stop = bisect_left(ordered, upper, start)
            buckets[index] = buckets.get(index, 0) + stop - start
            start = stop

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Bucket-resolution quantile estimate (upper bucket bound)."""
        if self.count == 0:
            return 0.0
        rank = q * self.count
        seen = 0
        for index in sorted(self.buckets):
            seen += self.buckets[index]
            if seen >= rank:
                # The open bucket bound can overshoot the largest value
                # actually seen; max is a tighter (and exact) ceiling.
                return min(bucket_bounds(index)[1], self.max)
        return self.max

    def merged_with(self, other: "Histogram") -> "Histogram":
        if self.count == 0:
            low, high = other.min, other.max
        elif other.count == 0:
            low, high = self.min, self.max
        else:
            low, high = min(self.min, other.min), max(self.max, other.max)
        return Histogram(
            count=self.count + other.count,
            total=self.total + other.total,
            min=low, max=high,
            buckets=merge(self.buckets, other.buckets))

    def to_dict(self) -> Dict[str, Any]:
        return {"count": self.count, "total": self.total,
                "min": self.min, "max": self.max,
                "buckets": {str(k): v
                            for k, v in sorted(self.buckets.items())}}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Histogram":
        return cls(count=int(data["count"]), total=float(data["total"]),
                   min=float(data["min"]), max=float(data["max"]),
                   buckets={int(k): int(v)
                            for k, v in data["buckets"].items()})


class MetricsRegistry:
    """A named bag of counters, gauges and histograms.

    One registry lives on each process's obs collector; experiment
    shards running in pool workers hand theirs back to the parent,
    which folds them in canonical cell order via :meth:`merge_from`.
    """

    def __init__(self) -> None:
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, Gauge] = {}
        self.histograms: Dict[str, Histogram] = {}

    # --- recording (the instrumented hot paths call these) ----------------

    def inc(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def set_gauge(self, name: str, value: float) -> None:
        gauge = self.gauges.get(name)
        if gauge is None:
            gauge = self.gauges[name] = Gauge()
        gauge.set(value)

    def observe(self, name: str, value: float) -> None:
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = Histogram()
        hist.observe(value)

    # --- merging ----------------------------------------------------------

    def merge_from(self, other: "MetricsRegistry") -> None:
        """Fold ``other`` (the later shard in canonical order) in."""
        self.counters = merge(self.counters, other.counters)
        self.gauges = merge(self.gauges, other.gauges)
        self.histograms = merge(self.histograms, other.histograms)

    # --- serialisation ----------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "counters": {k: self.counters[k]
                         for k in sorted(self.counters)},
            "gauges": {k: self.gauges[k].to_dict()
                       for k in sorted(self.gauges)},
            "histograms": {k: self.histograms[k].to_dict()
                           for k in sorted(self.histograms)},
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "MetricsRegistry":
        out = cls()
        out.counters = dict(data.get("counters", {}))
        out.gauges = {k: Gauge.from_dict(v)
                      for k, v in data.get("gauges", {}).items()}
        out.histograms = {k: Histogram.from_dict(v)
                          for k, v in data.get("histograms", {}).items()}
        return out

    def is_empty(self) -> bool:
        return not (self.counters or self.gauges or self.histograms)
