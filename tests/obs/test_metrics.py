"""Metrics primitives: bucketing, merging, serialisation."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set

import pytest

from repro.obs.metrics import (
    Gauge,
    Histogram,
    MetricsRegistry,
    bucket_bounds,
    bucket_index,
    fold,
    merge,
)
from repro.obs.slo import SloLedger
from repro.supervisor import RecoveryTelemetry


class TestBucketIndex:
    def test_sub_unit_values_share_the_minus_one_bucket(self):
        assert bucket_index(0.0) == -1
        assert bucket_index(0.05) == -1
        assert bucket_index(0.999) == -1

    def test_powers_of_two_open_their_own_bucket(self):
        assert bucket_index(1.0) == 0
        assert bucket_index(2.0) == 1
        assert bucket_index(1024.0) == 10
        assert bucket_index(1023.9) == 9

    def test_bounds_invert_the_index(self):
        for value in (0.3, 1.0, 7.5, 900.0, 2.0 ** 40):
            low, high = bucket_bounds(bucket_index(value))
            assert low <= value < high


class TestHistogram:
    def test_observe_tracks_count_total_min_max(self):
        hist = Histogram()
        for value in (3.0, 1.0, 10.0):
            hist.observe(value)
        assert hist.count == 3
        assert hist.total == 14.0
        assert hist.min == 1.0
        assert hist.max == 10.0
        assert hist.mean == 14.0 / 3

    def test_quantile_returns_bucket_upper_bound(self):
        hist = Histogram()
        for _ in range(99):
            hist.observe(2.5)  # bucket 1: [2, 4)
        hist.observe(1000.0)
        assert hist.quantile(0.5) == 4.0
        assert hist.quantile(1.0) == hist.max

    def test_merge_matches_serial_accumulation(self):
        serial = Histogram()
        left, right = Histogram(), Histogram()
        for value in (0.2, 5.0, 5.5):
            serial.observe(value)
            left.observe(value)
        for value in (70.0, 0.9):
            serial.observe(value)
            right.observe(value)
        merged = left.merged_with(right)
        assert merged.to_dict() == serial.to_dict()

    def test_merge_with_empty_side_keeps_min_max(self):
        hist = Histogram()
        hist.observe(4.0)
        assert Histogram().merged_with(hist).to_dict() == hist.to_dict()
        assert hist.merged_with(Histogram()).to_dict() == hist.to_dict()

    def test_roundtrip(self):
        hist = Histogram()
        for value in (0.1, 3.0, 3.1, 99.0):
            hist.observe(value)
        assert Histogram.from_dict(hist.to_dict()).to_dict() \
            == hist.to_dict()


class TestGauge:
    def test_last_value_and_peak(self):
        gauge = Gauge()
        for value in (5.0, 9.0, 2.0):
            gauge.set(value)
        assert gauge.value == 2.0
        assert gauge.peak == 9.0
        assert gauge.sets == 3

    def test_merge_later_shard_wins_when_it_wrote(self):
        early, late = Gauge(), Gauge()
        early.set(10.0)
        late.set(3.0)
        merged = early.merged_with(late)
        assert merged.value == 3.0
        assert merged.peak == 10.0

    def test_merge_silent_later_shard_keeps_earlier_value(self):
        early = Gauge()
        early.set(7.0)
        merged = early.merged_with(Gauge())
        assert merged.value == 7.0
        assert merged.sets == 1


class TestRegistryMerge:
    def test_sharded_merge_serialises_identically_to_serial(self):
        samples = [("a", 1.5), ("b", 0.4), ("a", 2.5), ("a", 80.0)]
        serial = MetricsRegistry()
        shards = [MetricsRegistry(), MetricsRegistry()]
        for index, (name, value) in enumerate(samples):
            serial.inc(f"count.{name}")
            serial.observe(f"hist.{name}", value)
            serial.set_gauge("depth", value)
            shard = shards[index // 2]
            shard.inc(f"count.{name}")
            shard.observe(f"hist.{name}", value)
            shard.set_gauge("depth", value)
        merged = MetricsRegistry()
        for shard in shards:
            merged.merge_from(shard)
        assert merged.to_dict() == serial.to_dict()

    def test_roundtrip(self):
        registry = MetricsRegistry()
        registry.inc("x", 3)
        registry.observe("h", 2.0)
        registry.set_gauge("g", 1.0)
        clone = MetricsRegistry.from_dict(registry.to_dict())
        assert clone.to_dict() == registry.to_dict()

    def test_merge_sums_folds_keywise(self):
        merged = merge({"a": 1, "b": 2}, {"b": 3, "c": 4})
        assert merged == {"a": 1, "b": 5, "c": 4}
        assert list(merged) == ["a", "b", "c"]


@dataclass
class _Shard:
    name: str = ""
    count: int = 0
    total_us: float = 0.0
    samples: List[float] = field(default_factory=list)
    per_key: Dict[str, Dict[str, int]] = field(default_factory=dict)
    hist: Histogram = field(default_factory=Histogram)


def _shard(name, count, samples, per_key):
    shard = _Shard(name=name, count=count, total_us=sum(samples),
                   samples=list(samples), per_key=per_key)
    for value in samples:
        shard.hist.observe(value)
    return shard


class TestShardMerge:
    """The rule :func:`merge` applies to each kind of value."""

    def test_dataclasses_merge_field_by_field(self):
        left = _shard("first", 2, [1.5, 3.0], {"a": {"x": 1}})
        right = _shard("second", 5, [0.25], {"a": {"x": 2, "y": 1},
                                            "b": {"z": 4}})
        merged = merge(left, right)
        assert merged.name == "first"
        assert merged.count == 7
        assert merged.total_us == 4.5 + 0.25
        assert merged.samples == [1.5, 3.0, 0.25]
        assert merged.per_key == {"a": {"x": 3, "y": 1}, "b": {"z": 4}}
        assert merged.hist.to_dict() \
            == left.hist.merged_with(right.hist).to_dict()

    def test_fold_merges_left_to_right_from_the_start_value(self):
        values = [0.1, 0.2, 0.3, 1e16, -1e16]
        serial = 0.0
        for value in values:
            serial += value
        shards = [_Shard(name=f"s{i}", total_us=value, samples=[value])
                  for i, value in enumerate(values)]
        folded = fold(_Shard(name="start"), shards)
        assert folded.name == "start"
        assert folded.samples == values
        assert folded.total_us == serial

    def test_folding_leaves_every_input_unchanged(self):
        shards = [_shard(f"s{i}", i, [float(i), 2.0 * i],
                         {"k": {"x": i}}) for i in range(4)]
        ledgers = []
        for i in range(3):
            ledger = SloLedger(enabled=True, label=f"shard{i}")
            ledger.note_state("VFS", "up", 0.0)
            ledger.note_requests("VFS", "app", ok=i, err=1)
            ledger.close(10.0 * (i + 1))
            ledgers.append(ledger)
        before = [repr(shard) for shard in shards]
        ledgers_before = [ledger.to_jsonable() for ledger in ledgers]
        fold(_Shard(), shards)
        fold(SloLedger(enabled=True), ledgers)
        assert [repr(shard) for shard in shards] == before
        assert [ledger.to_jsonable() for ledger in ledgers] \
            == ledgers_before

    def test_a_value_with_no_rule_raises(self):
        @dataclass
        class WithSet:
            members: Set[str] = field(default_factory=set)

        with pytest.raises(TypeError):
            merge(WithSet({"a"}), WithSet({"b"}))
        with pytest.raises(TypeError):
            merge(True, False)

    def test_recovery_telemetry_merges_canonically(self):
        early, late = RecoveryTelemetry(), RecoveryTelemetry()
        for component, rung in (("VFS", "replay-retry"),
                                ("VFS", "scope-widen"),
                                ("9PFS", "replay-retry")):
            early.note_rung(component, rung)
        early.note_recovered("VFS", "panic", "replay-retry", 0.0, 40.0)
        late.note_rung("VFS", "replay-retry")
        late.note_rung("LWIP", "fresh-restart")
        late.note_recovered("LWIP", "hang", "fresh-restart", 5.0, 900.0)
        late.note_recovered("VFS", "panic", "replay-retry", 7.0, 9.0)
        merged = merge(early, late)
        assert merged.rung_attempts == {
            "VFS": {"replay-retry": 2, "scope-widen": 1},
            "9PFS": {"replay-retry": 1},
            "LWIP": {"fresh-restart": 1}}
        assert merged.outcomes == early.outcomes + late.outcomes
        assert merged.mttr_hist.to_dict() \
            == early.mttr_hist.merged_with(late.mttr_hist).to_dict()
