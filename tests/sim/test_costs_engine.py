"""Unit tests for the cost model, ledger and simulation engine."""

import pytest

from repro.obs.metrics import merge
from repro.sim.costs import DEFAULT_COSTS, CostLedger, CostModel
from repro.sim.engine import Simulation


class TestCostModel:
    def test_defaults_are_positive(self):
        for name, value in DEFAULT_COSTS.as_dict().items():
            assert value >= 0, name

    def test_scaled(self):
        doubled = DEFAULT_COSTS.scaled(2.0)
        assert doubled.msg_push == DEFAULT_COSTS.msg_push * 2

    def test_with_overrides(self):
        model = DEFAULT_COSTS.with_overrides(msg_push=9.0)
        assert model.msg_push == 9.0
        assert model.msg_pull == DEFAULT_COSTS.msg_pull

    def test_overrides_do_not_mutate_original(self):
        DEFAULT_COSTS.with_overrides(msg_push=9.0)
        assert DEFAULT_COSTS.msg_push != 9.0

    def test_vampos_dispatch_costlier_than_direct_call(self):
        """The defining cost relation of the whole evaluation."""
        per_hop = (DEFAULT_COSTS.msg_push + DEFAULT_COSTS.msg_pull
                   + DEFAULT_COSTS.thread_switch)
        assert per_hop > DEFAULT_COSTS.function_call


class TestCostLedger:
    def test_charge_accumulates(self):
        ledger = CostLedger()
        ledger.charge("a", 2.0)
        ledger.charge("a", 3.0)
        ledger.charge("b", 5.0)
        assert ledger.totals["a"] == 5.0
        assert ledger.counts["a"] == 2
        assert ledger.total_us() == 10.0

    def test_breakdown_sums_to_one(self):
        ledger = CostLedger()
        ledger.charge("a", 1.0)
        ledger.charge("b", 3.0)
        breakdown = ledger.breakdown()
        assert abs(sum(breakdown.values()) - 1.0) < 1e-9
        assert list(breakdown)[0] == "b"  # sorted descending

    def test_breakdown_empty(self):
        assert CostLedger().breakdown() == {}

    def test_merged_with(self):
        a, b = CostLedger(), CostLedger()
        a.charge("x", 1.0)
        b.charge("x", 2.0)
        b.charge("y", 3.0)
        merged = merge(a, b)
        assert merged.totals == {"x": 3.0, "y": 3.0}
        assert merged.counts == {"x": 2, "y": 1}
        assert merged.elapsed_us == 6.0

    def test_reset(self):
        ledger = CostLedger()
        ledger.charge("x", 1.0)
        ledger.reset()
        assert ledger.total_us() == 0.0


class TestSimulation:
    def test_charge_advances_clock_and_ledger(self):
        sim = Simulation()
        sim.charge("io", 10.0)
        assert sim.clock.now_us == 10.0
        assert sim.ledger.totals["io"] == 10.0

    def test_zero_charge_recorded(self):
        sim = Simulation()
        sim.charge("noop", 0.0)
        assert sim.ledger.counts["noop"] == 1
        assert sim.clock.now_us == 0.0

    def test_emit_stamps_current_time(self):
        sim = Simulation()
        sim.charge("x", 5.0)
        sim.emit("cat", "evt", value=1)
        event = sim.trace.last("cat", "evt")
        assert event is not None
        assert event.t_us == 5.0
        assert event.detail["value"] == 1


class TestDeterminism:
    def test_same_seed_same_streams(self):
        a = Simulation(seed=7)
        b = Simulation(seed=7)
        assert [a.rng.stream("x").random() for _ in range(5)] == \
               [b.rng.stream("x").random() for _ in range(5)]

    def test_streams_are_independent(self):
        a = Simulation(seed=7)
        b = Simulation(seed=7)
        # Draw from another stream first in one sim only.
        a.rng.stream("noise").random()
        assert a.rng.stream("x").random() == b.rng.stream("x").random()

    def test_different_seeds_differ(self):
        a = Simulation(seed=1)
        b = Simulation(seed=2)
        assert a.rng.stream("x").random() != b.rng.stream("x").random()

    def test_fork_is_deterministic(self):
        a = Simulation(seed=7).rng.fork("child")
        b = Simulation(seed=7).rng.fork("child")
        assert a.stream("s").random() == b.stream("s").random()
