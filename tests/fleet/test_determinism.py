"""Fleet determinism: byte-identical at any ``--jobs``, and the
fast paths invisible per instance under ``reference_mode``."""

from __future__ import annotations

import io

import pytest

from repro.cli import main
from repro.fastpath import reference_mode
from repro.fleet import FleetSpec, fleet_cell, run
from repro.parallel import shard_seed

TINY = FleetSpec(shards=2, replicas=2, ticks=20, base_rate=40,
                 queue_capacity=150, revive_ticks=3)


def test_report_is_identical_at_any_jobs_count():
    serial = run(TINY, seed=20240808, jobs=1)
    parallel = run(TINY, seed=20240808, jobs=4)
    assert serial == parallel
    assert serial.render() == parallel.render()
    assert serial.to_csv() == parallel.to_csv()


@pytest.mark.slow
def test_cli_stdout_is_byte_identical_across_jobs():
    argv = ["fleet", "--quick", "--seed", "99"]
    serial, parallel = io.StringIO(), io.StringIO()
    assert main(argv + ["--jobs", "1"], out=serial) == 0
    assert main(argv + ["--jobs", "2"], out=parallel) == 0
    assert serial.getvalue() == parallel.getvalue()


def test_reference_mode_ledger_parity_per_instance():
    """Disabling every fast path must not move a single charge in any
    instance's cost ledger: totals, counts and charged virtual time
    are compared per instance, exactly."""
    seed = shard_seed(20240808, "fleet", 0)
    fast = fleet_cell(TINY, 0, seed).routed
    with reference_mode():
        reference = fleet_cell(TINY, 0, seed).routed
    assert set(fast.instance_ledgers) == set(reference.instance_ledgers)
    for name, ledger in fast.instance_ledgers.items():
        twin = reference.instance_ledgers[name]
        assert ledger["totals"] == twin["totals"], name
        assert ledger["counts"] == twin["counts"], name
        assert ledger["elapsed_us"] == twin["elapsed_us"], name
