"""Golden pin for default-size fleet shard cells.

The report prints only two-decimal p50/p99 latencies, so a shifted
histogram bucket, a skipped ``fleet/serve`` draw or a reordered float
sum can hide behind it.  This pin holds every tenant's counts and its
full latency histogram — ``total`` included, which only matches when
the samples are summed in arrival order — for both arms of shards 0
and 1 at seed 20240809.  Shard 0 holds the diurnal and flash-crowd
tenants; shard 1 the slow clients (three queue slots per request) and
the retry storm (next-tick retries fed back from errors).

Regenerate (only when the serving model changes on purpose) with::

    PYTHONPATH=src python -m tests.fleet.test_cell_pin
"""

from __future__ import annotations

import json
import pathlib
from typing import Any, Dict

import pytest

from repro.fleet import FleetSpec, fleet_cell
from repro.fleet.campaign import ShardPair
from repro.parallel import shard_seed

PIN = pathlib.Path(__file__).with_name("cell_pin_seed20240809.json")

#: the pinned shards of the default-size campaign at seed 20240809
SHARDS = (0, 1)


def cell_summary(pair: ShardPair) -> Dict[str, Any]:
    """Each arm's per-tenant counts and full latency histogram."""
    return {
        outcome.arm: {
            name: {"offered": stats.offered, "ok": stats.ok,
                   "err": stats.err, "shed": stats.shed,
                   "latency": stats.latency.to_dict()}
            for name, stats in sorted(outcome.tenants.items())}
        for outcome in (pair.routed, pair.static)}


def pinned_cell(shard: int) -> ShardPair:
    return fleet_cell(FleetSpec(), shard,
                      shard_seed(20240809, "fleet", shard))


@pytest.mark.parametrize("shard", SHARDS)
def test_default_cell_matches_the_pin(shard):
    expected = json.loads(PIN.read_text())[str(shard)]
    assert cell_summary(pinned_cell(shard)) == expected


if __name__ == "__main__":
    PIN.write_text(json.dumps(
        {str(shard): cell_summary(pinned_cell(shard))
         for shard in SHARDS}, indent=1, sort_keys=True) + "\n")
