"""Multi-seed folds pinned to known reports.

``chaos-soak`` and ``ABL-CAMPAIGN`` fold their per-seed cells with the
shard merge rule (:func:`repro.obs.metrics.fold`).  The jobs-1 vs
jobs-N tests run the same fold on both sides, so they cannot see a
change in the fold itself; these renders, saved from the hand-written
per-experiment folds the shared rule replaced, can.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.experiments import chaos_soak, fault_campaign

HERE = pathlib.Path(__file__).parent

PINNED = {
    "chaos_soak_3seeds_seed20240624.txt": (
        chaos_soak.run, dict(rounds=6, requests_per_round=4,
                             seed=20240624, repeats=3)),
    "fault_campaign_3seeds_seed131.txt": (
        fault_campaign.run, dict(faults=6, requests_per_fault=3,
                                 repeats=3)),
}


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("pinned", sorted(PINNED))
def test_multi_seed_fold_matches_pinned_report(pinned, jobs):
    run, kwargs = PINNED[pinned]
    report = run(jobs=jobs, **kwargs)
    assert report.render() + "\n" == (HERE / pinned).read_text()
