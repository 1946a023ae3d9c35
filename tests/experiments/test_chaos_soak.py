"""CHAOS-SOAK: arm behavior, aggregation and jobs-determinism."""

from __future__ import annotations

import pytest

from repro.experiments import chaos_soak
from repro.parallel import trial_seeds


class TestSoakCell:
    def test_supervised_arm_never_dies(self):
        outcome = chaos_soak.soak_cell(chaos_soak.SUPERVISED_MODE,
                                       rounds=8, requests_per_round=4,
                                       seed=20240624)
        assert outcome.terminal == 0
        assert outcome.dead == 0
        assert outcome.requests == 8 * 4
        assert outcome.served == outcome.requests

    def test_inline_arm_fail_stops_on_chronic_faults(self):
        outcome = chaos_soak.soak_cell(chaos_soak.INLINE_MODE,
                                       rounds=8, requests_per_round=4,
                                       seed=20240624)
        assert outcome.terminal > 0
        assert outcome.dead > 0
        assert outcome.full_reboot_downtime_us > 0

    def test_cell_is_deterministic(self):
        first = chaos_soak.soak_cell(chaos_soak.SUPERVISED_MODE,
                                     rounds=5, requests_per_round=3,
                                     seed=99)
        second = chaos_soak.soak_cell(chaos_soak.SUPERVISED_MODE,
                                      rounds=5, requests_per_round=3,
                                      seed=99)
        assert first.requests == second.requests
        assert first.ok == second.ok
        assert first.served_errors == second.served_errors
        assert first.telemetry.rung_attempts == \
            second.telemetry.rung_attempts


    @pytest.mark.parametrize("seed", [20240659, 20240708, 20240724])
    def test_supervised_arm_survives_a_sweep_replay_failure(self, seed):
        """At these seeds a heartbeat-sweep reboot of 9PFS re-triggers
        its deterministic lookup bug in replay; the supervisor must take
        the failure over instead of letting the kernel fail-stop."""
        cell_seed = trial_seeds(seed, 1, label="chaos")[0]
        outcome = chaos_soak.soak_cell(chaos_soak.SUPERVISED_MODE,
                                       rounds=30, requests_per_round=6,
                                       seed=cell_seed)
        assert outcome.terminal == 0
        assert outcome.dead == 0


class TestTelemetryFoldSites:
    def test_no_open_degraded_interval_reaches_a_fold(self, monkeypatch):
        """``_harvest_telemetry`` closes open degraded intervals before
        it merges, so neither it nor ``_aggregate`` folds one."""
        open_at_harvest = []
        harvest = chaos_soak._harvest_telemetry

        def spy(app, outcome):
            telemetry = app.kernel.supervisor.telemetry
            open_at_harvest.append(dict(telemetry.degraded_open_since_us))
            harvest(app, outcome)
            assert outcome.telemetry.degraded_open_since_us == {}

        monkeypatch.setattr(chaos_soak, "_harvest_telemetry", spy)
        outcome = chaos_soak.soak_cell(chaos_soak.SUPERVISED_MODE,
                                       rounds=10, requests_per_round=4,
                                       seed=1)
        assert any(open_at_harvest)
        assert "VFS" in outcome.telemetry.degraded_closed_us
        total = chaos_soak._aggregate([outcome, outcome])
        assert total.telemetry.degraded_open_since_us == {}


class TestSoakReport:
    def test_claims_hold_and_jobs_invariant(self):
        serial = chaos_soak.run(rounds=8, requests_per_round=4,
                                seed=20240624, jobs=1)
        parallel = chaos_soak.run(rounds=8, requests_per_round=4,
                                  seed=20240624, jobs=2)
        assert serial.render() == parallel.render()
        assert serial.all_claims_hold

    def test_report_has_telemetry_subtable(self):
        report = chaos_soak.run(rounds=4, requests_per_round=3, seed=7)
        assert report.subtables
        title, headers, rows = report.subtables[0]
        assert "telemetry" in title
        assert headers == list(chaos_soak.ROW_HEADERS)

    def test_repeats_widen_the_campaign(self):
        single = chaos_soak.run(rounds=3, requests_per_round=3, seed=5)
        doubled = chaos_soak.run(rounds=3, requests_per_round=3, seed=5,
                                 repeats=2)

        def requests_of(report):
            for row in report.rows:
                if row[0] == "availability (served/requests)":
                    return row
            raise AssertionError("availability row missing")

        assert requests_of(single) != requests_of(doubled)
