"""Campaign behaviour: paired arms, conservation, claims, report."""

from __future__ import annotations

import gc
import pathlib

import pytest

from repro.fleet import FleetSpec, fleet_cell, run
from repro.fleet.campaign import ROUTED_ARM, STATIC_ARM, _add_scale_claim
from repro.fleet.instance import FleetInstance
from repro.metrics.report import ExperimentReport
from repro.obs.slo import SLO_ROW_HEADERS
from repro.parallel import shard_seed

#: small enough for tier-1, big enough that every instance dies once
#: and every tenant profile appears
TINY = FleetSpec(shards=2, replicas=2, ticks=20, base_rate=40,
                 queue_capacity=150, revive_ticks=3)

#: ``run(TINY, seed=20240808).render()`` as the per-(arm, shard) cells
#: rendered it, when each arm simulated its own copy of every instance
TINY_REPORT = pathlib.Path(__file__).with_name(
    "tiny_report_seed20240808.txt")


@pytest.fixture(scope="module")
def tiny_report():
    return run(TINY, seed=20240808, jobs=1)


def test_all_claims_hold(tiny_report):
    assert tiny_report.claims, "campaign must self-verify"
    failing = [c for c in tiny_report.claims if not c.holds]
    assert not failing, [c.description for c in failing]


def test_health_routed_arm_beats_static(tiny_report):
    beats = [c for c in tiny_report.claims
             if "beats static round-robin overall" in c.description]
    assert len(beats) == 1 and beats[0].holds


def test_retry_storm_tenants_benefit_from_routing(tiny_report):
    storm = [c for c in tiny_report.claims
             if "under retry storms" in c.description]
    assert len(storm) == 1 and storm[0].holds


def test_per_tenant_subtable_covers_every_tenant(tiny_report):
    tables = {title: (headers, rows)
              for title, headers, rows in tiny_report.subtables}
    _, rows = tables["per-tenant availability & tail latency"]
    assert len(rows) == TINY.tenants
    assert {row[1] for row in rows} == {"diurnal", "flash_crowd",
                                        "slow_clients", "retry_storm"}


def test_slo_subtable_uses_observatory_headers(tiny_report):
    tables = {title: (headers, rows)
              for title, headers, rows in tiny_report.subtables}
    headers, rows = tables[
        "SLO ledger — per-instance availability (health-routed arm)"]
    assert headers == SLO_ROW_HEADERS
    assert len(rows) == TINY.instances


SCALE_CLAIM = ("each arm is offered >= 5x10^5 requests across the same "
               ">= 32 instances")


def test_scale_claim_is_gated_off_below_32_instances(tiny_report):
    assert not any(c.description == SCALE_CLAIM for c in tiny_report.claims)


@pytest.mark.parametrize("routed, static, holds", [
    (500_000, 500_000, True),
    (649_092, 664_968, True),
    (499_999, 600_000, False),
    (1_000_000, 0, False),   # the old cross-arm sum would have passed
])
def test_scale_claim_holds_per_arm(routed, static, holds):
    report = ExperimentReport(experiment_id="FLEET", paper_artifact="")
    _add_scale_claim(report, 32, routed, static)
    (claim,) = report.claims
    assert claim.description == SCALE_CLAIM
    assert claim.holds is holds
    assert claim.measured == (
        f"{routed} {ROUTED_ARM} / {static} {STATIC_ARM} requests "
        "offered, 32 instances")


def test_scale_claim_reads_each_arms_offered_row():
    spec = FleetSpec(ticks=3, base_rate=20)
    report = run(spec, seed=20240808, jobs=1)
    (offered,) = [row for row in report.rows
                  if row[0] == "requests offered"]
    (claim,) = [c for c in report.claims if c.description == SCALE_CLAIM]
    assert spec.instances == 32
    assert claim.measured.startswith(
        f"{offered[1]} {ROUTED_ARM} / {offered[2]} {STATIC_ARM} ")
    assert claim.holds is (min(offered[1], offered[2]) >= 500_000)


@pytest.mark.parametrize("jobs", [1, 2])
def test_report_matches_the_per_arm_design(jobs):
    """Nothing an arm does reaches an instance, so serving both arms
    from one instance pass renders the report that simulating every
    instance once per arm did."""
    report = run(TINY, seed=20240808, jobs=jobs)
    assert report.render() + "\n" == TINY_REPORT.read_text()


def test_each_instance_is_probed_once_per_tick(monkeypatch):
    probes = []
    probe = FleetInstance.probe

    def counting_probe(self, tick):
        probes.append((self.name, tick))
        return probe(self, tick)

    monkeypatch.setattr(FleetInstance, "probe", counting_probe)
    run(TINY, seed=20240808, jobs=1)
    assert len(probes) == TINY.instances * TINY.ticks
    assert len(set(probes)) == len(probes)


class TestFleetCell:
    @pytest.fixture(scope="class")
    def pair(self):
        return fleet_cell(TINY, 0, shard_seed(20240808, "fleet", 0))

    @pytest.fixture(scope="class")
    def arms(self, pair):
        return pair.routed, pair.static

    def test_one_cell_serves_both_arms(self, pair):
        assert (pair.routed.arm, pair.static.arm) \
            == (ROUTED_ARM, STATIC_ARM)
        assert pair.offered \
            == pair.routed.offered + pair.static.offered > 0

    def test_paired_arms_share_the_fault_schedule(self, arms):
        routed, static = arms
        assert routed.kills == static.kills > 0
        assert routed.revives == static.revives
        assert routed.faults_injected == static.faults_injected
        assert routed.instance_ledgers == static.instance_ledgers

    def test_conservation_per_arm(self, arms):
        for outcome in arms:
            assert outcome.offered \
                == outcome.ok + outcome.err + outcome.shed

    def test_sheds_charged_exactly_once(self, arms):
        for outcome in arms:
            assert outcome.shed_account.sheds == outcome.shed
            assert outcome.shed_account.charges == outcome.shed

    def test_health_arm_never_misroutes(self, arms):
        routed, _ = arms
        assert routed.misroutes == 0

    def test_slo_ledger_sees_every_instance(self, arms):
        routed, _ = arms
        components = routed.slo.components()
        assert components == sorted(routed.instance_ledgers)
        for name in components:
            availability = routed.slo.availability(name)
            assert availability is not None
            assert 0.0 <= availability <= 1.0

    def test_cell_frees_its_kernels_as_it_ends(self):
        """The replicas' kernels sit in reference cycles; the cell
        collects them before it returns, so none outlive it.  No
        collection is forced between the two counts."""
        from repro.core.runtime import VampOSKernel

        def kernels():
            return sum(1 for obj in gc.get_objects()
                       if isinstance(obj, VampOSKernel))

        gc.collect()
        before = kernels()
        fleet_cell(FleetSpec.quick(), 0, shard_seed(20240808, "fleet", 0))
        assert kernels() == before
