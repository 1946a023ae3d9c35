"""The batched ``_Arm.serve`` against serving one request at a time.

``serve_one_by_one`` serves each admitted request alone: one ``route``
call, one ``fleet/serve`` draw and one ``Histogram.observe`` per
request.  It is the reference model for the batch, the way
``naive_admission`` is for the token bucket.  Over arbitrary probe
reports — healthy, degraded, failed and dead instances, small queues
that shed, every tenant profile — the batch must leave the same
counts, histograms (floats compared by ``repr``), SLO ledger, router,
retry feedback and serve stream state.
"""

from __future__ import annotations

from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet.campaign import ROUTED_ARM, STATIC_ARM, FleetSpec, _Arm
from repro.fleet.instance import ProbeReport

TIMEOUT_US = FleetSpec().timeout_us


def serve_one_by_one(arm, tick, instances, reports):
    """The reference: route, price and observe each request alone."""
    spec = arm.spec
    router = arm.router
    outcome = arm.outcome
    slo = outcome.slo
    serve_rng = arm.serve_rng
    capacity = spec.queue_capacity
    now_us = tick * spec.tick_us
    for idx, (inst, report) in enumerate(zip(instances, reports)):
        router.observe(idx, report.observation())
        slo.note_state(inst.name, report.state(), now_us)
    loads = [0.0] * spec.replicas
    for tenant in arm.tenants:
        arrived = tenant.arrivals(tick, spec.ticks)
        bucket = arm.buckets[tenant.name]
        bucket.refill()
        admitted = bucket.take(arrived)
        queue_shed = ok = err = 0
        weight = tenant.profile.weight
        latency_mult = tenant.profile.latency_mult
        stats = outcome.tenants[tenant.name]
        hist = stats.latency
        per_ok = [0] * spec.replicas
        per_err = [0] * spec.replicas
        for _ in range(admitted):
            idx = router.route(loads)
            if loads[idx] + weight > capacity:
                queue_shed += 1
                continue
            loads[idx] += weight
            report = reports[idx]
            jitter = 0.9 + 0.2 * serve_rng.random()
            if report.dead:
                err += 1
                per_err[idx] += 1
                hist.observe(spec.timeout_us)
            elif report.degraded or not report.ok:
                err += 1
                per_err[idx] += 1
                hist.observe(report.service_us * spec.errpage_mult
                             * jitter)
            else:
                ok += 1
                per_ok[idx] += 1
                depth = 1.0 + loads[idx] / capacity
                hist.observe(report.service_us * latency_mult
                             * depth * jitter)
        shed = (arrived - admitted) + queue_shed
        outcome.shed_account.charge(shed)
        tenant.feed_back(err)
        stats.offered += arrived
        stats.ok += ok
        stats.err += err
        stats.shed += shed
        for idx, inst in enumerate(instances):
            slo.note_requests(inst.name, tenant.name,
                              ok=per_ok[idx], err=per_err[idx])


def probe(kind, service_us):
    if kind == "dead":
        return ProbeReport(ok=False, degraded=False, dead=True,
                           service_us=TIMEOUT_US)
    if kind == "failed":
        return ProbeReport(ok=False, degraded=False, dead=False,
                           service_us=TIMEOUT_US)
    return ProbeReport(ok=True, degraded=kind == "degraded", dead=False,
                       service_us=service_us)


reports_strategy = st.builds(
    probe,
    st.sampled_from(["ok", "ok", "ok", "degraded", "failed", "dead"]),
    st.floats(1.0, 5_000.0))


def snapshot(arm):
    outcome = arm.outcome
    return {
        "tenants": {name: (s.offered, s.ok, s.err, s.shed,
                           repr(s.latency.to_dict()))
                    for name, s in outcome.tenants.items()},
        "shed": (outcome.shed_account.sheds,
                 outcome.shed_account.charges,
                 outcome.shed_account.charged_us),
        "slo": outcome.slo.to_jsonable(),
        "router": (arm.router.states, arm.router._rr,
                   arm.router.misroutes),
        "retries": [t._pending_retries for t in arm.tenants],
        "tokens": {name: b.tokens for name, b in arm.buckets.items()},
        "serve_rng": arm.serve_rng.getstate(),
    }


@settings(max_examples=60, deadline=None)
@given(data=st.data(),
       replicas=st.integers(1, 4),
       tenants=st.integers(1, 4),
       base_rate=st.integers(1, 60),
       capacity=st.integers(1, 120),
       ticks=st.integers(1, 6),
       arm_name=st.sampled_from([ROUTED_ARM, STATIC_ARM]),
       seed=st.integers(0, 2**32))
def test_batch_serve_matches_one_request_at_a_time(
        data, replicas, tenants, base_rate, capacity, ticks, arm_name,
        seed):
    spec = FleetSpec(shards=1, replicas=replicas,
                     tenants_per_shard=tenants, ticks=ticks,
                     base_rate=base_rate, queue_capacity=capacity)
    instances = [SimpleNamespace(name=f"i{r}") for r in range(replicas)]
    batch = _Arm(spec, arm_name, 0, seed)
    reference = _Arm(spec, arm_name, 0, seed)
    for tick in range(ticks):
        reports = data.draw(st.lists(reports_strategy, min_size=replicas,
                                     max_size=replicas))
        batch.serve(tick, instances, reports)
        serve_one_by_one(reference, tick, instances, reports)
        assert snapshot(batch) == snapshot(reference)
