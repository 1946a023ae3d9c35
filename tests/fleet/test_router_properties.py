"""Property tests for the health router.

The load balancer's core promise: under the health policy, traffic
never lands on an instance the router *knows* is bad while a healthy
one exists — for any observation history Hypothesis can dream up.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.fleet.router import (
    DEGRADED,
    DOWN,
    DRAINING,
    HEALTHY,
    PROBATION,
    HealthRouter,
    Observation,
)

#: anything the probe loop can feed the router, including blackholes
observations = st.one_of(
    st.just(Observation(probe_ok=None)),
    st.builds(Observation, probe_ok=st.booleans(),
              degraded=st.booleans(), dead=st.booleans()),
)


@given(instances=st.integers(2, 5),
       feed=st.lists(st.tuples(st.integers(0, 4), observations),
                     max_size=60),
       stale=st.integers(0, 3),
       loads=st.lists(st.floats(0, 50), min_size=5, max_size=5))
def test_never_routes_off_healthy_when_healthy_exists(
        instances, feed, stale, loads):
    router = HealthRouter(instances, policy="health", stale_ticks=stale)
    for index, obs in feed:
        router.observe(index % instances, obs)
    picked = router.route(loads[:instances])
    if any(state == HEALTHY for state in router.states):
        assert router.states[picked] == HEALTHY
    assert router.misroutes == 0


#: per-instance queue depths, with frequent ties
loads_strategy = st.lists(
    st.one_of(st.integers(0, 3).map(float), st.floats(0, 50)),
    min_size=5, max_size=5)


@given(instances=st.integers(1, 5),
       steps=st.lists(st.one_of(
           st.tuples(st.just("observe"), st.integers(0, 4), observations),
           st.tuples(st.just("route"), loads_strategy)), max_size=80),
       stale=st.integers(0, 3))
def test_cached_tier_matches_a_fresh_scan(instances, steps, stale):
    """``route`` reuses the tier it computed until the next
    ``observe``; every pick and the misroute count must equal a fresh
    ``candidates()`` scan with ties to the lowest index."""
    router = HealthRouter(instances, policy="health", stale_ticks=stale)
    misroutes = 0
    for step in steps:
        if step[0] == "observe":
            router.observe(step[1] % instances, step[2])
            continue
        loads = step[1][:instances]
        expected = min(router.candidates(), key=lambda i: (loads[i], i))
        if router.states[expected] != HEALTHY \
                and HEALTHY in router.states:
            misroutes += 1
        assert router.route(loads) == expected
        assert router.misroutes == misroutes


@given(instances=st.integers(2, 5),
       feed=st.lists(st.tuples(st.integers(0, 4), observations),
                     max_size=60))
def test_fallback_tier_is_the_best_available(instances, feed):
    """With nothing healthy, routing degrades through probation →
    degraded → draining → down, never skipping a populated tier."""
    router = HealthRouter(instances, policy="health")
    for index, obs in feed:
        router.observe(index % instances, obs)
    picked = router.route([0.0] * instances)
    for tier in (HEALTHY, PROBATION, DEGRADED, DRAINING, DOWN):
        populated = [i for i, s in enumerate(router.states)
                     if s == tier]
        if populated:
            assert picked in populated
            break


@given(probes=st.integers(1, 4), good=st.integers(0, 6))
def test_probation_readmits_only_after_the_full_streak(probes, good):
    router = HealthRouter(2, policy="health", probation_probes=probes)
    router.observe(0, Observation(probe_ok=False))
    assert router.states[0] == DRAINING
    for _ in range(good):
        router.observe(0, Observation(probe_ok=True))
    if good >= probes:
        assert router.states[0] == HEALTHY
    elif good > 0:
        assert router.states[0] == PROBATION
    else:
        assert router.states[0] == DRAINING


@given(stale=st.integers(0, 4), silent=st.integers(1, 8))
def test_silence_drains_exactly_past_the_tolerance(stale, silent):
    router = HealthRouter(2, policy="health", stale_ticks=stale)
    for _ in range(silent):
        router.observe(0, Observation(probe_ok=None))
    if silent > stale:
        assert router.states[0] == DRAINING
    else:
        assert router.states[0] == HEALTHY  # the stale-data window


def test_one_flapping_probe_restarts_the_streak():
    router = HealthRouter(2, policy="health", probation_probes=3)
    router.observe(0, Observation(probe_ok=False))
    router.observe(0, Observation(probe_ok=True))
    router.observe(0, Observation(probe_ok=True))
    router.observe(0, Observation(probe_ok=False))
    router.observe(0, Observation(probe_ok=True))
    assert router.states[0] == PROBATION


def test_health_policy_prefers_the_least_loaded_instance():
    router = HealthRouter(3, policy="health")
    assert router.route([5.0, 2.0, 9.0]) == 1
    assert router.route([1.0, 1.0, 9.0]) == 0  # tie -> lowest index


def test_static_policy_round_robins_blindly():
    router = HealthRouter(3, policy="static")
    router.observe(1, Observation(probe_ok=False, dead=True))
    picks = [router.route([0.0] * 3) for _ in range(6)]
    assert picks == [0, 1, 2, 0, 1, 2]


def test_rejects_bad_configuration():
    with pytest.raises(ValueError):
        HealthRouter(0)
    with pytest.raises(ValueError):
        HealthRouter(2, policy="roulette")


# --- batch routing ----------------------------------------------------------


def route_one_by_one(router, loads, count, weight, capacity):
    """The reference: ``count`` calls of ``route`` under the campaign's
    queue-depth shed rule."""
    served = []
    for _ in range(count):
        index = router.route(loads)
        if loads[index] + weight > capacity:
            continue  # shed: the load stays as it was
        loads[index] += weight
        served.append(index)
    return served


def expand(runs):
    return [index for pattern, rounds in runs
            for index in pattern * rounds]


def fed_router(instances, policy, feed):
    router = HealthRouter(instances, policy=policy)
    for index, obs in feed:
        router.observe(index % instances, obs)
    return router


#: queue depths: ties, idle instances, and depths within a few slots
#: of the capacity (so that room is exactly 0 or 1 for weight 3)
headroom = st.one_of(st.integers(0, 3).map(lambda k: ("idle", k)),
                     st.integers(-1, 7).map(lambda k: ("full", k)),
                     st.integers(0, 40).map(lambda k: ("any", k)))


def preload(kind_value, capacity):
    kind, value = kind_value
    if kind == "full":
        return max(0, capacity - value)
    return value


@given(instances=st.integers(1, 5),
       policy=st.sampled_from(["health", "static"]),
       feed=st.lists(st.tuples(st.integers(0, 4), observations),
                     max_size=30),
       rr=st.integers(0, 7),
       weight=st.sampled_from([1, 3]),
       capacity=st.integers(0, 30),
       depths=st.lists(headroom, min_size=5, max_size=5),
       batches=st.lists(st.integers(0, 40), min_size=1, max_size=4))
def test_route_many_matches_one_route_per_request(
        instances, policy, feed, rr, weight, capacity, depths, batches):
    """Served sequence, sheds, final loads, the round-robin cursor and
    misroutes all equal the per-request reference, batch after batch
    — for both policies, any health history (fallback tiers with
    nothing healthy included) and pre-loaded queues."""
    batch_router = fed_router(instances, policy, feed)
    reference = fed_router(instances, policy, feed)
    batch_router._rr = reference._rr = rr
    loads = [preload(depth, capacity) for depth in depths[:instances]]
    batch_loads = list(loads)
    for count in batches:
        served = expand(batch_router.route_many(batch_loads, count,
                                                weight, capacity))
        expected = route_one_by_one(reference, loads, count, weight,
                                    capacity)
        assert served == expected
        assert count - len(served) == count - len(expected)
        assert batch_loads == loads
        assert batch_router._rr == reference._rr
        assert batch_router.misroutes == reference.misroutes


@given(instances=st.integers(1, 5),
       feed=st.lists(st.tuples(st.integers(0, 4), observations),
                     max_size=30),
       weight=st.sampled_from([1, 3]),
       count=st.integers(1, 60))
def test_route_many_runs_are_nonempty(instances, feed, weight, count):
    router = fed_router(instances, "health", feed)
    runs = router.route_many([0] * instances, count, weight, 20)
    assert all(pattern and rounds > 0 for pattern, rounds in runs)


def test_route_many_water_fills_the_health_tier():
    router = HealthRouter(3, policy="health")
    loads = [4, 0, 1]
    runs = router.route_many(loads, 7, 1, 10)
    assert expand(runs) == [1, 1, 2, 1, 2, 1, 2]
    assert loads == [4, 4, 4]


def test_route_many_sheds_after_the_first_full_pick():
    router = HealthRouter(2, policy="health")
    loads = [5, 6]
    assert expand(router.route_many(loads, 5, 3, 10)) == [0, 1]
    assert loads == [8, 9]


def test_static_route_many_skips_full_instances_only():
    router = HealthRouter(3, policy="static")
    router._rr = 1
    loads = [0, 9, 0]
    # arrivals go 1 2 0 1 2 0 1; instance 1 has room for one
    assert expand(router.route_many(loads, 7, 1, 10)) == [1, 2, 0, 2, 0]
    assert loads == [2, 10, 2]
    assert router._rr == 8


def test_route_many_rejects_weightless_requests():
    with pytest.raises(ValueError):
        HealthRouter(2).route_many([0, 0], 3, 0, 10)
