"""``Histogram.observe_many`` against one ``observe`` per value.

The batch method sorts and bisects where ``observe`` buckets one value
at a time, and sums the batch itself; every field must still come out
exactly as the one-by-one calls leave it — floats compared by ``repr``,
so a ``-0.0`` for ``0.0`` or a reordered sum fails.
"""

from __future__ import annotations

import math

from hypothesis import given
from hypothesis import strategies as st

from repro.obs.metrics import Histogram

POWERS_OF_TWO = [2.0 ** e for e in range(-3, 41)]

#: samples the fleet's latencies look like, plus the awkward ones
samples = st.one_of(
    st.floats(0.0, 1.0, exclude_max=True),        # bucket -1
    st.sampled_from(POWERS_OF_TWO),               # bucket edges
    st.sampled_from([0.0, -0.0, 1.0, 200_000.0]),
    st.floats(1.0, 1e6),
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-5, 10**6),
)


def fields(hist: Histogram):
    return (hist.count, repr(hist.total), repr(hist.min),
            repr(hist.max), hist.buckets)


def one_by_one(prior, values) -> Histogram:
    hist = Histogram()
    for value in list(prior) + list(values):
        hist.observe(value)
    return hist


def batched(prior, values) -> Histogram:
    hist = Histogram()
    for value in prior:
        hist.observe(value)
    hist.observe_many(values)
    return hist


@given(prior=st.lists(samples, max_size=6),
       values=st.lists(samples, max_size=80))
def test_batch_matches_one_observe_per_value(prior, values):
    assert fields(batched(prior, values)) \
        == fields(one_by_one(prior, values))


#: batches over one, two or three neighbouring buckets (one bucket is
#: counted off min and max, wider batches off a sort), edges included
def narrow_batch(index):
    edges = [2.0 ** (index + k) for k in range(3)]
    return st.lists(st.one_of(st.floats(edges[0], 2.0 ** (index + 3),
                                        exclude_max=True),
                              st.sampled_from(edges)),
                    max_size=40)


@given(prior=st.lists(samples, max_size=3),
       values=st.integers(-3, 60).flatmap(narrow_batch))
def test_narrow_batches_match(prior, values):
    assert fields(batched(prior, values)) \
        == fields(one_by_one(prior, values))


@given(prior=st.lists(st.floats(), max_size=4),
       values=st.lists(st.floats(), max_size=20))
def test_infinite_and_nan_samples_match_too(prior, values):
    assert fields(batched(prior, values)) \
        == fields(one_by_one(prior, values))


@given(batches=st.lists(st.lists(samples, max_size=30), max_size=6))
def test_consecutive_batches_match_one_long_run(batches):
    hist = Histogram()
    for batch in batches:
        hist.observe_many(batch)
    flat = [value for batch in batches for value in batch]
    assert fields(hist) == fields(one_by_one([], flat))


def test_empty_batch_changes_nothing():
    hist = Histogram()
    hist.observe_many([])
    assert fields(hist) == fields(Histogram())
    hist.observe(3.0)
    hist.observe_many([])
    assert fields(hist) == fields(one_by_one([3.0], []))


def test_powers_of_two_open_their_buckets():
    hist = Histogram()
    hist.observe_many([0.5, 1.0, 2.0, 3.9, 4.0, 2.0 ** 1023,
                       math.nextafter(2.0, 0.0)])
    assert hist.buckets == {-1: 1, 0: 2, 1: 2, 2: 1, 1023: 1}


def test_total_adds_left_to_right():
    """A compensated sum (Python 3.12's ``sum``) would give 2.0 here;
    the one-by-one calls give 0.0."""
    hist = Histogram()
    hist.observe_many([1e16, 1.0, 1.0, -1e16])
    assert hist.total == 0.0
