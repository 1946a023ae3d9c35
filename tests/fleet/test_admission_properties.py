"""Property tests for admission control and shed accounting.

The batch token bucket must be indistinguishable from the naive
one-token-at-a-time reference model over *any* arrival sequence, and
every shed request must be charged (in virtual time) and counted
exactly once — no double charges, no silent drops.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.fleet.admission import (
    SHED_CHARGE_US,
    ShedAccount,
    TokenBucket,
    naive_admission,
)
from repro.obs.metrics import merge

arrival_sequences = st.lists(st.integers(0, 40), max_size=50)


@given(rate=st.integers(1, 12), burst=st.integers(1, 24),
       arrivals=arrival_sequences)
def test_token_bucket_matches_the_naive_reference(rate, burst,
                                                  arrivals):
    bucket = TokenBucket(rate, burst)
    admitted = []
    for batch in arrivals:
        bucket.refill()
        admitted.append(bucket.take(batch))
    assert admitted == naive_admission(rate, burst, arrivals)


@given(rate=st.integers(1, 12), burst=st.integers(1, 24),
       arrivals=arrival_sequences)
def test_admission_never_exceeds_arrivals_or_burst(rate, burst,
                                                   arrivals):
    bucket = TokenBucket(rate, burst)
    for batch in arrivals:
        bucket.refill()
        granted = bucket.take(batch)
        assert 0 <= granted <= batch
        assert granted <= burst
        assert bucket.tokens >= 0.0


@given(rate=st.integers(1, 12), burst=st.integers(1, 24),
       arrivals=arrival_sequences)
def test_sheds_are_charged_and_counted_exactly_once(rate, burst,
                                                    arrivals):
    """offered == admitted + shed, and the account sees every shed
    once: counts equal the arithmetic shortfall and the virtual-time
    charge is exactly ``sheds * SHED_CHARGE_US``."""
    bucket = TokenBucket(rate, burst)
    account = ShedAccount()
    total_shed = 0
    for batch in arrivals:
        bucket.refill()
        granted = bucket.take(batch)
        shed = batch - granted
        account.charge(shed)
        total_shed += shed
    assert account.sheds == total_shed
    assert account.charges == total_shed
    assert account.charged_us == total_shed * SHED_CHARGE_US


@given(counts=st.lists(st.integers(-3, 10), max_size=30))
def test_nonpositive_charges_are_noops(counts):
    account = ShedAccount()
    expected = sum(c for c in counts if c > 0)
    for count in counts:
        account.charge(count)
    assert account.sheds == expected
    assert account.charged_us == expected * SHED_CHARGE_US


def test_accounts_merge_by_summing():
    left, right = ShedAccount(), ShedAccount()
    left.charge(3)
    right.charge(5)
    merged = merge(left, right)
    assert (merged.sheds, merged.charges) == (8, 8)
    assert merged.charged_us == 8 * SHED_CHARGE_US


def test_bucket_rejects_negative_configuration():
    with pytest.raises(ValueError):
        TokenBucket(-1, 5)
    with pytest.raises(ValueError):
        TokenBucket(5, -1)
