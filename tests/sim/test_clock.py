"""Unit tests for the virtual clock."""

import pytest

from repro.sim.clock import ClockError, VirtualClock, us_from_s


class TestVirtualClock:
    def test_starts_at_zero(self):
        assert VirtualClock().now_us == 0.0

    def test_starts_at_given_time(self):
        assert VirtualClock(start_us=50.0).now_us == 50.0

    def test_negative_start_rejected(self):
        with pytest.raises(ClockError):
            VirtualClock(start_us=-1.0)

    def test_advance_moves_forward(self):
        clock = VirtualClock()
        clock.advance(10.5)
        clock.advance(4.5)
        assert clock.now_us == 15.0

    def test_advance_returns_new_time(self):
        clock = VirtualClock()
        assert clock.advance(3.0) == 3.0

    def test_zero_advance_is_noop(self):
        clock = VirtualClock()
        clock.advance(0.0)
        assert clock.now_us == 0.0

    def test_negative_advance_rejected(self):
        clock = VirtualClock()
        with pytest.raises(ClockError):
            clock.advance(-0.1)

    def test_advance_to_jumps_forward(self):
        clock = VirtualClock()
        clock.advance_to(100.0)
        assert clock.now_us == 100.0

    def test_advance_to_past_is_noop(self):
        clock = VirtualClock(start_us=100.0)
        clock.advance_to(50.0)
        assert clock.now_us == 100.0

    def test_unit_views(self):
        clock = VirtualClock(start_us=2_500_000.0)
        assert clock.now_ms == 2_500.0
        assert clock.now_s == 2.5


class TestConversions:
    def test_us_from_s(self):
        assert us_from_s(2.0) == 2_000_000.0
