"""The tracer's injectable clocks: virtual time and wall time."""

import time

import pytest

from repro.obs import Tracer
from repro.obs.clock import RealTimeClock, VirtualClock


class TestVirtualClock:
    def test_starts_at_origin(self):
        assert VirtualClock().now() == 0.0
        assert VirtualClock(start=5.0).now() == 5.0

    def test_charge_advances(self):
        clock = VirtualClock()
        clock.charge(0.25)
        clock.charge(0.25)
        assert clock.now() == 0.5

    def test_charge_rejects_negative(self):
        with pytest.raises(ValueError, match="negative"):
            VirtualClock().charge(-0.1)

    def test_virtual_time_is_faster_than_real(self):
        # An hour of virtual time costs no wall time.
        clock = VirtualClock()
        start = time.perf_counter()
        clock.charge(3600.0)
        assert time.perf_counter() - start < 1.0
        assert clock.now() == 3600.0

    def test_time_stands_still_between_charges(self):
        clock = VirtualClock(start=1.0)
        time.sleep(0.01)
        assert clock.now() == 1.0


class TestRealTimeClock:
    def test_now_advances_with_wall_clock(self):
        clock = RealTimeClock()
        first = clock.now()
        time.sleep(0.01)
        assert clock.now() > first

    def test_is_the_tracer_default(self):
        assert isinstance(Tracer().clock, RealTimeClock)
