"""The arrival-process helper behind the serving plane's request stream.

``ArrivalProcess`` is the gap generator ``generate_requests`` stamps onto
requests; these tests pin the reproducibility contract it relies on:
equal ``(rate, pattern, seed)`` → the identical schedule.
"""

import numpy as np
import pytest

from repro.data.arrivals import ArrivalProcess


class TestArrivalProcess:
    def test_uniform_gaps_are_exactly_one_over_rate(self):
        process = ArrivalProcess(rate_per_s=200.0, pattern="uniform")
        assert [process.next_gap() for _ in range(4)] == [0.005] * 4

    def test_offsets_start_at_zero_and_accumulate(self):
        process = ArrivalProcess(rate_per_s=100.0, pattern="uniform")
        assert process.offsets(4) == pytest.approx([0.0, 0.01, 0.02, 0.03])
        # The process is stateful: the next window continues the schedule.
        assert process.offsets(2) == pytest.approx([0.04, 0.05])

    def test_poisson_gaps_have_the_right_mean(self):
        process = ArrivalProcess(rate_per_s=50.0, pattern="poisson", seed=1)
        gaps = np.diff(process.offsets(400))
        assert np.all(gaps >= 0)
        assert np.mean(gaps) == pytest.approx(1.0 / 50.0, rel=0.2)

    def test_equal_seeds_reproduce_the_schedule(self):
        first = ArrivalProcess(80.0, pattern="poisson", seed=3).offsets(32)
        second = ArrivalProcess(80.0, pattern="poisson", seed=3).offsets(32)
        assert first == second

    def test_different_seeds_differ(self):
        first = ArrivalProcess(80.0, pattern="poisson", seed=3).offsets(16)
        second = ArrivalProcess(80.0, pattern="poisson", seed=4).offsets(16)
        assert first != second

    def test_mean_gap_property(self):
        assert ArrivalProcess(25.0).mean_gap_s == pytest.approx(0.04)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="rate_per_s"):
            ArrivalProcess(0.0)
        with pytest.raises(ValueError, match="pattern"):
            ArrivalProcess(1.0, pattern="bursty")
        with pytest.raises(ValueError, match="count"):
            ArrivalProcess(1.0).offsets(-1)
