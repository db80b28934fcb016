"""Tests for the measured-vs-analytic overlap experiment."""

import numpy as np
import pytest

from repro.data import SyntheticCTRStream, record_trace
from repro.data.distributions import UniformDistribution, ZipfDistribution
from repro.experiments.measured import scaled_distribution
from repro.experiments.overlap import (
    OVERLAP_CONFIG,
    OverlapRow,
    analytic_overlap_speedup,
    format_overlap,
    overlap_sweep,
)
from repro.model.configs import RM1

# A deliberately tiny sweep configuration so the tests stay fast.  The
# embedding dim stays at 16 because the analytic NMP model requires vectors
# of at least one 64-byte DRAM burst.
TINY_CONFIG = RM1.with_overrides(
    num_tables=3, gathers_per_table=4, rows_per_table=128,
    bottom_mlp=(8, 16), top_mlp=(4, 1), embedding_dim=16,
)


@pytest.fixture(scope="module")
def rows():
    return overlap_sweep(batches=(16, 32), steps=2, config=TINY_CONFIG)


class TestOverlapSweep:
    def test_one_row_per_cell(self, rows):
        assert [row.batch for row in rows] == [16, 32]

    def test_runs_are_bit_identical(self, rows):
        for row in rows:
            assert row.bit_identical

    def test_throughputs_positive(self, rows):
        for row in rows:
            assert row.serial_steps_per_s > 0
            assert row.pipelined_steps_per_s > 0
            assert row.measured_speedup > 0
            assert row.overlap_ratio > 0

    def test_rejects_nonpositive_steps(self):
        with pytest.raises(ValueError, match="steps"):
            overlap_sweep(batches=(16,), steps=0, config=TINY_CONFIG)

    def test_rejects_nonpositive_batches(self):
        with pytest.raises(ValueError, match="batch must be a positive"):
            overlap_sweep(batches=(0,), steps=1, config=TINY_CONFIG)

    def test_a_stateful_checkpoint_resumes_the_cell(self, tmp_path):
        """An Adagrad cell's checkpoint warm-starts the same cell: both
        schedules restore its parameters and per-row state and stay
        bit-identical."""
        job = dict(batches=(16,), steps=2, config=TINY_CONFIG, repeats=1,
                   optimizer="adagrad", lr=0.05)
        overlap_sweep(checkpoint_dir=tmp_path, **job)
        rows = overlap_sweep(resume=tmp_path / "overlap-b16.npz", **job)
        assert [row.batch for row in rows] == [16]
        assert all(row.bit_identical for row in rows)
        assert all(row.steps == 2 for row in rows)

    def test_resuming_past_the_end_of_a_trace_is_refused(self, tmp_path):
        stream = SyntheticCTRStream(num_tables=2, num_rows=64,
                                    lookups_per_sample=3, dense_features=4,
                                    seed=0)
        trace = record_trace(stream, tmp_path / "t.npz", 8, 2,
                             np.random.default_rng(1))
        job = dict(trace=trace, steps=5, repeats=1)
        (row,) = overlap_sweep(checkpoint_dir=tmp_path, **job)
        assert row.steps == 2  # clamped to what the trace holds
        with pytest.raises(ValueError, match="nothing left to replay"):
            overlap_sweep(resume=tmp_path / "overlap-trace.npz", **job)

    def test_named_dataset_drives_measured_runs(self):
        """A --dataset profile reaches both the streams and the analytics."""
        rows = overlap_sweep(batches=(16,), steps=1, config=TINY_CONFIG,
                             dataset="movielens", repeats=1)
        assert len(rows) == 1
        assert rows[0].bit_identical


class TestScaledDistribution:
    def test_random_is_uniform_at_table_height(self):
        dist = scaled_distribution("random", 500)
        assert isinstance(dist, UniformDistribution)
        assert dist.num_rows == 500

    def test_zipf_profile_keeps_shape_parameters(self):
        dist = scaled_distribution("criteo", 500)
        assert isinstance(dist, ZipfDistribution)
        assert dist.num_rows == 500
        assert dist.exponent == pytest.approx(1.1)

    def test_unknown_dataset_rejected(self):
        with pytest.raises(KeyError):
            scaled_distribution("no-such-dataset", 500)


class TestAnalyticSpeedup:
    @pytest.mark.parametrize("batch", [512, 1024, 4096])
    def test_overlap_always_helps(self, batch):
        speedup = analytic_overlap_speedup(OVERLAP_CONFIG, batch=batch)
        assert speedup > 1.0

    def test_bounded_by_full_cast_share(self):
        """Hiding the cast cannot more than double an iteration."""
        speedup = analytic_overlap_speedup(OVERLAP_CONFIG, batch=1024)
        assert speedup < 2.0


class TestFormatOverlap:
    def test_empty(self):
        assert format_overlap([]) == "(no rows)"

    def test_renders_all_columns(self, rows):
        text = format_overlap(rows)
        for header in ("Serial (it/s)", "Pipelined (it/s)", "Speedup",
                       "Analytic", "Overlap", "Cast (ms)", "Wait (ms)",
                       "Bitwise"):
            assert header in text
        assert "OK" in text
        assert "DIVERGED" not in text
        assert "Host cores" in text

    def test_row_dataclass_fields(self, rows):
        row = rows[0]
        assert isinstance(row, OverlapRow)
        assert row.model == TINY_CONFIG.name
        assert row.steps == 2
