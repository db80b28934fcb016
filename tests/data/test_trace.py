"""Tests for index-trace persistence and replay."""

import numpy as np
import pytest

from repro.core.indexing import IndexArray
from repro.data.trace import (
    EmpiricalDistribution,
    distribution_from_trace,
    load_trace,
    save_trace,
)


@pytest.fixture
def sample_trace(rng):
    return [
        IndexArray(
            rng.integers(0, 200, 60),
            np.repeat(np.arange(12), 5),
            num_rows=200,
            num_outputs=12,
        )
        for _ in range(3)
    ]


class TestSaveLoad:
    def test_roundtrip(self, tmp_path, sample_trace):
        path = save_trace(tmp_path / "trace.npz", sample_trace)
        loaded = load_trace(path)
        assert len(loaded) == 3
        for original, restored in zip(sample_trace, loaded):
            assert original == restored

    def test_preserves_geometry(self, tmp_path, sample_trace):
        path = save_trace(tmp_path / "trace.npz", sample_trace)
        loaded = load_trace(path)
        assert loaded[0].num_rows == 200
        assert loaded[0].num_outputs == 12

    def test_rejects_empty_trace(self, tmp_path):
        with pytest.raises(ValueError, match="empty"):
            save_trace(tmp_path / "trace.npz", [])

    def test_rejects_foreign_npz(self, tmp_path):
        foreign = tmp_path / "foreign.npz"
        np.savez(foreign, stuff=np.arange(3))
        with pytest.raises(ValueError, match="not a repro index trace"):
            load_trace(foreign)

    def test_rejects_truncated_file(self, tmp_path):
        truncated = tmp_path / "truncated.npz"
        np.savez(truncated, num_tables=np.asarray(2),
                 src_0=np.array([0]), dst_0=np.array([0]),
                 num_rows_0=np.asarray(1), num_outputs_0=np.asarray(1))
        with pytest.raises(ValueError, match="truncated"):
            load_trace(truncated)

    def test_replayed_trace_drives_experiments(self, tmp_path, sample_trace):
        """A loaded trace is a drop-in IndexArray: the casting invariant
        must hold on it."""
        from repro.core import expand_coalesce, tcasted_grad_gather_reduce

        path = save_trace(tmp_path / "trace.npz", sample_trace)
        index = load_trace(path)[0]
        grads = np.random.default_rng(0).standard_normal((12, 4))
        rows_b, coal_b = expand_coalesce(index, grads)
        rows_c, coal_c = tcasted_grad_gather_reduce(index, grads)
        assert np.array_equal(rows_b, rows_c)
        assert np.allclose(coal_b, coal_c)


class TestEmpiricalDistribution:
    def test_measured_probabilities_sorted(self):
        dist = EmpiricalDistribution(np.array([0.1, 0.6, 0.3]))
        probs = dist.probabilities()
        assert probs.tolist() == [0.6, 0.3, 0.1]

    def test_normalizes_counts(self):
        dist = EmpiricalDistribution(np.array([2.0, 6.0, 2.0]))
        assert dist.probabilities().sum() == pytest.approx(1.0)

    def test_sampling_follows_measurement(self):
        dist = EmpiricalDistribution(np.array([0.9, 0.1]))
        ids = dist.sample(10_000, np.random.default_rng(0))
        head_share = np.count_nonzero(ids == 0) / ids.size
        assert head_share == pytest.approx(0.9, abs=0.02)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            EmpiricalDistribution(np.empty(0))
        with pytest.raises(ValueError, match="non-negative"):
            EmpiricalDistribution(np.array([0.5, -0.5]))
        with pytest.raises(ValueError, match="positive"):
            EmpiricalDistribution(np.zeros(3))

    def test_distribution_from_trace(self, sample_trace):
        dist = distribution_from_trace(sample_trace, table=1)
        assert dist.num_rows == 200
        expected = dist.expected_unique(60)
        assert 0 < expected <= 60

    def test_distribution_from_trace_bad_table(self, sample_trace):
        with pytest.raises(ValueError, match="tables"):
            distribution_from_trace(sample_trace, table=7)

    def test_distribution_from_empty_table(self):
        empty = [IndexArray([], [], num_rows=10, num_outputs=0)]
        with pytest.raises(ValueError, match="empty"):
            distribution_from_trace(empty)


class TestSaveTraceRegressions:
    """Round-trip exactness: dtypes, degenerate shapes, path mangling."""

    def test_suffixless_path_roundtrips(self, tmp_path, sample_trace):
        """np.savez appends .npz silently; save_trace must return the path
        that actually exists so the round-trip closes."""
        returned = save_trace(tmp_path / "trace", sample_trace)
        assert returned.exists()
        assert returned.name == "trace.npz"
        assert load_trace(returned)[0] == sample_trace[0]

    def test_dotted_name_keeps_its_suffix_chain(self, tmp_path, sample_trace):
        returned = save_trace(tmp_path / "trace.v2", sample_trace)
        assert returned.name == "trace.v2.npz"
        assert returned.exists()

    def test_index_dtypes_survive_exactly(self, tmp_path, sample_trace):
        path = save_trace(tmp_path / "trace.npz", sample_trace)
        for index in load_trace(path):
            assert index.src.dtype == np.int64
            assert index.dst.dtype == np.int64

    def test_weighted_style_ragged_bags_roundtrip(self, tmp_path):
        """Non-uniform bag sizes (the weighted-lookup test shapes): per-table
        structure must come back element-for-element."""
        ragged = [
            IndexArray([5, 5, 5, 9], [0, 0, 1, 2], num_rows=12, num_outputs=4),
            IndexArray([0], [3], num_rows=2, num_outputs=5),
        ]
        loaded = load_trace(save_trace(tmp_path / "ragged.npz", ragged))
        assert len(loaded) == 2
        for original, restored in zip(ragged, loaded):
            assert original == restored
            assert restored.src.dtype == np.int64

    def test_empty_table_roundtrips(self, tmp_path):
        degenerate = [
            IndexArray([], [], num_rows=7, num_outputs=0),
            IndexArray([3], [0], num_rows=4, num_outputs=1),
        ]
        loaded = load_trace(save_trace(tmp_path / "empty.npz", degenerate))
        assert loaded[0] == degenerate[0]
        assert loaded[0].num_lookups == 0
        assert loaded[0].num_outputs == 0
        assert loaded[0].src.dtype == np.int64
        assert loaded[1] == degenerate[1]

    def test_trailing_empty_outputs_preserved(self, tmp_path):
        """num_outputs > max(dst)+1 (trailing empty bags) must not shrink."""
        padded = [IndexArray([1, 2], [0, 0], num_rows=5, num_outputs=6)]
        loaded = load_trace(save_trace(tmp_path / "padded.npz", padded))
        assert loaded[0].num_outputs == 6
        assert loaded[0] == padded[0]


class TestBatchTrace:
    def make_stream(self):
        from repro.data.generator import SyntheticCTRStream

        return SyntheticCTRStream(
            num_tables=2,
            num_rows=[40, 80],
            lookups_per_sample=3,
            dense_features=4,
            seed=5,
        )

    def record(self, tmp_path, batch=8, steps=3, seed=2):
        from repro.data.trace import record_trace

        return record_trace(
            self.make_stream(), tmp_path / "batches.npz", batch, steps,
            np.random.default_rng(seed),
        )

    def test_roundtrip_is_exact(self, tmp_path):
        from repro.data.trace import TraceReplaySource

        path = self.record(tmp_path)
        stream = self.make_stream()
        rng = np.random.default_rng(2)
        with TraceReplaySource(path) as replay:
            assert replay.num_steps == 3
            assert replay.num_tables == 2
            assert replay.rows_per_table == [40, 80]
            assert replay.dense_features == 4
            for _ in range(3):
                want = stream.next_batch(8, rng)
                have = replay.next_batch(8, None)
                assert np.array_equal(want.dense, have.dense)
                assert want.dense.dtype == have.dense.dtype
                assert np.array_equal(want.labels, have.labels)
                for a, b in zip(want.indices, have.indices):
                    assert a == b
                    assert b.src.dtype == np.int64

    def test_exhausts_after_recorded_steps(self, tmp_path):
        from repro.data.source import SourceExhausted
        from repro.data.trace import TraceReplaySource

        replay = TraceReplaySource(self.record(tmp_path))
        for _ in range(3):
            replay.next_batch(8, None)
        with pytest.raises(SourceExhausted):
            replay.next_batch(8, None)
        replay.close()

    def test_batch_size_mismatch_rejected(self, tmp_path):
        from repro.data.trace import TraceReplaySource

        replay = TraceReplaySource(self.record(tmp_path))
        with pytest.raises(ValueError, match="recorded batch"):
            replay.next_batch(16, None)
        replay.close()

    def test_construction_reads_only_the_header(self, tmp_path, monkeypatch):
        """Constant-memory contract: opening a trace must not materialize
        any step's arrays, and each next_batch touches only its own step."""
        from repro.data.trace import TraceReplaySource

        path = self.record(tmp_path, steps=3)
        accessed = []
        original = np.lib.npyio.NpzFile.__getitem__

        def spying(self, key):
            accessed.append(key)
            return original(self, key)

        monkeypatch.setattr(np.lib.npyio.NpzFile, "__getitem__", spying)
        replay = TraceReplaySource(path)
        header_keys = {
            "batch_trace_version", "num_steps", "num_tables",
            "rows_per_table", "dense_features",
        }
        step_keys = [k for k in accessed if k not in header_keys]
        assert step_keys == []  # header only
        accessed.clear()
        replay.next_batch(8, None)
        assert all(
            k.endswith("_0") or "_0_" in k for k in accessed
        ), f"step 0 read touched other steps: {accessed}"
        replay.close()

    def test_rejects_index_trace_with_hint(self, tmp_path, sample_trace):
        from repro.data.trace import TraceReplaySource

        path = save_trace(tmp_path / "index.npz", sample_trace)
        with pytest.raises(ValueError, match="read those with load_trace"):
            TraceReplaySource(path)

    def test_rejects_foreign_npz(self, tmp_path):
        from repro.data.trace import TraceReplaySource

        foreign = tmp_path / "foreign.npz"
        np.savez(foreign, stuff=np.arange(3))
        with pytest.raises(ValueError, match="not a repro batch trace"):
            TraceReplaySource(foreign)

    def test_writer_rejects_geometry_drift(self, tmp_path):
        from repro.data.generator import SyntheticCTRStream
        from repro.data.trace import BatchTraceWriter

        stream = self.make_stream()
        drifted = SyntheticCTRStream(
            num_tables=2, num_rows=[41, 80], lookups_per_sample=3,
            dense_features=4, seed=5,
        )
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="geometry"):
            with BatchTraceWriter(tmp_path / "drift.npz") as writer:
                writer.append(stream.next_batch(4, rng))
                writer.append(drifted.next_batch(4, rng))

    def test_empty_trace_refused(self, tmp_path):
        from repro.data.trace import BatchTraceWriter

        writer = BatchTraceWriter(tmp_path / "empty.npz")
        with pytest.raises(ValueError, match="empty"):
            writer.close()

    def test_record_trace_stops_at_exhaustion(self, tmp_path):
        from repro.data.source import TakeSource
        from repro.data.trace import TraceReplaySource, record_trace

        path = record_trace(
            TakeSource(self.make_stream(), 2), tmp_path / "short.npz",
            4, 10, np.random.default_rng(0),
        )
        with TraceReplaySource(path) as replay:
            assert replay.num_steps == 2


class TestWriterRobustness:
    """Review fixes: mixed num_outputs, abort safety, cursor discipline."""

    def _batch(self, outputs_a=4, outputs_b=4):
        from repro.data.source import CTRBatch

        return CTRBatch(
            dense=np.zeros((4, 2)),
            indices=[
                IndexArray([0, 1], [0, 1], num_rows=5, num_outputs=outputs_a),
                IndexArray([2, 3], [0, 1], num_rows=5, num_outputs=outputs_b),
            ],
            labels=np.zeros(4),
        )

    def test_mixed_num_outputs_rejected(self, tmp_path):
        from repro.data.trace import BatchTraceWriter

        with pytest.raises(ValueError, match="num_outputs"):
            with BatchTraceWriter(tmp_path / "mixed.npz") as writer:
                writer.append(self._batch(outputs_a=4, outputs_b=6))

    def test_abort_leaves_no_file(self, tmp_path):
        from repro.data.trace import BatchTraceWriter

        target = tmp_path / "aborted.npz"
        with pytest.raises(RuntimeError, match="boom"):
            with BatchTraceWriter(target) as writer:
                writer.append(self._batch())
                raise RuntimeError("boom")
        assert not target.exists()
        assert not target.with_name("aborted.npz.tmp").exists()

    def test_failed_record_preserves_existing_trace(self, tmp_path):
        from repro.data.source import TakeSource
        from repro.data.trace import (
            TraceReplaySource,
            record_trace,
        )
        from repro.data.generator import SyntheticCTRStream

        stream = SyntheticCTRStream(
            num_tables=1, num_rows=20, lookups_per_sample=2,
            dense_features=3, seed=0,
        )
        target = tmp_path / "keep.npz"
        record_trace(stream, target, 4, 2, np.random.default_rng(0))
        drained = TakeSource(stream, 1)
        drained.next_batch(4, np.random.default_rng(0))
        with pytest.raises(ValueError, match="exhausted before the first"):
            record_trace(drained, target, 4, 2, np.random.default_rng(0))
        # The original two-step trace survived the failed overwrite.
        with TraceReplaySource(target) as replay:
            assert replay.num_steps == 2

