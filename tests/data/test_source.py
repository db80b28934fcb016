"""Tests for the BatchSource protocol and its composable wrappers."""

import numpy as np
import pytest

from repro.data.generator import SyntheticCTRStream
from repro.data.source import (
    BatchSource,
    CriteoFileSource,
    SourceExhausted,
    TakeSource,
    as_batch_source,
)


def make_stream(**overrides):
    defaults = dict(
        num_tables=2,
        num_rows=[60, 90],
        lookups_per_sample=4,
        dense_features=5,
        seed=7,
    )
    defaults.update(overrides)
    return SyntheticCTRStream(**defaults)


class TestProtocol:
    def test_synthetic_stream_is_a_batch_source(self):
        stream = make_stream()
        assert isinstance(stream, BatchSource)
        assert stream.num_tables == 2
        assert stream.rows_per_table == [60, 90]
        assert stream.dense_features == 5

    def test_next_batch_matches_make_batch(self):
        a = make_stream().next_batch(8, np.random.default_rng(1))
        b = make_stream().make_batch(8, np.random.default_rng(1))
        assert np.array_equal(a.dense, b.dense)
        assert np.array_equal(a.labels, b.labels)
        assert all(x == y for x, y in zip(a.indices, b.indices))

    def test_batches_yields_count(self, rng):
        stream = make_stream()
        batches = list(stream.batches(4, 3, rng))
        assert len(batches) == 3
        assert all(b.size == 4 for b in batches)

    def test_batches_stops_at_exhaustion(self, rng):
        limited = TakeSource(make_stream(), 2)
        assert len(list(limited.batches(4, 5, rng))) == 2

    def test_context_manager_closes(self):
        with make_stream() as stream:
            assert isinstance(stream, BatchSource)

    def test_batch_size_property(self, rng):
        assert make_stream().next_batch(6, rng).size == 6


class TestAsBatchSource:
    def test_passthrough_for_real_sources(self):
        stream = make_stream()
        assert as_batch_source(stream) is stream

    def test_rejects_unadaptable_objects(self):
        with pytest.raises(TypeError, match="not a BatchSource"):
            as_batch_source(object())


class TestTakeSource:
    def test_limits_batches(self, rng):
        limited = TakeSource(make_stream(), 3)
        for _ in range(3):
            limited.next_batch(4, rng)
        with pytest.raises(SourceExhausted):
            limited.next_batch(4, rng)

    def test_stays_exhausted(self, rng):
        limited = TakeSource(make_stream(), 1)
        limited.next_batch(4, rng)
        for _ in range(2):
            with pytest.raises(SourceExhausted):
                limited.next_batch(4, rng)

    def test_rejects_nonpositive_limit(self):
        with pytest.raises(ValueError, match="positive"):
            TakeSource(make_stream(), 0)

    def test_delegates_geometry(self):
        limited = TakeSource(make_stream(), 1)
        assert limited.rows_per_table == [60, 90]


def write_tsv(path, rows, dense=3, tables=4):
    lines = []
    for label, dense_values, tokens in rows:
        fields = [str(label)]
        fields += [str(v) if v is not None else "" for v in dense_values]
        fields += tokens
        lines.append("\t".join(fields))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestCriteoFileSourceTSV:
    def make_file(self, tmp_path, samples=5):
        rows = [
            (i % 2, [i, 2 * i, None], [format(i * 7 + t, "x") for t in range(4)])
            for i in range(samples)
        ]
        return write_tsv(tmp_path / "mini.tsv", rows)

    def open_source(self, path):
        return CriteoFileSource(
            path, num_tables=4, rows_per_table=50, dense_features=3
        )

    def test_geometry(self, tmp_path):
        source = self.open_source(self.make_file(tmp_path))
        assert source.num_tables == 4
        assert source.rows_per_table == [50] * 4
        assert source.dense_features == 3

    def test_parses_batches_in_order(self, tmp_path, rng):
        source = self.open_source(self.make_file(tmp_path))
        batch = source.next_batch(2, rng)
        assert batch.size == 2
        assert batch.labels.tolist() == [0.0, 1.0]
        # log1p transform of the first dense column: log1p(0), log1p(1).
        assert batch.dense[:, 0] == pytest.approx([np.log1p(0), np.log1p(1)])
        # Missing dense values map to zero.
        assert batch.dense[:, 2].tolist() == [0.0, 0.0]

    def test_hashes_tokens_into_table_range(self, tmp_path, rng):
        source = self.open_source(self.make_file(tmp_path))
        batch = source.next_batch(5, rng)
        for index in batch.indices:
            assert index.src.dtype == np.int64
            assert index.num_lookups == 5  # one lookup per sample
            assert index.src.max() < 50

    def test_partial_final_batch_then_exhausted(self, tmp_path, rng):
        source = self.open_source(self.make_file(tmp_path, samples=5))
        assert source.next_batch(4, rng).size == 4
        assert source.next_batch(4, rng).size == 1
        with pytest.raises(SourceExhausted):
            source.next_batch(4, rng)
        source.close()

    def test_rejects_malformed_lines(self, tmp_path, rng):
        path = tmp_path / "bad.tsv"
        path.write_text("1\t2\t3\n", encoding="utf-8")
        source = self.open_source(path)
        with pytest.raises(ValueError, match="fields"):
            source.next_batch(1, rng)

    def test_rejects_non_hex_tokens(self, tmp_path, rng):
        rows = [(1, [1, 2, 3], ["zz", "1", "2", "3"])]
        source = self.open_source(write_tsv(tmp_path / "hex.tsv", rows))
        with pytest.raises(ValueError, match="hexadecimal"):
            source.next_batch(1, rng)


class TestCriteoFileSourceNPZ:
    def make_file(self, tmp_path, samples=6):
        rng = np.random.default_rng(0)
        path = tmp_path / "mini.npz"
        np.savez(
            path,
            dense=rng.standard_normal((samples, 3)),
            labels=(rng.random(samples) < 0.5).astype(np.float64),
            sparse=rng.integers(0, 40, size=(samples, 2)),
            rows_per_table=np.array([40, 40]),
        )
        return path

    def test_geometry_comes_from_the_file(self, tmp_path):
        source = CriteoFileSource(self.make_file(tmp_path))
        assert source.num_tables == 2
        assert source.dense_features == 3
        assert source.rows_per_table == [40, 40]

    def test_slices_batches_and_exhausts(self, tmp_path, rng):
        source = CriteoFileSource(self.make_file(tmp_path, samples=6))
        sizes = []
        while True:
            try:
                sizes.append(source.next_batch(4, rng).size)
            except SourceExhausted:
                break
        assert sizes == [4, 2]

    def test_rejects_foreign_npz(self, tmp_path):
        path = tmp_path / "foreign.npz"
        np.savez(path, stuff=np.arange(3))
        with pytest.raises(ValueError, match="Criteo-style"):
            CriteoFileSource(path)
