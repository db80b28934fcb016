"""Tests for index-array and synthetic-CTR batch generation."""

import numpy as np
import pytest

from repro.data.distributions import UniformDistribution, ZipfDistribution
from repro.data.generator import (
    SyntheticCTRStream,
    generate_index_array,
    generate_table_indices,
)


class TestGenerateIndexArray:
    def test_geometry(self, rng):
        dist = UniformDistribution(100)
        index = generate_index_array(dist, batch=8, lookups_per_sample=5, rng=rng)
        assert index.num_lookups == 40
        assert index.num_outputs == 8
        assert index.num_rows == 100
        assert index.lookups_per_output().tolist() == [5] * 8

    def test_deterministic_given_rng(self):
        dist = UniformDistribution(100)
        a = generate_index_array(dist, 4, 3, np.random.default_rng(9))
        b = generate_index_array(dist, 4, 3, np.random.default_rng(9))
        assert a == b

    def test_rejects_bad_geometry(self, rng):
        dist = UniformDistribution(10)
        with pytest.raises(ValueError, match="positive"):
            generate_index_array(dist, 0, 3, rng)

    @pytest.mark.parametrize("bad", [True, 2.5, 0], ids=["bool", "float", "zero"])
    def test_batch_must_be_a_positive_int(self, bad, rng):
        with pytest.raises(ValueError, match="batch must be a positive integer"):
            generate_index_array(UniformDistribution(10), bad, 3, rng)

    def test_table_indices_one_per_distribution(self, rng):
        dists = [UniformDistribution(10), ZipfDistribution(20, 1.0)]
        indices = generate_table_indices(dists, batch=4, lookups_per_sample=2, rng=rng)
        assert len(indices) == 2
        assert indices[0].num_rows == 10
        assert indices[1].num_rows == 20


class TestSyntheticCTRStream:
    def make_stream(self, **overrides):
        defaults = dict(
            num_tables=3, num_rows=100, lookups_per_sample=4,
            dense_features=8, seed=0,
        )
        defaults.update(overrides)
        return SyntheticCTRStream(**defaults)

    def test_batch_shapes(self, rng):
        stream = self.make_stream()
        batch = stream.make_batch(16, rng)
        assert batch.dense.shape == (16, 8)
        assert len(batch.indices) == 3
        assert batch.labels.shape == (16,)
        assert set(np.unique(batch.labels)).issubset({0.0, 1.0})

    def test_per_table_rows_list(self, rng):
        stream = self.make_stream(num_rows=[10, 20, 30])
        batch = stream.make_batch(4, rng)
        assert [i.num_rows for i in batch.indices] == [10, 20, 30]

    def test_rejects_rows_list_length_mismatch(self):
        with pytest.raises(ValueError, match="tables"):
            self.make_stream(num_rows=[10, 20])

    def test_rejects_distribution_mismatch(self):
        with pytest.raises(ValueError, match="disagrees"):
            self.make_stream(distributions=[UniformDistribution(5)] * 3)

    def test_rejects_wrong_distribution_count(self):
        with pytest.raises(ValueError, match="distributions"):
            self.make_stream(distributions=[UniformDistribution(100)])

    def test_labels_depend_on_lookups(self):
        """The hidden model must couple labels to sparse ids, or training
        embeddings would be pointless."""
        stream = self.make_stream(seed=3)
        rng_a = np.random.default_rng(1)
        labels = [stream.make_batch(512, rng_a).labels.mean() for _ in range(4)]
        # Not degenerate: neither all-zero nor all-one.
        assert 0.05 < np.mean(labels) < 0.95

    def test_batches_iterator_count(self, rng):
        stream = self.make_stream()
        batches = list(stream.batches(4, 5, rng))
        assert len(batches) == 5

    def test_rejects_nonpositive_batch(self, rng):
        with pytest.raises(ValueError, match="batch"):
            self.make_stream().make_batch(0, rng)

    def test_rejects_nonpositive_tables(self):
        with pytest.raises(ValueError, match="num_tables"):
            SyntheticCTRStream(
                num_tables=0, num_rows=10, lookups_per_sample=1, dense_features=2
            )

    def test_ground_truth_learnable_by_logistic_probe(self):
        """A logistic fit on the hidden model's own features should beat
        chance - sanity that labels are not pure noise."""
        stream = self.make_stream(seed=5)
        rng = np.random.default_rng(2)
        batch = stream.make_batch(2000, rng)
        # Probe: predict from the dense part alone via its true weights.
        logits = batch.dense @ stream._dense_weights + stream._bias
        predictions = (logits > 0).astype(float)
        accuracy = (predictions == batch.labels).mean()
        assert accuracy > 0.55
