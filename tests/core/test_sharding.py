"""Tests for the multi-device partitioning and index-splitting primitives,
the reference the analytic sharding model is checked against."""

import numpy as np
import pytest

from repro.core.indexing import IndexArray
from repro.core.sharding import (
    RowWisePartition,
    TableWisePartition,
    make_partition,
)
from repro.core.traffic import expected_shard_outputs, sharded_exchange_bytes
from repro.data.distributions import UniformDistribution


def sample_index():
    # 2 samples: sample 0 reduces rows {1, 2, 4}, sample 1 rows {0, 2}.
    return IndexArray(src=[1, 2, 4, 0, 2], dst=[0, 0, 0, 1, 1], num_rows=6)


class TestMakePartition:
    def test_policies(self):
        assert isinstance(make_partition("row", 2), RowWisePartition)
        assert isinstance(make_partition("table", 2), TableWisePartition)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="policy"):
            make_partition("diagonal", 2)

    def test_nonpositive_shards_rejected(self):
        with pytest.raises(ValueError, match="num_shards"):
            RowWisePartition(0)


class TestRowWisePartition:
    def test_row_ownership_stripes(self):
        part = RowWisePartition(3)
        rows = np.arange(7)
        assert part.owner_of_rows(0, rows).tolist() == [0, 1, 2, 0, 1, 2, 0]

    def test_ownership_partitions_the_table(self):
        part = RowWisePartition(3)
        counts = np.bincount(part.owner_of_rows(0, np.arange(7)), minlength=3)
        assert counts.tolist() == [3, 2, 2]  # every row on exactly one shard

    def test_split_round_trip(self):
        index = sample_index()
        part = RowWisePartition(2)
        slices = part.split(index, 0)
        # Every lookup lands on exactly one shard.
        total = sum(s.num_lookups for s in slices if s is not None)
        assert total == index.num_lookups
        for shard, slice_ in enumerate(slices):
            if slice_ is None:
                continue
            # One row space: src is the parent's row id, untranslated, and
            # every one of them is a row this shard owns.
            assert np.array_equal(slice_.index.src, index.src[slice_.positions])
            assert slice_.index.num_rows == index.num_rows
            assert np.all(part.owner_of_rows(0, slice_.index.src) == shard)
            global_dst = slice_.touched[slice_.index.dst]
            assert np.array_equal(global_dst, index.dst[slice_.positions])

    def test_single_shard_split_is_identity(self):
        index = sample_index()
        (slice_,) = RowWisePartition(1).split(index, 0)
        assert slice_.index is index  # no copy, no compaction
        assert slice_.touched is None and slice_.positions is None
        assert slice_.num_touched == index.num_outputs

    def test_empty_shard_in_batch(self):
        # All src ids even -> shard 1 of a 2-way row partition sees nothing.
        index = IndexArray(src=[0, 2, 4], dst=[0, 1, 1], num_rows=6)
        slices = RowWisePartition(2).split(index, 0)
        assert slices[1] is None
        assert slices[0].num_lookups == 3

    def test_all_indices_on_one_shard(self):
        index = IndexArray(src=[3, 3, 3], dst=[0, 1, 2], num_rows=6)
        slices = RowWisePartition(3).split(index, 0)
        live = [s for s in slices if s is not None]
        assert len(live) == 1
        assert live[0].shard == 3 % 3
        assert live[0].num_lookups == 3

    def test_touched_slots_are_compact(self):
        index = IndexArray(
            src=[1, 3, 5, 2], dst=[0, 2, 2, 3], num_rows=6, num_outputs=5)
        _, odd = RowWisePartition(2).split(index, 0)
        # Slots 1, 3 and 4 receive no odd-row lookups; touched lists only
        # the live slots and the slice's dst are positions into it.
        assert odd.touched.tolist() == [0, 2]
        assert odd.index.num_outputs == 2
        assert odd.index.dst.tolist() == [0, 1, 1]

    @pytest.mark.parametrize("partition", [
        RowWisePartition(1), TableWisePartition(3)], ids=["row-1", "table-3"])
    def test_a_whole_slice_counts_only_live_slots(self, partition):
        """Empty bags receive nothing: a whole slice touches the slots with
        at least one lookup, the count a compacting split would give."""
        index = IndexArray(src=[1, 3, 5], dst=[0, 2, 2], num_rows=6, num_outputs=4)
        (slice_,) = [s for s in partition.split(index, 0) if s is not None]
        assert slice_.index is index
        assert slice_.num_touched == 2
        assert slice_.num_lookups == 3

    def test_an_empty_table_has_no_slices(self):
        index = IndexArray(src=[], dst=[], num_rows=6, num_outputs=4)
        assert RowWisePartition(1).split(index, 0) == [None]
        assert TableWisePartition(2).split(index, 1) == [None, None]


class TestTableWisePartition:
    def test_table_ownership_round_robin(self):
        part = TableWisePartition(3)
        assert [part.owner_of_table(t) for t in range(5)] == [0, 1, 2, 0, 1]

    def test_split_routes_whole_table(self):
        index = sample_index()
        part = TableWisePartition(2)
        slices = part.split(index, 1)  # table 1 -> shard 1
        assert slices[0] is None
        assert slices[1].num_lookups == index.num_lookups
        assert np.array_equal(slices[1].index.src, index.src)

    def test_every_row_of_a_table_has_the_tables_owner(self):
        part = TableWisePartition(2)
        assert part.owner_of_rows(0, np.arange(4)).tolist() == [0, 0, 0, 0]
        assert part.owner_of_rows(1, np.arange(4)).tolist() == [1, 1, 1, 1]


class TestAnalyticModelAgainstSplit:
    """The analytic per-shard payload is what the split it models reads."""

    BATCH = 512
    DRAWS = 20

    @staticmethod
    def draw(rng, lookups_per_sample, batch):
        src = UniformDistribution(100_000).sample(batch * lookups_per_sample, rng)
        dst = np.repeat(np.arange(batch), lookups_per_sample)
        return IndexArray(src, dst, num_rows=100_000, num_outputs=batch)

    @pytest.mark.parametrize("lookups_per_sample", [1, 4, 32])
    @pytest.mark.parametrize("num_shards", [2, 4, 8])
    def test_row_policy_touched_slots_match_expectation(
        self, num_shards, lookups_per_sample
    ):
        rng = np.random.default_rng(num_shards * 100 + lookups_per_sample)
        partition = RowWisePartition(num_shards)
        touched = [
            slice_.num_touched
            for _ in range(self.DRAWS)
            for slice_ in partition.split(
                self.draw(rng, lookups_per_sample, self.BATCH), 0)
            if slice_ is not None
        ]
        assert len(touched) == self.DRAWS * num_shards
        expected = expected_shard_outputs(
            self.BATCH * lookups_per_sample, self.BATCH, num_shards)
        assert np.mean(touched) == pytest.approx(expected, rel=0.01)

    @pytest.mark.parametrize("num_shards", [2, 4, 8])
    def test_table_policy_reads_its_tables_slots_exactly(self, num_shards):
        # Every shard owns tables / N whole tables, each feeding all B slots.
        tables = 8
        rng = np.random.default_rng(num_shards)
        partition = TableWisePartition(num_shards)
        per_shard = np.zeros(num_shards, dtype=np.int64)
        for table_id in range(tables):
            for slice_ in partition.split(self.draw(rng, 4, self.BATCH), table_id):
                if slice_ is not None:
                    per_shard[slice_.shard] += slice_.num_touched
        expected = expected_shard_outputs(
            tables * self.BATCH * 4, tables * self.BATCH, num_shards,
            policy="table")
        assert expected == tables * self.BATCH / num_shards
        assert per_shard.tolist() == [expected] * num_shards


class TestExchangeTraffic:
    def test_one_shard_matches_full_gradient_table(self):
        n, outputs, dim = 800, 100, 16
        expected = outputs * dim * 4 + 2 * n * 8
        assert sharded_exchange_bytes(n, outputs, dim, num_shards=1) == expected
        assert sharded_exchange_bytes(
            n, outputs, dim, num_shards=1, policy="table"
        ) == expected

    @pytest.mark.parametrize("policy", ["row", "table"])
    def test_monotone_non_increasing_in_shards(self, policy):
        n, outputs, dim = 6400, 320, 64
        series = [
            sharded_exchange_bytes(n, outputs, dim, num_shards=k, policy=policy)
            for k in (1, 2, 4, 8, 16, 32)
        ]
        assert all(a >= b for a, b in zip(series, series[1:]))

    def test_expected_shard_outputs_bounds(self):
        value = expected_shard_outputs(1000, 100, 4)
        assert 100 / 4 <= value <= 100  # between even split and full table
        assert expected_shard_outputs(1000, 100, 1) == 100.0
        assert expected_shard_outputs(1000, 100, 4, policy="table") == 25.0

    def test_table_policy_clamps_to_table_count(self):
        # 8 tables: 64 "shards" cannot shrink the payload past an 8-way split.
        n, outputs, dim = 6400, 320, 64
        clamped = sharded_exchange_bytes(
            n, outputs, dim, num_shards=64, policy="table", num_tables=8
        )
        at_tables = sharded_exchange_bytes(
            n, outputs, dim, num_shards=8, policy="table"
        )
        assert clamped == at_tables
        assert expected_shard_outputs(
            n, outputs, 64, policy="table", num_tables=8
        ) == outputs / 8

    def test_expected_shard_outputs_validation(self):
        with pytest.raises(ValueError):
            expected_shard_outputs(100, 0, 2)
        with pytest.raises(ValueError):
            expected_shard_outputs(100, 10, 0)
        with pytest.raises(ValueError, match="policy"):
            expected_shard_outputs(100, 10, 2, policy="diagonal")
