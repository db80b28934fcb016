"""Executed HotRowCache: policy semantics, replay, analytic crosscheck."""

import numpy as np
import pytest

from repro.core.indexing import IndexArray
from repro.data.distributions import UniformDistribution, ZipfDistribution
from repro.data.generator import SyntheticCTRStream
from repro.data.trace import TraceReplaySource, record_trace
from repro.experiments.hotcache import hotcache_sweep
from repro.model.configs import RM1
from repro.model.hot_cache import HotRowCache, replay_hit_counts
from repro.serving import Request, coalesce_requests
from repro.sim.cache import CachedCPUModel, HotRowCacheSpec


class TestLRUSemantics:
    def test_repeat_within_capacity_hits(self):
        cache = HotRowCache(2, "lru")
        assert cache.access(np.array([1, 2, 1, 2])) == 2
        assert cache.hit_rate == 0.5

    def test_evicts_least_recently_used(self):
        cache = HotRowCache(2, "lru")
        cache.access(np.array([1, 2]))   # resident {1, 2}
        cache.access(np.array([3]))      # evicts 1 -> {2, 3}
        assert cache.access(np.array([1])) == 0  # 1 is gone
        assert cache.access(np.array([3])) == 1  # 3 survived

    def test_touch_refreshes_recency(self):
        cache = HotRowCache(2, "lru")
        cache.access(np.array([1, 2, 1]))  # 2 is now the LRU entry
        cache.access(np.array([3]))        # evicts 2
        assert cache.access(np.array([1])) == 1
        assert cache.access(np.array([2])) == 0

    def test_resident_never_exceeds_capacity(self, rng):
        cache = HotRowCache(5, "lru")
        cache.access(rng.integers(0, 100, 500))
        assert cache.resident_rows == 5


class TestLFUSemantics:
    def test_evicts_least_frequent(self):
        cache = HotRowCache(2, "lfu")
        cache.access(np.array([1, 1, 1, 2]))  # freq: 1->3, 2->1
        cache.access(np.array([3]))           # evicts 2 (freq 1)
        assert cache.access(np.array([1])) == 1
        assert cache.access(np.array([2])) == 0

    def test_frequency_survives_within_capacity(self):
        cache = HotRowCache(3, "lfu")
        cache.access(np.array([1, 2, 3, 1, 2, 3]))
        assert cache.hits == 3
        assert cache.resident_rows == 3

    def test_ties_evict_oldest(self):
        cache = HotRowCache(2, "lfu")
        cache.access(np.array([1, 2]))  # both freq 1; 1 is older
        cache.access(np.array([3]))     # evicts 1
        assert cache.access(np.array([2])) == 1
        assert cache.access(np.array([1])) == 0

    def test_resident_never_exceeds_capacity(self, rng):
        cache = HotRowCache(5, "lfu")
        cache.access(rng.integers(0, 100, 500))
        assert cache.resident_rows == 5


class TestBookkeeping:
    def test_counters_accumulate_across_calls(self):
        cache = HotRowCache(4, "lru")
        cache.access(np.array([1, 2]))
        cache.access(np.array([1, 2]))
        assert cache.accesses == 4
        assert cache.hits == 2

    def test_reset_stats_keeps_residency(self):
        cache = HotRowCache(4, "lru")
        cache.access(np.array([1, 2]))
        cache.reset_stats()
        assert cache.accesses == 0
        assert cache.resident_rows == 2
        assert cache.access(np.array([1])) == 1  # still warm

    def test_clear_is_a_cold_restart(self):
        cache = HotRowCache(4, "lfu")
        cache.access(np.array([1, 2]))
        cache.clear()
        assert cache.resident_rows == 0
        assert cache.access(np.array([1])) == 0

    def test_empty_hit_rate_is_zero(self):
        assert HotRowCache(4).hit_rate == 0.0

    def test_validation(self):
        with pytest.raises(ValueError, match="capacity_rows"):
            HotRowCache(0)
        with pytest.raises(ValueError, match="policy"):
            HotRowCache(4, "fifo")


class TestAnalyticCrosscheck:
    """The acceptance criterion: executed hit rate vs CachedCPUModel.

    The analytic model assumes ideal placement (the hottest rows pinned),
    so it upper-bounds any executed policy; LFU converges toward it from
    below on a long i.i.d. stream (documented band: 0.05), LRU trails
    further (0.12).  Seeds are pinned, so these are exact regressions.
    """

    ROWS = 5_000
    CAPACITY = 500
    ACCESSES = 120_000

    @pytest.fixture(scope="class")
    def distribution(self):
        return ZipfDistribution(self.ROWS, exponent=1.05, shift=3.0)

    @pytest.fixture(scope="class")
    def stream_ids(self, distribution):
        return distribution.sample(self.ACCESSES, np.random.default_rng(321))

    @pytest.fixture(scope="class")
    def analytic(self, distribution):
        return CachedCPUModel(
            HotRowCacheSpec(capacity_rows=self.CAPACITY), distribution
        ).hit_rate

    def test_lfu_agrees_within_documented_tolerance(self, stream_ids, analytic):
        cache = HotRowCache(self.CAPACITY, "lfu")
        cache.access(stream_ids)
        assert abs(cache.hit_rate - analytic) < 0.05

    def test_lru_agrees_within_documented_tolerance(self, stream_ids, analytic):
        cache = HotRowCache(self.CAPACITY, "lru")
        cache.access(stream_ids)
        assert abs(cache.hit_rate - analytic) < 0.12

    def test_neither_policy_beats_the_ideal_bound(self, stream_ids, analytic):
        for policy in HotRowCache.POLICIES:
            cache = HotRowCache(self.CAPACITY, policy)
            cache.access(stream_ids)
            assert cache.hit_rate <= analytic + 0.02

    def test_warm_steady_state_is_closer_than_cold(self, stream_ids, analytic):
        cache = HotRowCache(self.CAPACITY, "lfu")
        half = self.ACCESSES // 2
        cache.access(stream_ids[:half])
        cold_gap = abs(cache.hit_rate - analytic)
        cache.reset_stats()
        cache.access(stream_ids[half:])
        warm_gap = abs(cache.hit_rate - analytic)
        assert warm_gap < cold_gap


class TestReplay:
    """The hit rate is a function of the index stream: replaying it through
    one cold cache per table is the whole measurement."""

    CONFIG = RM1.with_overrides(
        num_tables=2, gathers_per_table=4, rows_per_table=400,
        bottom_mlp=(6, 8), top_mlp=(8, 1), embedding_dim=8,
    )

    def stream(self):
        return SyntheticCTRStream(
            num_tables=self.CONFIG.num_tables,
            num_rows=self.CONFIG.rows_per_table,
            lookups_per_sample=self.CONFIG.gathers_per_table,
            dense_features=self.CONFIG.dense_features,
            distributions=[
                ZipfDistribution(self.CONFIG.rows_per_table, exponent=1.0,
                                 shift=2.0)
            ] * self.CONFIG.num_tables,
            seed=0,
        )

    @staticmethod
    def hand_fed(batches, capacity_rows, policy):
        caches = [HotRowCache(capacity_rows, policy) for _ in batches[0]]
        for indices in batches:
            for cache, index in zip(caches, indices):
                cache.access(index.src)
        return (sum(c.hits for c in caches), sum(c.accesses for c in caches))

    @pytest.mark.parametrize("policy", HotRowCache.POLICIES)
    def test_counters_equal_hand_fed_caches(self, policy):
        stream, rng = self.stream(), np.random.default_rng(1)
        batches = [stream.next_batch(16, rng).indices for _ in range(3)]
        hits, accesses = replay_hit_counts(batches, 50, policy)
        assert (hits, accesses) == self.hand_fed(batches, 50, policy)
        assert accesses == 16 * 4 * 2 * 3
        assert 0 < hits < accesses

    def test_tables_keep_separate_caches(self):
        # The same row id in two tables is two rows: no cross-table hits.
        index = IndexArray(np.array([5]), np.array([0]), num_rows=8,
                           num_outputs=1)
        assert replay_hit_counts([[index, index]], 4, "lru") == (0, 2)

    def test_empty_stream_counts_nothing(self):
        assert replay_hit_counts([], 4, "lfu") == (0, 0)

    @pytest.mark.parametrize("policy", HotRowCache.POLICIES)
    def test_trace_sweep_exhausts_cleanly_and_equals_hand_fed(
        self, tmp_path, policy
    ):
        trace = record_trace(
            self.stream(), tmp_path / "t.npz", 16, 3, np.random.default_rng(1)
        )
        (row,) = hotcache_sweep(
            trace=trace, steps=10, capacity_rows=50, policies=(policy,)
        )
        with TraceReplaySource(trace) as source:
            batches = [source.next_batch(None).indices for _ in range(3)]
        hits, accesses = self.hand_fed(batches, 50, policy)
        assert (row.steps, row.batch, row.accesses) == (3, 16, accesses)
        assert row.measured_hit_rate == hits / accesses


def small_stream(distribution, num_rows=64, seed=0):
    return SyntheticCTRStream(
        num_tables=2, num_rows=num_rows, lookups_per_sample=4,
        dense_features=4, distributions=[distribution] * 2, seed=seed,
    )


def table_ids(batches):
    """Each table's row ids over the whole stream, in stream order."""
    return [
        np.concatenate([indices[table].src for indices in batches])
        for table in range(len(batches[0]))
    ]


class TestReplayOracles:
    """Replay counts against closed forms and against the regroupings the
    trainer and the serving plane apply to the stream before it executes."""

    DISTRIBUTIONS = {
        "uniform": lambda rows: UniformDistribution(rows),
        "zipf-1.05": lambda rows: ZipfDistribution(rows, exponent=1.05),
        "zipf-2.0": lambda rows: ZipfDistribution(rows, exponent=2.0),
    }

    @pytest.mark.parametrize("name", sorted(DISTRIBUTIONS))
    @pytest.mark.parametrize("policy", HotRowCache.POLICIES)
    def test_a_cache_holding_every_row_misses_only_first_touches(
        self, policy, name
    ):
        stream = small_stream(self.DISTRIBUTIONS[name](64))
        rng = np.random.default_rng(1)
        batches = [stream.next_batch(16, rng).indices for _ in range(3)]
        hits, accesses = replay_hit_counts(batches, 64, policy)
        distinct = sum(np.unique(ids).size for ids in table_ids(batches))
        assert accesses == 16 * 4 * 2 * 3
        assert hits == accesses - distinct
        assert 0 < hits < accesses

    @pytest.mark.parametrize("name", sorted(DISTRIBUTIONS))
    @pytest.mark.parametrize("policy", HotRowCache.POLICIES)
    def test_a_one_row_cache_hits_only_immediate_repeats(self, policy, name):
        # Repeats across a batch boundary count: the cache outlives a step.
        stream = small_stream(self.DISTRIBUTIONS[name](64))
        rng = np.random.default_rng(1)
        batches = [stream.next_batch(16, rng).indices for _ in range(3)]
        hits, accesses = replay_hit_counts(batches, 1, policy)
        repeats = sum(
            int(np.count_nonzero(ids[1:] == ids[:-1]))
            for ids in table_ids(batches)
        )
        assert hits == repeats
        assert 0 < hits < accesses

    @pytest.mark.parametrize("dispatch", [1, 2, 3, 7])
    @pytest.mark.parametrize("policy", HotRowCache.POLICIES)
    def test_coalesced_requests_replay_as_their_sequence(
        self, policy, dispatch
    ):
        """Every batching policy dispatches contiguous FIFO slices, so one
        replay of the requests is every policy's hit rate."""
        stream = small_stream(ZipfDistribution(64, exponent=1.05))
        rng = np.random.default_rng(1)
        requests = [
            Request(i, 0.0, stream.next_batch(1 + i % 4, rng))
            for i in range(15)
        ]
        dispatched = [
            coalesce_requests(requests[start:start + dispatch])
            for start in range(0, len(requests), dispatch)
        ]
        assert replay_hit_counts(
            [batch.indices for batch in dispatched], 16, policy
        ) == replay_hit_counts(
            [request.data.indices for request in requests], 16, policy
        )


class TestLFUHeapBound:
    def test_heap_stays_bounded_on_hit_heavy_streams(self):
        """Hit-heavy streams must not grow the lazy heap with access count."""
        cache = HotRowCache(8, "lfu")
        hot = np.arange(8)
        for _ in range(2_000):
            cache.access(hot)
        assert len(cache._heap) <= max(64, 4 * cache.capacity_rows)
        # Residency and correctness survive compaction.
        assert cache.resident_rows == 8
        assert cache.access(hot) == 8

    def test_eviction_still_correct_after_compaction(self):
        cache = HotRowCache(2, "lfu")
        for _ in range(200):
            cache.access(np.array([1, 2]))  # force many compactions
        cache.access(np.array([3]))  # evicts neither hot row's frequency...
        assert cache.access(np.array([1])) + cache.access(np.array([2])) >= 1
