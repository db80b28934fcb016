"""Executed HotRowCache: policy semantics, trainer wiring, analytic crosscheck."""

import numpy as np
import pytest

from repro.data.distributions import ZipfDistribution
from repro.data.generator import SyntheticCTRStream
from repro.model.configs import RM1
from repro.model.dlrm import DLRM
from repro.model.hot_cache import HotRowCache
from repro.model.optim import SGD
from repro.runtime.pipeline import PipelinedTrainer
from repro.runtime.trainer import FunctionalTrainer
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


CONFIG = RM1.with_overrides(
    num_tables=2,
    gathers_per_table=4,
    rows_per_table=400,
    bottom_mlp=(6, 8),
    top_mlp=(8, 1),
    embedding_dim=8,
)


def make_parts(seed=0):
    model = DLRM(CONFIG, rng=np.random.default_rng(seed))
    stream = SyntheticCTRStream(
        num_tables=CONFIG.num_tables,
        num_rows=CONFIG.rows_per_table,
        lookups_per_sample=CONFIG.gathers_per_table,
        dense_features=CONFIG.dense_features,
        distributions=[
            ZipfDistribution(CONFIG.rows_per_table, exponent=1.0, shift=2.0)
        ] * CONFIG.num_tables,
        seed=seed,
    )
    return model, stream


class TestTrainerIntegration:
    def test_report_carries_measured_hit_rate(self):
        model, stream = make_parts()
        trainer = FunctionalTrainer(
            model, stream, SGD(lr=0.05),
            hot_cache=HotRowCacheSpec(capacity_rows=50), cache_policy="lfu",
        )
        report = trainer.train(16, 3, np.random.default_rng(1))
        assert report.cache_policy == "lfu"
        expected_accesses = 16 * CONFIG.gathers_per_table * CONFIG.num_tables * 3
        assert report.cache_accesses == expected_accesses
        assert report.cache_hits == sum(c.hits for c in trainer.hot_caches)
        assert report.cache_hit_rate == pytest.approx(
            report.cache_hits / report.cache_accesses
        )
        assert 0.0 < report.cache_hit_rate < 1.0

    def test_report_without_cache_leaves_fields_none(self):
        model, stream = make_parts()
        trainer = FunctionalTrainer(model, stream, SGD(lr=0.05))
        report = trainer.train(16, 2, np.random.default_rng(1))
        assert report.cache_hit_rate is None
        assert report.cache_policy is None
        assert report.cache_accesses == 0

    def test_pipelined_trainer_reports_cache_stats(self):
        model, stream = make_parts()
        trainer = PipelinedTrainer(
            model, stream, SGD(lr=0.05),
            hot_cache=HotRowCacheSpec(capacity_rows=50), cache_policy="lru",
        )
        report = trainer.train(16, 3, np.random.default_rng(1))
        assert report.cache_policy == "lru"
        assert report.cache_accesses == 16 * 4 * 2 * 3

    def test_cache_does_not_change_numerics(self):
        plain_model, plain_stream = make_parts()
        plain = FunctionalTrainer(plain_model, plain_stream, SGD(lr=0.05))
        plain_report = plain.train(16, 3, np.random.default_rng(1))
        cached_model, cached_stream = make_parts()
        cached = FunctionalTrainer(
            cached_model, cached_stream, SGD(lr=0.05),
            hot_cache=HotRowCacheSpec(capacity_rows=50),
        )
        cached_report = cached.train(16, 3, np.random.default_rng(1))
        assert plain_report.losses == cached_report.losses
        for a, b in zip(
            plain_model.all_parameters(), cached_model.all_parameters()
        ):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("schedule", ["serial", "parallel"])
    @pytest.mark.parametrize("lookahead", [0, 1])
    @pytest.mark.parametrize("policy", ["row", "table"])
    @pytest.mark.parametrize("num_shards", [1, 2, 3])
    @pytest.mark.parametrize("cache_policy", ["lru", "lfu"])
    def test_sharded_counters_equal_the_unsharded_runs(
        self, cache_policy, num_shards, policy, lookahead, schedule
    ):
        """Each cache sees its table's whole row stream, in stream order,
        wherever the shards then gather: hits and accesses of ``train()``
        and ``infer()`` do not depend on the layout or the executor."""
        spec = HotRowCacheSpec(capacity_rows=50)

        def counters(**layout):
            model, stream = make_parts()
            trainer = FunctionalTrainer(
                model, stream, SGD(lr=0.05), backend="vectorized",
                hot_cache=spec, cache_policy=cache_policy,
                lookahead=lookahead, **layout,
            )
            trained = trainer.train(16, 3, np.random.default_rng(1))
            scored = trainer.infer(16, 2, np.random.default_rng(2))
            return [
                (report.cache_hits, report.cache_accesses, report.cache_policy)
                for report in (trained, scored)
            ]

        want = counters()
        assert want[0][0] > 0 and want[0][1] == 16 * 4 * 2 * 3
        assert counters(
            num_shards=num_shards, policy=policy, schedule=schedule
        ) == want

    def test_stats_reset_between_train_calls(self):
        model, stream = make_parts()
        trainer = FunctionalTrainer(
            model, stream, SGD(lr=0.05),
            hot_cache=HotRowCacheSpec(capacity_rows=50),
        )
        trainer.train(16, 2, np.random.default_rng(1))
        second = trainer.train(16, 2, np.random.default_rng(2))
        # Second run's counters cover the second run only...
        assert second.cache_accesses == 16 * 4 * 2 * 2
        # ...but measure against a cache the first run warmed.
        assert second.cache_hit_rate > 0.0

    def test_cacheless_trainer_detaches_another_trainers_caches(self):
        model, stream = make_parts()
        cached = FunctionalTrainer(
            model, stream, SGD(lr=0.05),
            hot_cache=HotRowCacheSpec(capacity_rows=50),
        )
        cached.train(16, 1, np.random.default_rng(1))
        _, stream2 = make_parts()
        plain = FunctionalTrainer(model, stream2, SGD(lr=0.05))
        report = plain.train(16, 1, np.random.default_rng(1))
        assert report.cache_hit_rate is None
        assert all(bag.hot_cache is None for bag in model.embeddings)


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
