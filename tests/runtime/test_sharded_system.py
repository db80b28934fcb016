"""Tests for the sharded NMP system variant of the timeline model."""

import pytest

from repro.model.configs import RM1, RM2, RM3, RM4
from repro.runtime.systems import (
    NMPSystem,
    OP_EXCHANGE,
    ShardedNMPSystem,
    SystemHardware,
    compute_workload,
)

HW = SystemHardware()
STATS = compute_workload(RM1, 2048)


class TestConstruction:
    def test_rejects_nonpositive_shards(self):
        with pytest.raises(ValueError, match="num_shards"):
            ShardedNMPSystem(HW, num_shards=0)

    def test_rejects_unknown_policy(self):
        with pytest.raises(ValueError, match="policy"):
            ShardedNMPSystem(HW, num_shards=2, policy="diagonal")

    def test_name_encodes_configuration(self):
        system = ShardedNMPSystem(HW, num_shards=4, policy="table")
        assert "table" in system.name and "4" in system.name


class TestSingleShardReference:
    @pytest.mark.parametrize("model", [RM1, RM2, RM3, RM4], ids=lambda m: m.name)
    @pytest.mark.parametrize("iterations", [None, 3], ids=["single", "pipelined"])
    def test_one_shard_is_ours_nmp_span_for_span(self, model, iterations):
        """One shard is Ours(NMP): the same spans, on the plain ``nmp``
        resource, with no exchange span."""
        stats = compute_workload(model, 2048)

        def spans(system):
            if iterations is None:
                result = system.run_iteration(stats)
            else:
                result = system.run_pipeline(stats, iterations)
            return [
                (s.resource, s.op, s.start, s.duration, s.bytes_moved)
                for s in result.timeline.spans
            ]

        ours = spans(NMPSystem(HW, casting=True))
        assert spans(ShardedNMPSystem(HW, num_shards=1)) == ours
        assert OP_EXCHANGE not in {op for _, op, *_ in ours}


@pytest.mark.parametrize("policy", ["row", "table"])
class TestScalingBehavior:
    def test_makespan_improves_with_shards(self, policy):
        totals = [
            ShardedNMPSystem(HW, num_shards=k, policy=policy)
            .run_iteration(STATS).total
            for k in (1, 2, 4, 8)
        ]
        assert all(a > b for a, b in zip(totals, totals[1:]))

    def test_per_device_traffic_monotone_non_increasing(self, policy):
        series = [
            ShardedNMPSystem(HW, num_shards=k, policy=policy)
            .per_device_exchange_bytes(STATS)
            for k in (1, 2, 4, 8, 16)
        ]
        assert all(a >= b for a, b in zip(series, series[1:]))

    def test_timeline_is_physical(self, policy):
        # run_iteration validates internally; also exercise pipelining.
        system = ShardedNMPSystem(HW, num_shards=3, policy=policy)
        result = system.run_pipeline(STATS, iterations=3)
        assert result.total > 0

    def test_every_shard_has_resources(self, policy):
        system = ShardedNMPSystem(HW, num_shards=3, policy=policy)
        resources = set(system.run_iteration(STATS).timeline.resources())
        for shard in range(3):
            assert f"nmp[{shard}]" in resources
            assert f"fabric[{shard}]" in resources


class TestShardGeometry:
    def test_shard_lookups_cover_batch(self):
        system = ShardedNMPSystem(HW, num_shards=4)
        assert system.shard_lookups(STATS) * 4 >= STATS.n

    def test_shard_outputs_interpolate(self):
        system = ShardedNMPSystem(HW, num_shards=4)
        assert STATS.num_outputs / 4 <= system.shard_outputs(STATS) <= STATS.num_outputs

    def test_table_policy_clamps_to_table_count(self):
        """More shards than tables leaves the extras idle, not faster."""
        at_tables = ShardedNMPSystem(HW, num_shards=10, policy="table")
        beyond = ShardedNMPSystem(HW, num_shards=64, policy="table")
        assert beyond.effective_shards(STATS) == 10  # RM1 has 10 tables
        assert beyond.per_device_exchange_bytes(STATS) == \
            at_tables.per_device_exchange_bytes(STATS)
        assert beyond.run_iteration(STATS).total == pytest.approx(
            at_tables.run_iteration(STATS).total
        )

    def test_row_policy_is_not_clamped(self):
        system = ShardedNMPSystem(HW, num_shards=64, policy="row")
        assert system.effective_shards(STATS) == 64

    def test_mlp_heavy_model_scales_less(self):
        """RM3's DNN-dominated iteration gains less from embedding sharding."""
        stats3 = compute_workload(RM3, 2048)
        def speedup(stats):
            base = ShardedNMPSystem(HW, num_shards=1).run_iteration(stats).total
            wide = ShardedNMPSystem(HW, num_shards=8).run_iteration(stats).total
            return base / wide
        assert speedup(stats3) < speedup(STATS)
