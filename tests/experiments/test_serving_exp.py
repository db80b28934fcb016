"""Tests for the latency-bounded serving sweep ("serve")."""

import numpy as np
import pytest

from repro.data.trace import record_trace
from repro.experiments.serving import (
    SERVING_CONFIG,
    SERVING_POLICIES,
    ServingRow,
    format_serving,
    serving_sweep,
)
from repro.experiments.overlap import OVERLAP_CONFIG, overlap_sweep
from repro.data.generator import SyntheticCTRStream
from repro.model.configs import RM1

# Tiny geometry so each cell's engine forwards are cheap.
TINY_CONFIG = RM1.with_overrides(
    num_tables=2, gathers_per_table=3, rows_per_table=64,
    bottom_mlp=(8, 4), top_mlp=(4, 1), embedding_dim=4,
)


@pytest.fixture(scope="module")
def rows():
    return serving_sweep(
        rates=(100.0, 500.0), policies=("single", "dynamic"),
        num_requests=16, sla_ms=100.0, config=TINY_CONFIG,
    )


class TestServingSweep:
    def test_one_row_per_cell(self, rows):
        assert len(rows) == 4
        assert {(row.rate_per_s, row.policy) for row in rows} == {
            (100.0, "single"), (100.0, "dynamic"),
            (500.0, "single"), (500.0, "dynamic"),
        }

    def test_every_request_served(self, rows):
        for row in rows:
            assert row.requests == 16
            assert 1 <= row.batches <= 16

    def test_latency_percentiles_are_ordered(self, rows):
        for row in rows:
            assert 0 < row.p50_ms <= row.p95_ms <= row.p99_ms

    def test_generous_sla_is_met_on_the_virtual_clock(self, rows):
        for row in rows:
            assert row.sla_met
            assert row.sla_attainment == 1.0
            assert row.qps_under_sla == pytest.approx(row.qps)

    def test_policies_share_the_workload(self, rows):
        # Same rate => identical arrivals, so QPS differences come from
        # scheduling alone and single's batches == requests exactly.
        single = next(r for r in rows if r.rate_per_s == 100.0
                      and r.policy == "single")
        assert single.batches == single.requests
        assert single.max_batch_requests == 1

    def test_hill_policy_reports_the_climb_winner(self):
        rows = serving_sweep(
            rates=(1000.0,), policies=("hill",), num_requests=16,
            sla_ms=100.0, config=TINY_CONFIG,
        )
        assert len(rows) == 1
        assert rows[0].policy == "hill"
        assert 1 <= rows[0].max_batch_requests <= 8

    def test_hot_cache_knob_reports_hit_rate(self):
        rows = serving_sweep(
            rates=(200.0,), policies=("dynamic",), num_requests=12,
            sla_ms=100.0, config=TINY_CONFIG, hot_cache_rows=32,
            cache_policy="lfu",
        )
        assert rows[0].cache_hit_rate is not None
        assert 0.0 <= rows[0].cache_hit_rate <= 1.0

    def test_workload_is_stable_across_runs(self):
        # Execution seconds are *measured*, so latency percentiles carry
        # wall-clock jitter (exact determinism is pinned separately with
        # the FixedLatencyExecutor in tests/serving/test_batcher.py) —
        # but the seeded workload itself must not drift between runs.
        kwargs = dict(rates=(300.0,), policies=("single",),
                      num_requests=12, sla_ms=100.0, config=TINY_CONFIG)
        first = serving_sweep(**kwargs)[0]
        second = serving_sweep(**kwargs)[0]
        assert first.requests == second.requests == 12
        assert first.batches == second.batches == 12
        assert first.source == second.source

    @pytest.mark.parametrize("argument,message", [
        ("sla_ms", "sla_ms"), ("max_wait_ms", "max_wait_ms"),
    ])
    def test_rejects_nan_before_serving(self, argument, message):
        with pytest.raises(ValueError, match=message):
            serving_sweep(rates=(200.0,), policies=("single",),
                          num_requests=4, config=TINY_CONFIG,
                          **{argument: float("nan")})

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="num_requests"):
            serving_sweep(num_requests=0, config=TINY_CONFIG)
        with pytest.raises(ValueError, match="sla_ms"):
            serving_sweep(sla_ms=0, config=TINY_CONFIG)
        with pytest.raises(ValueError, match="policy"):
            serving_sweep(policies=("nope",), config=TINY_CONFIG)
        with pytest.raises(ValueError, match="rates"):
            serving_sweep(rates=(), config=TINY_CONFIG)
        with pytest.raises(ValueError, match="positive"):
            serving_sweep(rates=(-5.0,), config=TINY_CONFIG)


class TestServingTraceMode:
    def test_each_recorded_batch_serves_as_one_request(self, tmp_path):
        stream = SyntheticCTRStream(
            num_tables=TINY_CONFIG.num_tables,
            num_rows=TINY_CONFIG.rows_per_table,
            lookups_per_sample=TINY_CONFIG.gathers_per_table,
            dense_features=TINY_CONFIG.dense_features, seed=0,
        )
        path = record_trace(
            stream, tmp_path / "serve.npz", batch=4, steps=5,
            rng=np.random.default_rng(0),
        )
        rows = serving_sweep(
            rates=(200.0,), policies=("single",), num_requests=10,
            sla_ms=100.0, config=TINY_CONFIG, trace=path,
        )
        assert rows[0].requests == 5  # capped at the trace's steps
        assert rows[0].source.startswith("trace:")


class TestCheckpointHandoff:
    def test_overlap_checkpoint_restores_into_serve(self, tmp_path):
        # The serving model deliberately shares the overlap experiment's
        # geometry, so its checkpoints — at any shard count — restore
        # without reshaping.
        assert SERVING_CONFIG is OVERLAP_CONFIG
        overlap_sweep(
            batches=(32,), shard_counts=(2,), steps=2, repeats=1,
            checkpoint_dir=tmp_path,
        )
        rows = serving_sweep(
            rates=(200.0,), policies=("single",), num_requests=8,
            sla_ms=200.0, resume=tmp_path / "overlap-b32-s2.npz",
        )
        assert rows[0].requests == 8
        assert rows[0].sla_met


class TestFormatServing:
    def test_renders_every_cell_and_the_sla_footer(self, rows):
        text = format_serving(rows)
        for row in rows:
            assert row.policy in text
        assert "p99(ms)" in text
        assert "QPS<=SLA" in text
        assert "Tail SLA: 100 ms" in text

    def test_empty_rows(self):
        assert format_serving([]) == "(no rows)"

    def test_policy_registry_is_complete(self):
        assert SERVING_POLICIES == ("single", "dynamic", "hill")
        assert all(isinstance(row, ServingRow) for row in serving_sweep(
            rates=(100.0,), policies=SERVING_POLICIES, num_requests=8,
            sla_ms=100.0, config=TINY_CONFIG,
        ))
