"""Executors: the deterministic latency model and the real engine path."""

import numpy as np
import pytest

from repro.data.arrivals import ArrivalProcess
from repro.data.generator import SyntheticCTRStream
from repro.model.configs import RM1
from repro.model.dlrm import DLRM
from repro.model.optim import Adam
from repro.runtime.checkpoint import restore_trainer, save_checkpoint
from repro.runtime.trainer import FunctionalTrainer
from repro.serving import (
    EngineExecutor,
    FixedLatencyExecutor,
    coalesce_requests,
    generate_requests,
)

CONFIG = RM1.with_overrides(
    num_tables=2, gathers_per_table=3, rows_per_table=48,
    bottom_mlp=(6, 4), top_mlp=(4, 1), embedding_dim=4,
)


def make_stream(seed=0):
    return SyntheticCTRStream(
        num_tables=CONFIG.num_tables, num_rows=CONFIG.rows_per_table,
        lookups_per_sample=CONFIG.gathers_per_table,
        dense_features=CONFIG.dense_features, seed=seed,
    )


def make_model(seed=0, dtype=np.float64):
    return DLRM(CONFIG, rng=np.random.default_rng(seed), dtype=dtype)


def make_batch(samples=6, seed=0):
    requests = generate_requests(
        make_stream(), 3, samples // 3 or 1,
        ArrivalProcess(100.0, seed=seed), np.random.default_rng(seed),
    )
    return coalesce_requests(requests)


class TestFixedLatencyExecutor:
    def test_affine_service_model(self):
        executor = FixedLatencyExecutor(0.002, 0.0001)
        data = make_batch(samples=6)
        result = executor.execute(data)
        assert result.seconds == pytest.approx(0.002 + 0.0001 * data.size)
        assert result.logits is None

    def test_rejects_negative_times(self):
        with pytest.raises(ValueError, match="non-negative"):
            FixedLatencyExecutor(-0.001)
        with pytest.raises(ValueError, match="non-negative"):
            FixedLatencyExecutor(0.001, -0.1)


class TestEngineExecutor:
    def test_logits_bit_identical_to_direct_forward(self):
        model = make_model()
        executor = EngineExecutor(model)
        data = make_batch()
        result = executor.execute(data)
        assert np.array_equal(
            result.logits, model.forward(data.dense, data.indices)
        )
        assert result.seconds == result.report.wall_seconds
        assert result.seconds > 0

    def test_parameters_stay_frozen_across_batches(self):
        executor = EngineExecutor(make_model())
        reference = make_model()
        for seed in range(3):
            executor.execute(make_batch(seed=seed))
        for a, b in zip(
            executor.trainer.model.all_parameters(),
            reference.all_parameters(),
        ):
            assert np.array_equal(a, b)

    def test_aggregates_accumulate_and_reset(self):
        executor = EngineExecutor(make_model())
        executor.execute(make_batch(seed=0))
        executor.execute(make_batch(seed=1))
        assert executor.batches == 2
        assert executor.samples == 2 * make_batch().size
        assert executor.timings.totals.get("forward", 0.0) > 0
        executor.reset_metrics()
        assert executor.batches == 0
        assert executor.samples == 0
        assert executor.timings.totals == {}

    def test_restored_checkpoint_serves_the_trained_parameters(self, tmp_path):
        trained = FunctionalTrainer(
            make_model(), make_stream(), Adam(lr=0.1)
        )
        trained.train(8, 3, np.random.default_rng(1))
        path = save_checkpoint(tmp_path / "trained.npz", trained, 3)

        executor = EngineExecutor(make_model(), optimizer=Adam(lr=0.1))
        restore_trainer(executor.trainer, path)
        data = make_batch()
        result = executor.execute(data)
        assert np.array_equal(
            result.logits,
            trained.model.forward(data.dense, data.indices),
        )
