"""Tests for the sharded functional training path of FunctionalTrainer."""

import numpy as np
import pytest

from repro.core.indexing import IndexArray
from repro.data.generator import CTRBatch, SyntheticCTRStream
from repro.model.configs import RM1
from repro.model.dlrm import DLRM
from repro.model.optim import SGD, Adagrad
from repro.runtime.trainer import FunctionalTrainer

CONFIG = RM1.with_overrides(
    num_tables=3, gathers_per_table=4, rows_per_table=60,
    bottom_mlp=(8, 4), top_mlp=(4, 1), embedding_dim=4,
)


def make_trainer(num_shards=1, policy="row", optimizer_cls=SGD, seed=0):
    model = DLRM(CONFIG, rng=np.random.default_rng(seed))
    stream = SyntheticCTRStream(
        num_tables=3, num_rows=60, lookups_per_sample=4,
        dense_features=8, seed=seed,
    )
    trainer = FunctionalTrainer(
        model, stream, optimizer_cls(lr=0.3),
        num_shards=num_shards, policy=policy,
    )
    return model, trainer


def all_params(model):
    return model.all_parameters()


def single_device_run(steps, optimizer_cls=SGD, mode="casted"):
    """The model's own ``train_step`` over the trainer's draws: no shard
    plan, no stages — each bag gathers, casts and coalesces by itself."""
    model, trainer = make_trainer(optimizer_cls=optimizer_cls)
    rng = np.random.default_rng(1)
    losses = []
    for _ in range(steps):
        data = trainer.stream.next_batch(16, rng)
        losses.append(model.train_step(
            data.dense, data.indices, data.labels, trainer.optimizer,
            mode=mode, precompute_casts=True,
        ).loss)
    return model, losses


class TestSingleShardEquivalence:
    """num_shards=1 must be bit-identical to the single-device step."""

    @pytest.mark.parametrize("mode", ["casted", "baseline"])
    @pytest.mark.parametrize("policy", ["row", "table"])
    def test_parameters_bit_identical(self, policy, mode):
        ref_model, _ = single_device_run(4, mode=mode)
        model, trainer = make_trainer(num_shards=1, policy=policy)
        trainer.train(16, 4, np.random.default_rng(1), mode=mode)
        for got, want in zip(all_params(model), all_params(ref_model)):
            assert np.array_equal(got, want)

    def test_losses_bit_identical(self):
        _, ref = single_device_run(4)
        _, trainer = make_trainer(num_shards=1)
        got = trainer.train(16, 4, np.random.default_rng(1))
        assert got.losses == ref

    def test_stateful_optimizer_bit_identical(self):
        ref_model, _ = single_device_run(3, optimizer_cls=Adagrad)
        model, trainer = make_trainer(num_shards=1, optimizer_cls=Adagrad)
        trainer.train(16, 3, np.random.default_rng(1))
        for got, want in zip(all_params(model), all_params(ref_model)):
            assert np.array_equal(got, want)


@pytest.mark.parametrize("policy", ["row", "table"])
@pytest.mark.parametrize("num_shards", [2, 3])
class TestMultiShardTraining:
    def test_matches_unsharded_closely(self, policy, num_shards):
        ref_model, ref_trainer = make_trainer()
        ref_trainer.train(16, 3, np.random.default_rng(1))
        model, trainer = make_trainer(num_shards=num_shards, policy=policy)
        trainer.train(16, 3, np.random.default_rng(1))
        # Sharding only reorders floating-point summation.
        for got, want in zip(all_params(model), all_params(ref_model)):
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)

    def test_learning_happens(self, policy, num_shards):
        _, trainer = make_trainer(num_shards=num_shards, policy=policy)
        report = trainer.train(64, 25, np.random.default_rng(3))
        assert report.final_loss < report.initial_loss


class TestShardedReport:
    def test_per_shard_timings_recorded(self):
        _, trainer = make_trainer(num_shards=2)
        report = trainer.train(16, 2, np.random.default_rng(1))
        assert report.num_shards == 2
        assert len(report.shard_timings) == 2
        for shard in report.shard_timings:
            for phase in ("casting", "gather", "backward", "update"):
                assert phase in shard.totals
        for phase in ("partition", "casting", "forward", "exchange",
                      "loss", "backward", "update"):
            assert phase in report.timings.totals

    def test_exchange_bytes_positive(self):
        _, trainer = make_trainer(num_shards=2)
        report = trainer.train(16, 2, np.random.default_rng(1))
        assert report.exchange_bytes > 0

    def test_the_default_report_has_one_shard(self):
        """One device's all-to-all: every pooled row out; every gradient
        row and every ``(src, dst)`` pair back (float64 rows, int64 ids)."""
        _, trainer = make_trainer()
        report = trainer.train(16, 2, np.random.default_rng(1))
        assert report.num_shards == 1
        (shard,) = report.shard_timings
        for phase in ("casting", "gather", "backward", "update"):
            assert phase in shard.totals
        rows = 2 * CONFIG.num_tables * 16 * CONFIG.embedding_dim * 8
        pairs = 2 * CONFIG.num_tables * 16 * CONFIG.gathers_per_table * 2 * 8
        assert report.forward_exchange_bytes == rows
        assert report.backward_exchange_bytes == rows + pairs

    @pytest.mark.parametrize("policy", ["row", "table"])
    @pytest.mark.parametrize("num_shards", [2, 3])
    def test_sharded_baseline_trains(self, num_shards, policy):
        """Each shard expand-coalesces its own raw pairs: the same step as
        the casted shards, the same payload, and no ``casting`` phase."""
        casted_model, casted = make_trainer(num_shards=num_shards, policy=policy)
        want = casted.train(16, 3, np.random.default_rng(1))
        model, trainer = make_trainer(num_shards=num_shards, policy=policy)
        report = trainer.train(16, 3, np.random.default_rng(1), mode="baseline")
        assert report.losses == want.losses
        for got, expected in zip(all_params(model), all_params(casted_model)):
            assert np.array_equal(got, expected)
        assert report.forward_exchange_bytes == want.forward_exchange_bytes
        assert report.backward_exchange_bytes == want.backward_exchange_bytes
        assert "partition" in report.timings.totals
        assert "casting" not in report.timings.totals
        assert all("casting" not in shard.totals
                   for shard in report.shard_timings)

    def test_exchange_bytes_attributed_per_stage(self):
        _, trainer = make_trainer(num_shards=2)
        report = trainer.train(16, 2, np.random.default_rng(1))
        assert report.forward_exchange_bytes > 0
        assert report.backward_exchange_bytes > 0
        assert report.exchange_bytes == (
            report.forward_exchange_bytes + report.backward_exchange_bytes
        )


class TestConstructionValidation:
    """num_shards is validated up front, not deep inside partitioning."""

    @pytest.mark.parametrize("num_shards", [0, -1, -8])
    def test_nonpositive_num_shards_rejected(self, num_shards):
        with pytest.raises(ValueError, match="num_shards must be a positive"):
            make_trainer(num_shards=num_shards)

    @pytest.mark.parametrize("num_shards", [1.5, "2", True])
    def test_non_integer_num_shards_rejected(self, num_shards):
        with pytest.raises(ValueError, match="num_shards must be a positive"):
            make_trainer(num_shards=num_shards)

    def test_numpy_integer_accepted(self):
        _, trainer = make_trainer(num_shards=np.int64(2))
        assert trainer.sharded.num_shards == 2

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="policy"):
            make_trainer(num_shards=2, policy="diagonal")


class _EmptyTablesStream(SyntheticCTRStream):
    """A stream that empties out the index arrays of selected tables."""

    def __init__(self, empty_tables, **kwargs):
        super().__init__(**kwargs)
        self.empty_tables = set(empty_tables)

    def make_batch(self, batch, rng):
        data = super().make_batch(batch, rng)
        indices = [
            IndexArray([], [], num_rows=index.num_rows, num_outputs=batch)
            if table_id in self.empty_tables else index
            for table_id, index in enumerate(data.indices)
        ]
        return CTRBatch(dense=data.dense, indices=indices, labels=data.labels)


class TestZeroLookupBatches:
    """Empty index arrays flow through the full sharded step without error."""

    def _trainer(self, empty_tables, num_shards=2, policy="row"):
        model = DLRM(CONFIG, rng=np.random.default_rng(0))
        stream = _EmptyTablesStream(
            empty_tables,
            num_tables=3, num_rows=60, lookups_per_sample=4,
            dense_features=8, seed=0,
        )
        return FunctionalTrainer(
            model, stream, SGD(lr=0.3), num_shards=num_shards, policy=policy,
        )

    @pytest.mark.parametrize("policy", ["row", "table"])
    def test_one_empty_table_trains_and_counts_other_tables(self, policy):
        trainer = self._trainer({0}, policy=policy)
        report = trainer.train(16, 2, np.random.default_rng(1))
        assert len(report.losses) == 2
        assert all(np.isfinite(loss) for loss in report.losses)
        # The remaining two tables still exchange payload.
        assert report.exchange_bytes > 0

    def test_all_tables_empty_reports_zero_exchange(self):
        trainer = self._trainer({0, 1, 2})
        report = trainer.train(16, 2, np.random.default_rng(1))
        assert report.exchange_bytes == 0
        assert report.forward_exchange_bytes == 0
        assert report.backward_exchange_bytes == 0
        assert all(np.isfinite(loss) for loss in report.losses)

    def test_empty_table_contributes_zero_bytes(self):
        """Emptying a table removes exactly its payload, nothing else."""
        full = self._trainer(set()).train(16, 2, np.random.default_rng(1))
        partial = self._trainer({1}).train(16, 2, np.random.default_rng(1))
        assert partial.exchange_bytes < full.exchange_bytes

    @pytest.mark.parametrize("mode", ["casted", "baseline"])
    def test_one_shard_tolerates_empty_table(self, mode):
        trainer = self._trainer({0}, num_shards=1)
        report = trainer.train(16, 2, np.random.default_rng(1), mode=mode)
        assert all(np.isfinite(loss) for loss in report.losses)
