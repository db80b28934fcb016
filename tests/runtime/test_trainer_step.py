"""The trainer's step is the model's own: one embedding call path.

The engine runs each table through its
:class:`~repro.model.embedding.EmbeddingBag` — ``precompute_cast``,
``forward``, ``backward``, then the optimizer's ``apply_sparse`` — the
calls :meth:`~repro.model.dlrm.DLRM.train_step` makes, so a trainer run
is ``train_step`` over the same draws, bit for bit.  A table whose batch
has no lookups pools zeros and trains no row.
"""

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


def make_stream(cls=SyntheticCTRStream, **kwargs):
    return cls(num_tables=3, num_rows=60, lookups_per_sample=4,
               dense_features=8, seed=0, **kwargs)


def make_trainer(optimizer_cls=SGD, stream=None):
    model = DLRM(CONFIG, rng=np.random.default_rng(0))
    trainer = FunctionalTrainer(
        model, stream if stream is not None else make_stream(),
        optimizer_cls(lr=0.3),
    )
    return model, trainer


def train_step_run(steps, optimizer_cls=SGD, mode="casted"):
    """The model's own ``train_step`` over the trainer's draws."""
    model, trainer = make_trainer(optimizer_cls)
    rng = np.random.default_rng(1)
    losses = []
    for _ in range(steps):
        data = trainer.stream.next_batch(16, rng)
        losses.append(model.train_step(
            data.dense, data.indices, data.labels, trainer.optimizer,
            mode=mode, precompute_casts=True,
        ).loss)
    return model, losses


class TestTrainerIsTrainStep:
    @pytest.mark.parametrize("mode", ["casted", "baseline"])
    def test_parameters_and_losses_bit_identical(self, mode):
        ref_model, ref_losses = train_step_run(4, mode=mode)
        model, trainer = make_trainer()
        report = trainer.train(16, 4, np.random.default_rng(1), mode=mode)
        assert report.losses == ref_losses
        for got, want in zip(model.all_parameters(),
                             ref_model.all_parameters()):
            assert np.array_equal(got, want)

    def test_stateful_optimizer_bit_identical(self):
        ref_model, _ = train_step_run(3, optimizer_cls=Adagrad)
        model, trainer = make_trainer(Adagrad)
        trainer.train(16, 3, np.random.default_rng(1))
        for got, want in zip(model.all_parameters(),
                             ref_model.all_parameters()):
            assert np.array_equal(got, want)


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


def record_pooled(bag, pooled):
    """Make ``bag.forward`` append each pooled output to ``pooled``."""
    forward = bag.forward

    def recording(index):
        out = forward(index)
        pooled.append(out)
        return out

    bag.forward = recording


class TestZeroLookupBatches:
    """Empty index arrays flow through the full step without error."""

    @pytest.mark.parametrize("mode", ["casted", "baseline"])
    @pytest.mark.parametrize("empty", [{0}, {0, 1, 2}], ids=["one", "all"])
    def test_an_empty_table_pools_zeros_and_trains_no_row(self, empty, mode):
        model, trainer = make_trainer(
            Adagrad, make_stream(_EmptyTablesStream, empty_tables=empty))
        before = [bag.table.copy() for bag in model.embeddings]
        pooled = []
        for table_id in empty:
            record_pooled(model.embeddings[table_id], pooled)
        report = trainer.train(16, 2, np.random.default_rng(1), mode=mode)
        assert all(np.isfinite(loss) for loss in report.losses)
        assert len(pooled) == 2 * len(empty)
        assert all(p.shape == (16, 4) and not p.any() for p in pooled)
        for table_id, (bag, old) in enumerate(zip(model.embeddings, before)):
            assert np.array_equal(bag.table, old) == (table_id in empty)
