"""Tests for the assembled DLRM model."""

import numpy as np
import pytest

from repro.core.indexing import IndexArray
from repro.data.generator import SyntheticCTRStream
from repro.model.configs import RM1
from repro.model.dlrm import DLRM
from repro.model.optim import SGD, Adagrad
from repro.runtime.trainer import FunctionalTrainer

TINY = RM1.with_overrides(
    num_tables=3, gathers_per_table=4, rows_per_table=200,
    bottom_mlp=(16, 8), top_mlp=(8, 1), embedding_dim=8,
)


def make_batch(rng, batch=6):
    dense = rng.standard_normal((batch, TINY.dense_features))
    indices = [
        IndexArray(
            rng.integers(0, TINY.rows_per_table, batch * TINY.gathers_per_table),
            np.repeat(np.arange(batch), TINY.gathers_per_table),
            num_rows=TINY.rows_per_table,
            num_outputs=batch,
        )
        for _ in range(TINY.num_tables)
    ]
    labels = rng.integers(0, 2, batch).astype(float)
    return dense, indices, labels


class TestForward:
    def test_logit_shape(self, rng):
        model = DLRM(TINY, rng=rng)
        dense, indices, _ = make_batch(rng)
        assert model.forward(dense, indices).shape == (6,)

    def test_predict_ctr_in_unit_interval(self, rng):
        model = DLRM(TINY, rng=rng)
        dense, indices, _ = make_batch(rng)
        ctr = model.predict_ctr(dense, indices)
        assert np.all((ctr >= 0) & (ctr <= 1))

    def test_rejects_wrong_table_count(self, rng):
        model = DLRM(TINY, rng=rng)
        dense, indices, _ = make_batch(rng)
        with pytest.raises(ValueError, match="index arrays"):
            model.forward(dense, indices[:2])

    def test_rejects_wrong_batch_pooling(self, rng):
        model = DLRM(TINY, rng=rng)
        dense, indices, _ = make_batch(rng)
        bad = IndexArray([0], [0], num_rows=TINY.rows_per_table, num_outputs=1)
        with pytest.raises(ValueError, match="pools into"):
            model.forward(dense, [bad] + indices[1:])

    def test_dot_interaction_variant(self, rng):
        config = TINY.with_overrides(interaction="dot")
        model = DLRM(config, rng=rng)
        dense, indices, _ = make_batch(rng)
        assert model.forward(dense, indices).shape == (6,)


class TestBackward:
    def test_sparse_grads_per_table(self, rng):
        model = DLRM(TINY, rng=rng)
        dense, indices, labels = make_batch(rng)
        from repro.model.loss import bce_with_logits

        logits = model.forward(dense, indices)
        _, dlogits = bce_with_logits(logits, labels)
        grads = model.backward(dlogits)
        assert len(grads) == TINY.num_tables
        for grad, index in zip(grads, indices):
            assert grad.nnz_rows == index.num_unique_sources()

    def test_backward_modes_agree(self, rng):
        model = DLRM(TINY, rng=rng)
        dense, indices, labels = make_batch(rng)
        from repro.model.loss import bce_with_logits

        logits = model.forward(dense, indices)
        _, dlogits = bce_with_logits(logits, labels)
        base = model.backward(dlogits, mode="baseline")
        # Re-run forward so layer caches are fresh for the second backward.
        model.zero_grad()
        model.forward(dense, indices)
        cast = model.backward(dlogits, mode="casted")
        for g_base, g_cast in zip(base, cast):
            assert np.array_equal(g_base.rows, g_cast.rows)
            assert np.allclose(g_base.values, g_cast.values)

    def test_train_step_keeps_no_bag_index(self, rng):
        """Each bag drops its forward's index once its gradient is formed,
        so no batch's indices outlive the step."""
        model = DLRM(TINY, rng=rng)
        dense, indices, labels = make_batch(rng)
        model.train_step(dense, indices, labels, SGD(lr=0.1))
        for bag in model.embeddings:
            with pytest.raises(RuntimeError, match="before forward"):
                bag.backward(np.ones((6, TINY.embedding_dim)))

    def test_rejects_wrong_cast_count(self, rng):
        model = DLRM(TINY, rng=rng)
        dense, indices, labels = make_batch(rng)
        model.forward(dense, indices)
        with pytest.raises(ValueError, match="casts"):
            model.backward(np.zeros(6), casts=[])


class TestTraining:
    def test_bitwise_identical_trajectories(self, rng):
        """The paper's Section VI invariant: casting changes no mathematics,
        so whole training runs match bit for bit."""
        runs = {}
        for mode in ("baseline", "casted"):
            model = DLRM(TINY, rng=np.random.default_rng(3))
            optimizer = Adagrad(lr=0.05)
            data_rng = np.random.default_rng(17)
            losses = []
            for _ in range(4):
                dense, indices, labels = make_batch(data_rng)
                stats = model.train_step(
                    dense, indices, labels, optimizer, mode=mode,
                    precompute_casts=(mode == "casted"),
                )
                losses.append(stats.loss)
            runs[mode] = (losses, model)
        assert runs["baseline"][0] == runs["casted"][0]
        for bag_b, bag_c in zip(runs["baseline"][1].embeddings, runs["casted"][1].embeddings):
            assert np.array_equal(bag_b.table, bag_c.table)
        for (p_b, _), (p_c, _) in zip(
            runs["baseline"][1].dense_parameters(), runs["casted"][1].dense_parameters()
        ):
            assert np.array_equal(p_b, p_c)

    def test_loss_decreases_on_learnable_data(self, rng):
        model = DLRM(TINY, rng=rng)
        optimizer = SGD(lr=0.5)
        data_rng = np.random.default_rng(5)
        dense, indices, labels = make_batch(data_rng, batch=32)
        losses = [
            model.train_step(dense, indices, labels, optimizer).loss
            for _ in range(25)
        ]
        assert losses[-1] < 0.5 * losses[0]

    def test_step_stats_bookkeeping(self, rng):
        model = DLRM(TINY, rng=rng)
        dense, indices, labels = make_batch(rng)
        stats = model.train_step(dense, indices, labels, SGD(lr=0.1))
        assert stats.lookups == sum(i.num_lookups for i in indices)
        assert stats.coalesced_rows == sum(
            i.num_unique_sources() for i in indices
        )

    def test_embedding_tables_actually_train(self, rng):
        model = DLRM(TINY, rng=rng)
        snapshot = [bag.table.copy() for bag in model.embeddings]
        dense, indices, labels = make_batch(rng)
        model.train_step(dense, indices, labels, SGD(lr=0.5))
        changed = any(
            not np.array_equal(bag.table, snap)
            for bag, snap in zip(model.embeddings, snapshot)
        )
        assert changed


class _FullDenseBackward(DLRM):
    """The reference: the bottom MLP forms its input gradient and drops it."""

    def backward_through_dense(self, dlogits):
        dtop = self.top_mlp.backward(dlogits[:, None])
        ddense_out, demb_outs = self.interaction.backward(dtop)
        self.bottom_mlp.backward(ddense_out)
        return demb_outs


def _train(model, path, steps=4):
    """``steps`` Adagrad steps: through ``DLRM.train_step``, or through the
    trainer, which reaches the same dense backward."""
    if path == "train_step":
        data_rng = np.random.default_rng(17)
        optimizer = Adagrad(lr=0.05)
        for _ in range(steps):
            dense, indices, labels = make_batch(data_rng)
            model.train_step(dense, indices, labels, optimizer,
                             precompute_casts=True)
        return
    stream = SyntheticCTRStream(
        num_tables=TINY.num_tables, num_rows=TINY.rows_per_table,
        lookups_per_sample=TINY.gathers_per_table,
        dense_features=TINY.dense_features,
    )
    trainer = FunctionalTrainer(model, stream, Adagrad(lr=0.05))
    trainer.train(6, steps, np.random.default_rng(17))


class TestDenseBackward:
    """The bottom MLP's input is data: its input gradient is never formed,
    and no parameter moves by a bit for it."""

    @pytest.mark.parametrize("path", ["train_step", "trainer"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_parameters_byte_equal_to_the_full_backward(self, dtype, path):
        ours = DLRM(TINY, rng=np.random.default_rng(3), dtype=dtype)
        reference = _FullDenseBackward(TINY, rng=np.random.default_rng(3), dtype=dtype)
        _train(ours, path)
        _train(reference, path)
        for got, want in zip(ours.all_parameters(), reference.all_parameters()):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("path", ["train_step", "trainer"])
    def test_bottom_mlp_first_layer_forms_no_input_gradient(
        self, monkeypatch, path
    ):
        model = DLRM(TINY, rng=np.random.default_rng(3))
        first = model.bottom_mlp.layers[0]
        calls = []
        monkeypatch.setattr(first, "backward", lambda dout: calls.append(dout))
        _train(model, path, steps=2)
        assert calls == []
        assert np.any(first.dW != 0.0)   # its weight gradient still ran


class TestAccounting:
    def test_parameter_count(self, rng):
        model = DLRM(TINY, rng=rng)
        dense = sum(p.size for p, _ in model.dense_parameters())
        sparse = TINY.num_tables * TINY.rows_per_table * TINY.embedding_dim
        assert model.parameter_count() == dense + sparse

    def test_embedding_footprint(self, rng):
        model = DLRM(TINY, rng=rng)
        expected = TINY.num_tables * TINY.rows_per_table * TINY.embedding_dim * 8
        assert model.embedding_footprint_bytes() == expected
