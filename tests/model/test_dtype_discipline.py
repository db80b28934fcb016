"""The dtype contract: the model owns its dtype, from batch to table row.

A :class:`~repro.model.dlrm.DLRM` of dtype ``D`` fed *any* float batch
produces ``D`` everywhere a step produces an array — pooled outputs,
logits, ``dlogits``, dense parameter gradients, the ``(B, dim)`` gradient
tables, :class:`~repro.model.embedding.SparseGradient` values — on every
backward mode and trainer path — on the kernels and on their oracles — and
keeps its parameters in ``D``.
The coercion at the data -> model seam is the *only* difference between an
f32 model fed f64 batches and one fed pre-cast f32 batches, and for the
default f64 model every coercion is a no-op: a literal golden recorded on
the commit before the contract existed pins that nothing moved.
"""

import zlib
from contextlib import nullcontext

import numpy as np
import pytest

from repro.data.generator import SyntheticCTRStream
from repro.data.source import CTRBatch
from repro.model.configs import RM1
from repro.model.dlrm import DLRM
from repro.model.loss import bce_with_logits
from repro.model.optim import SGD
from repro.runtime.trainer import FunctionalTrainer

TINY = RM1.with_overrides(
    num_tables=3,
    gathers_per_table=6,
    rows_per_table=400,
    bottom_mlp=(8, 8),
    top_mlp=(8, 1),
    embedding_dim=8,
)
BATCH, STEPS = 32, 6
DTYPES = pytest.mark.parametrize(
    "model_dtype", (np.float32, np.float64), ids=["model-f32", "model-f64"]
)
BATCH_DTYPES = pytest.mark.parametrize(
    "batch_dtype", (np.float32, np.float64), ids=["batch-f32", "batch-f64"]
)


class CastStream(SyntheticCTRStream):
    """The synthetic stream with ``dense`` / ``labels`` pre-cast to a dtype
    (the same draws, so an f32 and an f64 stream describe the same data)."""

    def __init__(self, dtype, seed=0):
        super().__init__(
            num_tables=TINY.num_tables,
            num_rows=TINY.rows_per_table,
            lookups_per_sample=TINY.gathers_per_table,
            dense_features=TINY.dense_features,
            seed=seed,
        )
        self.dtype = dtype

    def next_batch(self, batch, rng):
        drawn = super().next_batch(batch, rng)
        return CTRBatch(
            dense=drawn.dense.astype(self.dtype),
            indices=drawn.indices,
            labels=drawn.labels.astype(self.dtype),
        )


class SpySGD(SGD):
    """SGD that records the dtypes crossing the model -> optimizer seam."""

    def __init__(self, lr=0.1):
        super().__init__(lr)
        self.sparse_seen, self.dense_seen = set(), set()

    def apply_dense(self, param, grad):
        self.dense_seen.add((param.dtype, grad.dtype))
        super().apply_dense(param, grad)

    def apply_sparse(self, param, rows, grads):
        self.sparse_seen.add((param.dtype, grads.dtype))
        super().apply_sparse(param, rows, grads)


def make_model(dtype=np.float64):
    return DLRM(TINY, rng=np.random.default_rng(0), dtype=dtype)


def train(model_dtype, batch_dtype=np.float64, mode="casted",
          steps=STEPS, **trainer_kwargs):
    model, optimizer = make_model(model_dtype), SpySGD()
    trainer = FunctionalTrainer(
        model, CastStream(batch_dtype), optimizer, **trainer_kwargs,
    )
    report = trainer.train(BATCH, steps, np.random.default_rng(1), mode=mode)
    return model, optimizer, report


def parameters_equal(a, b):
    return all(
        np.array_equal(x, y)
        for x, y in zip(a.all_parameters(), b.all_parameters())
    )


# ----------------------------------------------------------------------
# One step, seam by seam
# ----------------------------------------------------------------------
@DTYPES
@BATCH_DTYPES
@pytest.mark.parametrize("mode", ("baseline", "casted"))
@pytest.mark.parametrize("kernels", ("core", "oracle"))
def test_every_array_of_a_step_carries_the_model_dtype(
    model_dtype, batch_dtype, mode, kernels, oracle_kernels
):
    """``oracle``: the step runs on the ``*_reference`` oracles, which
    accumulate in float64 and must still hand back the model's dtype."""
    with oracle_kernels() if kernels == "oracle" else nullcontext():
        check_every_array_of_a_step(model_dtype, batch_dtype, mode)


def check_every_array_of_a_step(model_dtype, batch_dtype, mode):
    model = make_model(model_dtype)
    want = np.dtype(model_dtype)
    assert model.dtype == want
    data = CastStream(batch_dtype).next_batch(BATCH, np.random.default_rng(1))
    assert data.dense.dtype == data.labels.dtype == np.dtype(batch_dtype)

    model.zero_grad()
    pooled = [bag.forward(i) for bag, i in zip(model.embeddings, data.indices)]
    logits = model.forward_from_pooled(data.dense, pooled)
    loss, dlogits = bce_with_logits(logits, data.labels)
    grad_tables = model.backward_through_dense(dlogits)
    sparse = [
        bag.backward(grad, mode=mode)
        for bag, grad in zip(model.embeddings, grad_tables)
    ]
    assert type(loss) is float
    produced = {
        "pooled": pooled, "logits": [logits], "dlogits": [dlogits],
        "dense grads": [grad for _, grad in model.dense_parameters()],
        "gradient tables": grad_tables,
        "sparse values": [grad.values for grad in sparse],
    }
    for name, arrays in produced.items():
        assert {a.dtype for a in arrays} == {want}, name
    assert model.forward(data.dense, data.indices).dtype == want

    stats = model.train_step(
        data.dense, data.indices, data.labels, SGD(lr=0.1), mode=mode
    )
    assert type(stats.loss) is float
    assert {p.dtype for p in model.all_parameters()} == {want}


@DTYPES
def test_foreign_gradient_tables_are_coerced_by_the_bag(model_dtype):
    """``EmbeddingBag.backward`` is the model -> kernel seam for callers
    that bypass the dense stack."""
    model = make_model(model_dtype)
    data = CastStream(np.float64).next_batch(BATCH, np.random.default_rng(1))
    bag, index = model.embeddings[0], data.indices[0]
    bag.forward(index)
    for foreign in (np.float32, np.float64):
        grad = np.ones((BATCH, TINY.embedding_dim), dtype=foreign)
        for mode in ("baseline", "casted"):
            assert bag.backward(grad, mode=mode).values.dtype == model.dtype


# ----------------------------------------------------------------------
# Through the trainer
# ----------------------------------------------------------------------
TRAINER_PATHS = {
    "serial": {},
}


@DTYPES
@BATCH_DTYPES
@pytest.mark.parametrize("path", sorted(TRAINER_PATHS))
def test_trainer_paths_hand_the_optimizer_the_model_dtype(
    model_dtype, batch_dtype, path
):
    model, optimizer, report = train(
        model_dtype, batch_dtype, steps=3, **TRAINER_PATHS[path]
    )
    want = np.dtype(model_dtype)
    assert optimizer.sparse_seen == {(want, want)}
    assert optimizer.dense_seen == {(want, want)}
    assert {p.dtype for p in model.all_parameters()} == {want}
    assert all(type(loss) is float for loss in report.losses)


# ----------------------------------------------------------------------
# What the coercion may and may not change
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mode", ("baseline", "casted"))
def test_coercing_the_batch_is_the_only_difference(mode):
    """An f32 model fed f64 batches == the same model fed pre-cast f32."""
    fed_f64, _, report_f64 = train(np.float32, np.float64, mode=mode)
    fed_f32, _, report_f32 = train(np.float32, np.float32, mode=mode)
    assert report_f64.losses == report_f32.losses
    assert parameters_equal(fed_f64, fed_f32)


@DTYPES
def test_casted_and_baseline_stay_bit_identical(model_dtype):
    casted, _, casted_report = train(model_dtype, mode="casted")
    baseline, _, baseline_report = train(model_dtype, mode="baseline")
    assert casted_report.losses == baseline_report.losses
    assert parameters_equal(casted, baseline)


def test_f32_losses_track_the_f64_model():
    _, _, single = train(np.float32)
    _, _, double = train(np.float64)
    assert single.losses != double.losses
    np.testing.assert_allclose(single.losses, double.losses, rtol=1e-3)


# ----------------------------------------------------------------------
# The default (f64) model did not move
# ----------------------------------------------------------------------
#: Six losses and a parameter checksum of the default-dtype model, recorded
#: by running ``f64_golden()`` on the commit before the dtype contract
#: (17dd305): for an f64 model every coercion must be a no-op.
GOLDEN_LOSSES = [
    "0x1.7d356a08a187fp-1", "0x1.69030079af8cap-1", "0x1.b4631a19f5176p-1",
    "0x1.73706955425a9p-1", "0x1.6faa43ee0bf66p-1", "0x1.6b3b55cb5d642p-1",
]
GOLDEN_CHECKSUM = 2748239579


def f64_golden():
    model, _, report = train(np.float64)
    blob = b"".join(
        np.ascontiguousarray(p).tobytes() for p in model.all_parameters()
    )
    return [loss.hex() for loss in report.losses], zlib.crc32(blob)


def test_f64_trajectory_equals_the_golden_of_the_parent_commit():
    losses, checksum = f64_golden()
    assert losses == GOLDEN_LOSSES
    assert checksum == GOLDEN_CHECKSUM
