"""A step costs what its lookups cost, not what the table does.

The gate ROADMAP items 4 and 6 asked for after the row-sharded step ran an
order of magnitude behind the unsharded one for three PRs: shards used to be
strided views ``table[shard::N]``, ``ndarray.take`` copies a non-contiguous
source whole, and nothing measured it.  Each case here runs the *same*
lookups against a parent table and against one 100x taller and requires the
same ``tracemalloc`` peak (within 64 KiB): a kernel or a step whose
allocation scales with the table rather than with the lookups fails — a
strided view of the parent under ``ndarray.take`` does, by megabytes.  The
sparse update is held one step further: its peak may not grow with the
number of rows it updates beyond one cache block.

The rest hold peak memory at the tables plus one table's work.  A table is
built in its own dtype, chunk by chunk, bit-identical to one whole-table
float64 draw cast down (which peaked at three times an f32 table), and a
step reduces and applies one table's ``(u, dim)`` gradient at a time, so
its transient does not grow by a gradient per table.  The dense half holds
only what it still needs: the first weight-gradient accumulation after
``zero_grad`` writes into ``dW`` instead of adding an ``(in, out)``
temporary, and each layer's backward drops the activation its forward
saved (a forward-only run drops it without one), so none outlives the
step, and no embedding bag keeps its batch's index into the next draw.  A
step's inputs exist once: the engine casts the batch's dense features to
the model's dtype as it draws them, so a float32 step never holds the
source's float64 array.  A uniform lookup draw keeps a few
checkpoints of its CDF, not the CDF and guide table (16 bytes per row).
"""

import tracemalloc
import weakref

import numpy as np
import pytest

from repro.core.gather_reduce import gather_reduce
from repro.core.indexing import IndexArray
from repro.core.scatter import UPDATE_BLOCK_BYTES, row_blocks
from repro.core.segment import segment_sum
from repro.data.distributions import UniformDistribution
from repro.data.generator import SyntheticCTRStream
from repro.data.source import BatchSource
from repro.model.configs import RM1
from repro.model.dlrm import DLRM
from repro.model.embedding import EmbeddingBag
from repro.model.interaction import DotInteraction
from repro.model.layers import Linear
from repro.model.optim import SGD, Adam
from repro.runtime.trainer import FunctionalTrainer

SHORT, TALL = 2_000, 200_000     # parent heights; TALL is 12.8 MB of f32
DIM, BATCH, POOLING = 16, 64, 8
SLACK = 64 * 1024


def lookups():
    """One batch whose rows all exist in the short parent."""
    rng = np.random.default_rng(0)
    src = rng.integers(0, SHORT, BATCH * POOLING)
    dst = np.repeat(np.arange(BATCH), POOLING)
    return src, dst


def peak_bytes(work):
    """``tracemalloc`` peak of ``work()``, after one untraced warm-up call
    (reused buffers and lazily built state are not the step's cost)."""
    work()
    tracemalloc.start()
    try:
        work()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def table_of(height):
    return np.random.default_rng(1).random((height, DIM), dtype=np.float32)


def segment_sum_case(height):
    table, (src, dst) = table_of(height), lookups()
    return lambda: segment_sum(table, src, dst, BATCH)


def gather_reduce_case(height):
    table, (src, dst) = table_of(height), lookups()
    index = IndexArray(src, dst, num_rows=height, num_outputs=BATCH)
    return lambda: gather_reduce(table, index)


def gradient_scatter_case(height):
    table, rows = table_of(height), np.unique(lookups()[0])
    gradients = np.ones((rows.size, DIM), dtype=np.float32)
    return lambda: SGD(lr=0.1).apply_sparse(table, rows, gradients)


def embedding_step_case(height):
    """One table's step the way the engine runs it: cast, gather, casted
    backward over a strided ``(B, dim)`` gradient view, update, release."""
    bag = EmbeddingBag(height, DIM, np.random.default_rng(1), dtype=np.float32)
    src, dst = lookups()
    index = IndexArray(src, dst, num_rows=height, num_outputs=BATCH)
    grads = np.ones((BATCH, 2 * DIM), dtype=np.float32)[:, DIM:]
    optimizer = SGD(lr=0.1)

    def step():
        cast = bag.precompute_cast(index)
        bag.forward(index)
        sparse = bag.backward(grads, "casted", cast)
        optimizer.apply_sparse(bag.table, sparse.rows, sparse.values)
        bag.release()

    return step


@pytest.mark.parametrize("case", [
    segment_sum_case,
    gather_reduce_case,
    gradient_scatter_case,
    embedding_step_case,
], ids=lambda case: case.__name__[: -len("_case")])
def test_a_parent_100x_taller_allocates_the_same_peak(case):
    short, tall = peak_bytes(case(SHORT)), peak_bytes(case(TALL))
    assert short > 0
    assert abs(tall - short) <= SLACK, (
        f"peak allocation grew from {short} to {tall} bytes with the table "
        f"height ({SHORT} -> {TALL} rows) for the same {BATCH * POOLING} "
        "lookups: something copies the table (a strided source under "
        "ndarray.take does)"
    )


def test_a_stateful_update_peaks_at_one_block_whatever_the_row_count():
    """Adam's sparse update — parameter, two f64 moments and the per-row
    counters — walks the rows in cache blocks: eight table blocks of rows
    peak where one does, at a few blocks' bytes (one block of rows and the
    rule's block-sized temporaries; a fancy-indexed rule builds several
    ``(u, dim)`` f64 temporaries instead)."""
    table = table_of(40_000)
    block = row_blocks(table, np.arange(table.shape[0]))[0].stop
    optimizer = Adam(lr=0.1)

    def update_peak(u):
        rows = np.random.default_rng(u).permutation(table.shape[0])[:u]
        gradients = np.ones((u, DIM), dtype=np.float32)
        return peak_bytes(
            lambda: optimizer.apply_sparse(table, rows, gradients))

    one, eight = update_peak(block), update_peak(8 * block)
    assert 0 < one and abs(eight - one) <= SLACK, (
        f"Adam's sparse-update peak grew from {one} to {eight} bytes with "
        f"the row count ({block} -> {8 * block} rows)"
    )
    assert eight <= 4 * UPDATE_BLOCK_BYTES, (
        f"Adam's sparse update peaked at {eight} bytes, more than four "
        f"{UPDATE_BLOCK_BYTES}-byte blocks"
    )


#: 1 MiB of float64 draws: the init chunk, 8192 rows at ``DIM``.
INIT_CHUNK_BYTES = 1 << 20


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_a_table_builds_in_its_own_bytes_plus_one_chunk(dtype):
    """Bit-identical to one whole-table draw cast to ``dtype``, generator
    state included, at a row count that is not a multiple of the chunk —
    without that draw's float64 copy (and, for f32, its cast copy)."""
    rows = 12 * INIT_CHUNK_BYTES // (8 * DIM) + 5
    rng = np.random.default_rng(7)
    tracemalloc.start()
    try:
        bag = EmbeddingBag(rows, DIM, rng, dtype=dtype)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    reference = np.random.default_rng(7)
    bound = 1.0 / np.sqrt(rows)
    want = reference.uniform(-bound, bound, size=(rows, DIM)).astype(dtype)
    assert bag.table.dtype == want.dtype
    assert bag.table.tobytes() == want.tobytes()
    assert rng.bit_generator.state == reference.bit_generator.state
    assert peak <= bag.table.nbytes + INIT_CHUNK_BYTES + SLACK, (
        f"building a {bag.table.nbytes}-byte table peaked at {peak} bytes"
    )


#: Lookups per table per step; ``u`` is at least 90% of them (20 000 rows).
STEP_BATCH, STEP_POOLING, STEP_ROWS, STEP_DIM = 64, 32, 20_000, 64


def step_peak(num_tables):
    """``tracemalloc`` peak of one default f32 training step."""
    config = RM1.with_overrides(
        num_tables=num_tables, gathers_per_table=STEP_POOLING,
        rows_per_table=STEP_ROWS, embedding_dim=STEP_DIM,
        bottom_mlp=(8, STEP_DIM), top_mlp=(8, 1),
    )
    model = DLRM(config, rng=np.random.default_rng(0), dtype=np.float32)
    stream = SyntheticCTRStream(
        num_tables=num_tables, num_rows=STEP_ROWS,
        lookups_per_sample=STEP_POOLING, dense_features=8, seed=0,
    )
    trainer = FunctionalTrainer(model, stream, SGD(lr=0.1))
    rng = np.random.default_rng(1)
    return peak_bytes(lambda: trainer.train(STEP_BATCH, 1, rng))


def test_a_step_holds_one_tables_gradient_at_a_time():
    """Each table's coalesced gradient is applied and dropped before the
    next is reduced: four more tables grow the step's peak by their
    lookups' index work, less than one ``(u, dim)`` f32 gradient each
    (holding every table's gradient until the update grew it by more)."""
    lookups = STEP_BATCH * STEP_POOLING
    gradient = int(0.9 * lookups) * STEP_DIM * 4
    per_table = (step_peak(6) - step_peak(2)) / 4
    assert per_table < gradient, (
        f"each added table grew the step's peak by {per_table:.0f} bytes, "
        f"more than one ({int(0.9 * lookups)}, {STEP_DIM}) f32 gradient "
        f"({gradient} bytes): gradients outlive their table's update"
    )


def test_a_fresh_weight_gradient_is_written_in_place():
    """Right after ``zero_grad`` the weight gradient is ``x.T @ dout``
    itself, written into ``dW``; adding it to the zeros built an
    ``(in, out)`` temporary as large as ``dW``.  A second accumulation
    still adds."""
    rng = np.random.default_rng(0)
    layer = Linear(512, 256, rng=rng, dtype=np.float32)
    x = rng.standard_normal((BATCH, 512)).astype(np.float32)
    dout = rng.standard_normal((BATCH, 256)).astype(np.float32)

    def accumulate():
        layer.forward(x)
        layer.zero_grad()
        tracemalloc.start()
        try:
            layer.accumulate_grads(dout)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    accumulate()
    peak = accumulate()
    assert peak < layer.dW.nbytes, (
        f"accumulating into freshly zeroed gradients peaked at {peak} "
        f"bytes, a {layer.dW.nbytes}-byte dW temporary's worth"
    )
    once = layer.dW.copy()
    layer.forward(x)
    layer.accumulate_grads(dout)
    assert np.array_equal(layer.dW, once + x.T @ dout)


def small_dot_model(dtype=np.float32):
    """A two-table DLRM with the dot interaction, and a stream it reads."""
    config = RM1.with_overrides(
        num_tables=2, gathers_per_table=4, rows_per_table=1_000,
        embedding_dim=16, bottom_mlp=(8, 32, 16), top_mlp=(32, 1),
        interaction="dot",
    )
    model = DLRM(config, rng=np.random.default_rng(0), dtype=dtype)
    stream = SyntheticCTRStream(
        num_tables=2, num_rows=1_000, lookups_per_sample=4,
        dense_features=8, seed=0,
    )
    return model, stream


def assert_no_layer_holds_an_activation(model):
    layers = [*model.bottom_mlp.layers, *model.top_mlp.layers,
              model.interaction]
    assert isinstance(model.interaction, DotInteraction)
    for layer in layers:
        with pytest.raises(RuntimeError, match="backward called before forward"):
            layer.backward(np.ones((BATCH, 1), dtype=np.float32))


def test_no_layer_holds_an_activation_after_training():
    """Each backward drops what its forward saved: once ``train`` returns,
    a bare ``backward`` on any dense layer or the dot interaction raises."""
    model, stream = small_dot_model()
    FunctionalTrainer(model, stream, SGD(lr=0.1)).train(
        BATCH, 2, np.random.default_rng(1))
    assert_no_layer_holds_an_activation(model)


def test_no_layer_holds_an_activation_after_inference():
    """A forward-only run has no backward to drop what the forward saved,
    so it drops it itself: once ``infer`` returns, a bare ``backward``
    raises.  Its logits are still those of the model's own forward."""
    model, stream = small_dot_model()
    report = FunctionalTrainer(model, stream, SGD(lr=0.1)).infer(
        BATCH, 2, np.random.default_rng(1))
    assert_no_layer_holds_an_activation(model)
    twin = np.random.default_rng(1)
    for logits in report.logits:
        data = stream.next_batch(BATCH, twin)
        assert np.array_equal(logits, model.forward(data.dense, data.indices))


class HandOut(BatchSource):
    """Wraps a source and keeps a weak reference to each ``dense`` array it
    hands out (and nothing else)."""

    def __init__(self, source):
        self.source = source
        self.num_tables = source.num_tables
        self.rows_per_table = source.rows_per_table
        self.dense_features = source.dense_features
        self.dense = []

    def next_batch(self, batch, rng):
        data = self.source.next_batch(batch, rng)
        self.dense.append(weakref.ref(data.dense))
        return data


def test_the_batch_crosses_the_dtype_seam_once_at_the_draw(monkeypatch):
    """The engine casts ``dense`` to the model's dtype when it draws the
    batch: a float32 model's step never holds the source's float64 array
    (10.5 MB at RM3's 512 x 2560), which is gone before the first gather;
    a float64 model's forward reads the source's array itself, uncopied."""
    model, stream = small_dot_model(np.float32)
    source = HandOut(stream)
    trainer = FunctionalTrainer(model, source, SGD(lr=0.1))
    freed = []
    bag = model.embeddings[0]
    forward = bag.forward

    def first_gather(index):
        freed.append(source.dense[-1]() is None)
        return forward(index)

    monkeypatch.setattr(bag, "forward", first_gather)
    trainer.train(BATCH, 2, np.random.default_rng(1))
    assert freed == [True, True], (
        "the source's float64 dense features were alive at the gather"
    )

    model, stream = small_dot_model(np.float64)
    source = HandOut(stream)
    trainer = FunctionalTrainer(model, source, SGD(lr=0.1))
    same = []
    forward_from_pooled = model.forward_from_pooled

    def dense_forward(dense, pooled):
        same.append(dense is source.dense[-1]())
        return forward_from_pooled(dense, pooled)

    monkeypatch.setattr(model, "forward_from_pooled", dense_forward)
    trainer.train(BATCH, 2, np.random.default_rng(1))
    assert same == [True, True]


class WatchesIndices(BatchSource):
    """Wraps a source; at each draw, counts how many index arrays of the
    batches it handed out earlier are still alive (through weak references
    to their ``src`` arrays)."""

    def __init__(self, source):
        self.source = source
        self.num_tables = source.num_tables
        self.rows_per_table = source.rows_per_table
        self.dense_features = source.dense_features
        self.refs = []
        self.alive_at_draw = []

    def alive(self):
        return sum(ref() is not None for ref in self.refs)

    def next_batch(self, batch, rng):
        self.alive_at_draw.append(self.alive())
        data = self.source.next_batch(batch, rng)
        self.refs += [weakref.ref(index.src) for index in data.indices]
        return data


@pytest.mark.parametrize("run", ["train", "infer"])
def test_a_step_keeps_nothing_of_its_batch_into_the_next_draw(run):
    """Each bag's forward keeps its index for the backward; the step drops
    it after the table's update (a forward-only step, at its end), so no
    earlier batch's index arrays are alive when the next batch is drawn,
    nor once the run returns."""
    model, stream = small_dot_model()
    source = WatchesIndices(stream)
    trainer = FunctionalTrainer(model, source, SGD(lr=0.1))
    getattr(trainer, run)(BATCH, 3, np.random.default_rng(1))
    assert source.alive_at_draw == [0, 0, 0]
    assert source.alive() == 0


def test_a_uniform_draw_keeps_no_per_row_table():
    """A million-row uniform draw retains its CDF checkpoints (8 bytes per
    1 024 rows), not the 16 MB of CDF and guide table."""
    rng = np.random.default_rng(0)
    tracemalloc.start()
    try:
        dist = UniformDistribution(1_000_000)
        dist.sample(1 << 16, rng)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained < SLACK, (
        f"a 1 000 000-row uniform distribution retains {retained} bytes "
        "after a draw"
    )
    assert dist._checkpoints is not None    # the edge draws were settled


def test_the_measurement_sees_a_table_sized_copy():
    """The instrument itself: a copy of half the parent — what ``take`` made
    of ``table[shard::2]`` once per rank round — shows up in the peak."""
    def half_copy(height):
        table = table_of(height)
        return lambda: np.ascontiguousarray(table[1::2])

    grown = peak_bytes(half_copy(TALL)) - peak_bytes(half_copy(SHORT))
    assert grown > 16 * SLACK
