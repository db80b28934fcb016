"""A step costs what its lookups cost, not what the table does.

The gate ROADMAP items 4 and 6 asked for after the row-sharded step ran an
order of magnitude behind the unsharded one for three PRs: shards used to be
strided views ``table[shard::N]``, ``ndarray.take`` copies a non-contiguous
source whole, and nothing measured it.  Each case here runs the *same*
lookups against a parent table and against one 100x taller and requires the
same ``tracemalloc`` peak (within 64 KiB): a kernel or a sharded path whose
allocation scales with the table rather than with the lookups fails —
re-introducing a shard-local view of the parent does, by megabytes.  The
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
step.  A step's inputs exist once: the engine casts the batch's dense
features to the model's dtype as it draws them, so a float32 step never
holds the source's float64 array.  A uniform lookup draw keeps a few
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
from repro.model.sharded import ShardedEmbeddingSet
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


def sharded(height):
    bag = EmbeddingBag(height, DIM, np.random.default_rng(1), dtype=np.float32)
    src, dst = lookups()
    index = IndexArray(src, dst, num_rows=height, num_outputs=BATCH)
    shards = ShardedEmbeddingSet([bag], num_shards=2, policy="row")
    return shards, shards.plan_batch([index])


def row_sharded_gather_case(height):
    """The gather-reduce of both shards, through ``forward_shard``."""
    shards, plan = sharded(height)
    return lambda: [shards.forward_shard(plan, shard) for shard in range(2)]


def row_sharded_step_case(height):
    """Forward, casted backward and update of both shards, public API only."""
    shards, plan = sharded(height)
    grads = [np.ones((BATCH, DIM), dtype=np.float32)]
    optimizer = SGD(lr=0.1)

    def step():
        for shard in range(2):
            shards.cast_shard(plan, shard)
            shards.forward_shard(plan, shard)
        shards.assemble_pooled(plan)
        shards.prepare_backward(plan, grads)
        for shard in range(2):
            for table_id in plan.tables_on(shard):
                optimizer.apply_sparse(
                    shards.bags[table_id].table,
                    *shards.backward_table(plan, shard, table_id),
                )

    return step


@pytest.mark.parametrize("case", [
    segment_sum_case,
    gather_reduce_case,
    gradient_scatter_case,
    row_sharded_gather_case,
    row_sharded_step_case,
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


def plan_batch_peak(pooling, num_shards, policy):
    """``plan_batch`` peak over ``pooling`` lookups per output, one table
    per shard, every table owned whole by one shard."""
    rng = np.random.default_rng(0)
    bags = [EmbeddingBag(SHORT, DIM, rng, dtype=np.float32)
            for _ in range(num_shards)]
    indices = [
        IndexArray(rng.integers(0, SHORT, BATCH * pooling),
                   np.repeat(np.arange(BATCH), pooling),
                   num_rows=SHORT, num_outputs=BATCH)
        for _ in bags
    ]
    shards = ShardedEmbeddingSet(bags, num_shards=num_shards, policy=policy)
    return peak_bytes(lambda: shards.plan_batch(indices))


@pytest.mark.parametrize("num_shards,policy", [(1, "row"), (2, "table")])
def test_a_whole_table_split_allocates_nothing_per_lookup(num_shards, policy):
    """One shard, or the table policy: the owner's slice is the table's own
    index array — no owner mask, no ``dst`` copy, no ``unique`` — so 64x
    the lookups split for the same few bytes."""
    few = plan_batch_peak(POOLING, num_shards, policy)
    many = plan_batch_peak(64 * POOLING, num_shards, policy)
    assert abs(many - few) <= SLACK, (
        f"plan_batch's peak grew from {few} to {many} bytes with the lookup "
        f"count ({BATCH * POOLING} -> {64 * BATCH * POOLING})"
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
    """``tracemalloc`` peak of one default one-shard f32 training step."""
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
    forward_shard = trainer.sharded.forward_shard

    def first_gather(plan, shard):
        freed.append(source.dense[-1]() is None)
        return forward_shard(plan, shard)

    monkeypatch.setattr(trainer.sharded, "forward_shard", first_gather)
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
