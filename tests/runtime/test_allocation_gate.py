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
"""

import tracemalloc

import numpy as np
import pytest

from repro.core.gather_reduce import gather_reduce
from repro.core.indexing import IndexArray
from repro.core.scatter import UPDATE_BLOCK_BYTES, row_blocks
from repro.core.segment import segment_sum
from repro.model.embedding import EmbeddingBag
from repro.model.optim import SGD, Adam
from repro.model.sharded import ShardedEmbeddingSet

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
    return lambda: gather_reduce(table, index, backend="vectorized")


def gradient_scatter_case(height):
    table, rows = table_of(height), np.unique(lookups()[0])
    gradients = np.ones((rows.size, DIM), dtype=np.float32)
    return lambda: SGD(lr=0.1).apply_sparse(table, rows, gradients)


def sharded(height):
    bag = EmbeddingBag(height, DIM, np.random.default_rng(1), dtype=np.float32)
    src, dst = lookups()
    index = IndexArray(src, dst, num_rows=height, num_outputs=BATCH)
    shards = ShardedEmbeddingSet(
        [bag], num_shards=2, policy="row", backend="vectorized"
    )
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
            shards.update_shard(
                shard, shards.backward_shard(plan, shard, grads), optimizer
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
    shards = ShardedEmbeddingSet(
        bags, num_shards=num_shards, policy=policy, backend="vectorized")
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


def test_the_measurement_sees_a_table_sized_copy():
    """The instrument itself: a copy of half the parent — what ``take`` made
    of ``table[shard::2]`` once per rank round — shows up in the peak."""
    def half_copy(height):
        table = table_of(height)
        return lambda: np.ascontiguousarray(table[1::2])

    grown = peak_bytes(half_copy(TALL)) - peak_bytes(half_copy(SHORT))
    assert grown > 16 * SLACK
