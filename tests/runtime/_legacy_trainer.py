"""Frozen pre-refactor training loops: the engine refactor's golden oracle.

These functions are verbatim numeric transcriptions of the step loops that
lived in ``repro.runtime``'s trainer and pipeline modules *before*
the stage-graph engine refactor (PR 5) — the serial unsharded loop
(``_train_serial``), and the serial sharded loop (``_plan_and_cast`` +
``_run_sharded_step``) — with the wall-clock instrumentation stripped
(timing never touched the numerics).  They deliberately use only public
model/core APIs, never the trainers, so they cannot drift along with
future runtime refactors: they ARE the pre-refactor behavior, executable
on any platform/BLAS, which is what makes the differential bit-identity
suite in ``test_engine.py`` meaningful.

The pipelined loops need no separate transcription: they were pinned
bit-identical to the serial loops (batches drawn in the same RNG order,
every phase running the same kernels), so "engine == legacy serial" plus
"engine pipelined == engine serial" covers all four legacy paths.

Do not "modernize" this module — its value is that it never changes.
"""

from typing import List, Optional, Tuple

import numpy as np

from repro.core.casting import precompute_casts
from repro.data.source import SourceExhausted, as_batch_source
from repro.model.loss import bce_with_logits
from repro.model.sharded import ShardedEmbeddingSet


def legacy_train_serial(
    model,
    source,
    optimizer,
    batch: int,
    steps: int,
    rng: np.random.Generator,
    mode: str = "casted",
) -> List[float]:
    """The pre-refactor unsharded step loop; returns the per-step losses."""
    source = as_batch_source(source)
    losses: List[float] = []
    for _ in range(steps):
        try:
            data = source.next_batch(batch, rng)
        except SourceExhausted:
            break
        casts = None
        if mode == "casted":
            casts = precompute_casts(data.indices)
        model.zero_grad()
        logits = model.forward(data.dense, data.indices)
        loss, dlogits = bce_with_logits(logits, data.labels)
        losses.append(loss)
        sparse_grads = model.backward(dlogits, mode=mode, casts=casts)
        optimizer.step(model.dense_parameters())
        for bag, grad in zip(model.embeddings, sparse_grads):
            bag.apply_gradient(grad, optimizer)
    return losses


def legacy_train_sharded(
    model,
    source,
    optimizer,
    batch: int,
    steps: int,
    rng: np.random.Generator,
    num_shards: int,
    policy: str = "row",
) -> Tuple[List[float], int, int]:
    """The pre-refactor sharded step loop.

    Returns ``(losses, forward_exchange_bytes, backward_exchange_bytes)`` so
    the differential suite can pin the all-to-all byte accounting too.
    """
    source = as_batch_source(source)
    sharded = ShardedEmbeddingSet(
        model.embeddings, num_shards=num_shards, policy=policy
    )
    losses: List[float] = []
    forward_bytes = 0
    backward_bytes = 0
    for _ in range(steps):
        try:
            data = source.next_batch(batch, rng)
        except SourceExhausted:
            break
        plan = sharded.plan_batch(data.indices)
        for shard in range(sharded.num_shards):
            sharded.cast_shard(plan, shard)
        model.zero_grad()
        for shard in range(sharded.num_shards):
            sharded.forward_shard(plan, shard)
        emb_outs = sharded.assemble_pooled(plan)
        logits = model.forward_from_pooled(data.dense, emb_outs)
        loss, dlogits = bce_with_logits(logits, data.labels)
        losses.append(loss)
        grad_tables = model.backward_through_dense(dlogits)
        sharded.prepare_backward(plan, grad_tables)
        per_shard_coalesced = []
        for shard in range(sharded.num_shards):
            per_shard_coalesced.append([
                (table_id, sharded.backward_table(plan, shard, table_id))
                for table_id in plan.tables_on(shard)
            ])
        optimizer.step(model.dense_parameters())
        for shard in range(sharded.num_shards):
            for table_id, (rows, values) in per_shard_coalesced[shard]:
                optimizer.apply_sparse(
                    sharded.bags[table_id].table, rows, values
                )
        forward_bytes += plan.forward_exchange_bytes
        backward_bytes += plan.backward_exchange_bytes
    return losses, forward_bytes, backward_bytes
