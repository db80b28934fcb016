#!/usr/bin/env python
"""Walkthrough: training with embedding tables sharded across N devices.

Production recommendation models do not fit one device: their embedding
tables are sharded model-parallel across a pool of accelerators, and every
iteration pays an all-to-all exchange — pooled embeddings travel to the
sample owners in the forward pass, gradient rows travel back to the table
owners in the backward pass.  Tensor Casting is what keeps that exchange
small: each shard casts its own slice of the batch's index arrays, and the
casted arrays name exactly the gradient-table rows the shard needs.

This example trains the same down-scaled DLRM three ways — with the
model's own single-device ``train_step``, with the trainer's default of 1
shard, and with 4 shards — and narrates what the per-shard numbers show:

* the **1-shard run is bit-identical** to the single-device step (same
  losses, same parameters): the sharded machinery adds routing, not
  mathematics;
* the **per-shard timings** at 4 shards are each roughly a quarter of the
  1-shard embedding work — on real hardware those four slices run
  *concurrently*, so the slowest shard sets the critical path (the
  speedup `python -m repro scaling` predicts analytically);
* the **exchange bytes per device** are far below the full gradient-table
  payload a single device must ingest, because a shard only receives
  gradient rows for samples whose lookups actually hit it — compare policy
  "row" with "table" to see placement change the payload.

Run:  python examples/sharded_training.py
"""

import numpy as np

from repro import DLRM, SGD, SyntheticCTRStream, get_model
from repro.runtime import FunctionalTrainer

BATCH = 128
STEPS = 10
ROWS_PER_TABLE = 5_000
NUM_SHARDS = 4


def build_model_and_stream(seed: int):
    """A laptop-sized RM1 variant (4 tables, 8 gathers/table)."""
    config = get_model("RM1").with_overrides(
        num_tables=4, gathers_per_table=8, rows_per_table=ROWS_PER_TABLE
    )
    model = DLRM(config, rng=np.random.default_rng(seed))
    stream = SyntheticCTRStream(
        num_tables=config.num_tables,
        num_rows=ROWS_PER_TABLE,
        lookups_per_sample=config.gathers_per_table,
        dense_features=config.dense_features,
        seed=seed,
    )
    return model, stream


def train(num_shards, policy="row"):
    model, stream = build_model_and_stream(seed=11)
    trainer = FunctionalTrainer(
        model, stream, SGD(lr=0.2), num_shards=num_shards, policy=policy
    )
    report = trainer.train(BATCH, STEPS, rng=np.random.default_rng(42))
    return model, report


def single_device():
    """The same draws through ``DLRM.train_step``: no trainer, no shards."""
    model, stream = build_model_and_stream(seed=11)
    rng, optimizer = np.random.default_rng(42), SGD(lr=0.2)
    losses = []
    for _ in range(STEPS):
        data = stream.next_batch(BATCH, rng)
        losses.append(model.train_step(
            data.dense, data.indices, data.labels, optimizer,
            precompute_casts=True,
        ).loss)
    return model, losses


def main() -> None:
    print(f"== Sharded DLRM training: {STEPS} steps at batch {BATCH} ==\n")

    plain_model, plain_losses = single_device()
    one_model, one = train(num_shards=1)
    drift = max(abs(a - b) for a, b in zip(plain_losses, one.losses))
    tables_equal = all(
        np.array_equal(a.table, b.table)
        for a, b in zip(plain_model.embeddings, one_model.embeddings)
    )
    print(f"1-shard trainer vs single-device step: max loss drift "
          f"{drift:.2e}, tables bit-identical: {tables_equal}")
    print("(the sharded runtime with one shard IS the single-device step)\n")

    for policy in ("row", "table"):
        _, sharded = train(num_shards=NUM_SHARDS, policy=policy)
        print(f"-- {NUM_SHARDS} shards, policy='{policy}' --")
        print(f"loss: {sharded.initial_loss:.4f} -> {sharded.final_loss:.4f}  "
              f"(1-shard final: {one.final_loss:.4f})")
        per_device = sharded.exchange_bytes / NUM_SHARDS
        print(f"simulated all-to-all payload: {per_device / 1e6:.2f} MB/device "
              f"over {STEPS} steps ({one.exchange_bytes / 1e6:.2f} MB for the "
              f"single device at 1 shard)")
        print("per-shard wall-clock (each shard would run concurrently):")
        for shard, timings in enumerate(sharded.shard_timings):
            phases = "  ".join(
                f"{phase}={seconds * 1e3:6.1f}ms"
                for phase, seconds in sorted(timings.totals.items())
            )
            print(f"  shard[{shard}]  {phases}")
        slowest = max(t.total() for t in sharded.shard_timings)
        serial = sum(t.total() for t in sharded.shard_timings)
        print(f"critical path (slowest shard): {slowest * 1e3:.1f}ms of "
              f"{serial * 1e3:.1f}ms total embedding work -> "
              f"{serial / slowest:.2f}x parallel speedup on {NUM_SHARDS} devices\n")

    print("analytic counterpart: python -m repro scaling --models RM1")


if __name__ == "__main__":
    main()
