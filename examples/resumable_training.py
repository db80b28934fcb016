#!/usr/bin/env python
"""Resumable training: interrupt a job, checkpoint it, resume bit-identically.

Long-running recommendation training jobs get preempted.  The training
engine makes recovery exact: a checkpoint captures every model
parameter, every per-tensor optimizer state slot (here Adagrad's
accumulators), and the global step counter — and ``start_step`` replays
the batch source past the already-trained steps.  This example walks the
full loop:

1. record a stand-in "production" stream to a batch trace, so the data is
   replayable (any deterministic ``BatchSource`` works the same way);
2. run the **uninterrupted** reference job: 8 steps end to end;
3. run the same job with a ``CheckpointCallback`` (every 2 steps) and a
   ``MetricsLogger``, and "crash" it at step 5;
4. build a completely fresh trainer — different model init, different RNG
   seed — restore the latest checkpoint into it with ``restore_trainer``,
   and train the remaining steps with ``start_step=5``;
5. verify the resumed parameters are **bit-identical** to the
   uninterrupted run's, tensor for tensor;
6. do it again **across shard layouts**: crash a ``policy="table",
   num_shards=2`` job, resume its checkpoint in a default one-shard trainer,
   and land on the same bits — shards name rows of the model's own tables,
   so a checkpoint (Adagrad's per-row accumulators included) carries no
   trace of the layout that wrote it.

Run:  python examples/resumable_training.py
"""

import sys
import tempfile
from pathlib import Path

import numpy as np

from repro.data import SyntheticCTRStream, TraceReplaySource, record_trace
from repro.model import DLRM, Adagrad
from repro.model.configs import RM1
from repro.runtime import (
    CheckpointCallback,
    FunctionalTrainer,
    MetricsLogger,
    latest_checkpoint,
    restore_trainer,
)

#: Down-scaled model: the point is the resume protocol, not the scale.
CONFIG = RM1.with_overrides(
    num_tables=3,
    gathers_per_table=8,
    rows_per_table=5_000,
    bottom_mlp=(16, 8),
    top_mlp=(8, 1),
    embedding_dim=8,
)

BATCH, TOTAL_STEPS, CRASH_AT = 64, 8, 5


def make_stream():
    return SyntheticCTRStream(
        num_tables=CONFIG.num_tables,
        num_rows=CONFIG.rows_per_table,
        lookups_per_sample=CONFIG.gathers_per_table,
        dense_features=CONFIG.dense_features,
        seed=0,
    )


def make_trainer(
    trace: Path, model_seed: int, **layout: object
) -> FunctionalTrainer:
    model = DLRM(CONFIG, rng=np.random.default_rng(model_seed))
    return FunctionalTrainer(
        model, TraceReplaySource(trace), Adagrad(lr=0.1), **layout
    )


def matches_reference(reference, reference_report, resumed, report, step):
    """(losses equal the reference's tail, parameters bit-identical)."""
    identical = all(
        np.array_equal(a, b)
        for a, b in zip(
            reference.model.all_parameters(), resumed.model.all_parameters()
        )
    )
    return report.losses == reference_report.losses[step:], identical


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="repro_resume_"))
    trace = record_trace(
        make_stream(), workdir / "stream.npz", BATCH, TOTAL_STEPS,
        np.random.default_rng(1),
    )
    print(f"recorded {TOTAL_STEPS} batches of {BATCH} to {trace}")

    # -- the uninterrupted reference job --------------------------------
    reference = make_trainer(trace, model_seed=0)
    reference_report = reference.train(
        BATCH, TOTAL_STEPS, np.random.default_rng(2)
    )
    print(
        f"\nuninterrupted: {reference_report.steps} steps, "
        f"loss {reference_report.initial_loss:.4f} -> "
        f"{reference_report.final_loss:.4f}"
    )

    # -- the same job, checkpointed and "crashed" at step 5 -------------
    ckpt_dir = workdir / "checkpoints"
    interrupted = make_trainer(trace, model_seed=0)
    print(f"\ntraining with checkpoints every 2 steps, crashing at {CRASH_AT}:")
    interrupted.train(
        BATCH, CRASH_AT, np.random.default_rng(2),
        callbacks=[
            CheckpointCallback(ckpt_dir, every=2),
            MetricsLogger(stream=sys.stdout),
        ],
    )
    newest = latest_checkpoint(ckpt_dir)
    print(f"on-disk checkpoints: {sorted(p.name for p in ckpt_dir.iterdir())}")

    # -- recovery: a fresh process would start exactly like this --------
    # Different model init and rng seeds on purpose: everything that
    # matters is inside the checkpoint + the replayable source.
    resumed = make_trainer(trace, model_seed=999)
    step = restore_trainer(resumed, newest)
    print(f"\nrestored {newest.name}: continuing from step {step}")
    resumed_report = resumed.train(
        BATCH, TOTAL_STEPS - step, np.random.default_rng(777),
        callbacks=[MetricsLogger(stream=sys.stdout)],
        start_step=step,
    )

    # -- the verdict ----------------------------------------------------
    tail_matches, identical = matches_reference(
        reference, reference_report, resumed, resumed_report, step
    )
    print(
        f"\nresumed losses match the reference tail: {tail_matches}\n"
        f"parameters bit-identical to the uninterrupted run: {identical}"
    )
    if not (identical and tail_matches):
        raise SystemExit("resume diverged from the uninterrupted run")

    # -- the same crash under another shard layout ----------------------
    # Two table shards train the checkpoint; a one-shard trainer resumes
    # it.  The reference is still the uninterrupted one-shard job.
    sharded_dir = workdir / "checkpoints-table-shards"
    make_trainer(trace, model_seed=0, num_shards=2, policy="table").train(
        BATCH, CRASH_AT, np.random.default_rng(2),
        callbacks=[CheckpointCallback(sharded_dir, every=2)],
    )
    crossed = make_trainer(trace, model_seed=999)
    step = restore_trainer(crossed, latest_checkpoint(sharded_dir))
    crossed_report = crossed.train(
        BATCH, TOTAL_STEPS - step, np.random.default_rng(777), start_step=step
    )
    tail_matches, identical = matches_reference(
        reference, reference_report, crossed, crossed_report, step
    )
    print(
        f"\nsaved at 2 table shards, resumed at 1 shard from step {step}:\n"
        f"resumed losses match the reference tail: {tail_matches}\n"
        f"parameters bit-identical to the uninterrupted run: {identical}"
    )
    if not (identical and tail_matches):
        raise SystemExit(
            "cross-layout resume diverged from the uninterrupted run"
        )
    print(
        "\nVERIFIED: interrupt + checkpoint + resume reproduces the "
        "uninterrupted training run bit for bit, within one shard layout "
        "and across two."
    )


if __name__ == "__main__":
    main()
