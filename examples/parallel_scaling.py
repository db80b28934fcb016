#!/usr/bin/env python
"""Parallel shard execution: same numbers as serial, measured faster.

PR 1 partitioned the embedding tables into shards and PR 9's
``schedule="parallel"`` finally runs those shards *concurrently*: a
persistent thread pool executes each shard's cast/gather/backward as a
pure function, a real all-to-all barrier exchanges the per-shard partial
sums, and the reduction applies them in shard-index order — so the result
is bit-identical to the serial schedule, every time, on every host.  This
example walks the library API end to end:

1. train a down-scaled DLRM under the **serial** schedule (the reference);
2. train the same job under ``schedule="parallel"`` (the thread pool), and
   verify losses and every parameter match bit for bit;
3. run :func:`repro.experiments.scaling.measured_scaling_sweep` to print
   the measured serial-vs-parallel scaling curve next to the analytic
   bound from the sharded-NMP cost model.

Speedup depends on the host's core count and on a backend whose kernels
release the GIL (plain NumPy on two cores measures about 1x); bit-identity
depends on neither, and this example exits nonzero if it breaks.

Run:  python examples/parallel_scaling.py
"""

import numpy as np

from repro.data import SyntheticCTRStream
from repro.experiments.scaling import (
    format_measured_scaling,
    measured_scaling_sweep,
)
from repro.model import DLRM, SGD
from repro.model.configs import RM1
from repro.runtime import FunctionalTrainer

#: Down-scaled model: the point is the schedule contract, not the scale.
#: (embedding_dim=16 keeps the 64-byte vector grain the analytic memory
#: model in the measured sweep requires.)
CONFIG = RM1.with_overrides(
    num_tables=4,
    gathers_per_table=8,
    rows_per_table=5_000,
    bottom_mlp=(16, 16),
    top_mlp=(8, 1),
    embedding_dim=16,
)

BATCH, STEPS, SHARDS = 128, 4, 2


def make_trainer(schedule: str) -> FunctionalTrainer:
    model = DLRM(CONFIG, rng=np.random.default_rng(0))
    stream = SyntheticCTRStream(
        num_tables=CONFIG.num_tables,
        num_rows=CONFIG.rows_per_table,
        lookups_per_sample=CONFIG.gathers_per_table,
        dense_features=CONFIG.dense_features,
        seed=0,
    )
    return FunctionalTrainer(
        model, stream, SGD(lr=0.3),
        num_shards=SHARDS, policy="row", backend="vectorized",
        schedule=schedule,
        workers=SHARDS if schedule == "parallel" else None,
    )


def train(trainer: FunctionalTrainer):
    return trainer.train(BATCH, STEPS, np.random.default_rng(1))


def verify(label: str, reference, candidate) -> None:
    losses_match = reference[1].losses == candidate[1].losses
    params_match = all(
        np.array_equal(a, b)
        for a, b in zip(reference[0].model.all_parameters(),
                        candidate[0].model.all_parameters())
    )
    print(f"{label}: losses match {losses_match}, "
          f"parameters bit-identical {params_match}")
    if not (losses_match and params_match):
        raise SystemExit(f"{label} diverged from the serial schedule")


def main() -> None:
    # -- the serial reference -------------------------------------------
    serial = make_trainer("serial")
    serial_report = train(serial)
    print(
        f"serial: {serial_report.steps} steps at {SHARDS} shards, "
        f"loss {serial_report.initial_loss:.4f} -> "
        f"{serial_report.final_loss:.4f}"
    )

    # -- the same job on a thread pool ----------------------------------
    threaded = make_trainer("parallel")
    threaded_report = train(threaded)
    verify("thread workers", (serial, serial_report),
           (threaded, threaded_report))
    sync = threaded_report.timings.totals.get("sync", 0.0)
    print(f"  barrier (sync) time: {sync * 1e3:.2f} ms over {STEPS} steps")

    # -- the measured scaling curve -------------------------------------
    print("\nmeasured scaling sweep (serial vs parallel wall-clock):")
    rows = measured_scaling_sweep(
        shard_counts=(1, 2), batches=(BATCH,), steps=STEPS,
        config=CONFIG, backend="vectorized", repeats=2,
    )
    print(format_measured_scaling(rows))
    if not all(row.bit_identical for row in rows):
        raise SystemExit("measured sweep diverged from serial")

    print(
        "\nVERIFIED: the parallel shard schedule reproduces the serial "
        "run bit for bit."
    )


if __name__ == "__main__":
    main()
