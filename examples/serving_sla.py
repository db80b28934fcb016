#!/usr/bin/env python
"""Serve a trained model under a tail-latency SLA (DeepRecSys-style).

Training optimizes throughput; serving optimizes the *tail*.  This example
walks the full request lifecycle of the serving plane::

    arrival process ──> Request ──> RequestQueue ──> DynamicBatcher
                                                         │ (coalesce)
    ServingReport <── latencies <── VirtualClock <── EngineExecutor

1. train a down-scaled DLRM for a few steps and checkpoint it — the
   serving fleet never trains, it *restores*;
2. build an :class:`~repro.serving.EngineExecutor` (the engine's
   forward-only ``infer()`` policy: no backward, no optimize, parameters
   provably frozen) and restore the checkpoint into it;
3. generate a seeded Poisson request stream and serve it under three
   batching policies — no batching, the two-knob dynamic batcher, and a
   hill-climbed batch size — on a **virtual clock**, so simulating the
   traffic takes far less than the simulated seconds;
4. report p50/p95/p99, QPS, and QPS-under-SLA per policy, then verify the
   serving invariants: every request served exactly once, parameters
   bit-identical to the trained checkpoint, and p99 within the SLA.

Run:  python examples/serving_sla.py
"""

import sys
import tempfile
from pathlib import Path

import numpy as np

from repro.data import SyntheticCTRStream
from repro.data.arrivals import ArrivalProcess
from repro.model import DLRM, Adagrad
from repro.model.configs import RM1
from repro.runtime import FunctionalTrainer, restore_trainer, save_checkpoint
from repro.serving import (
    BatchingPolicy,
    EngineExecutor,
    ServingSimulator,
    generate_requests,
    tune_batch_size,
)

#: Down-scaled model: the point is the serving protocol, not the scale.
CONFIG = RM1.with_overrides(
    num_tables=3,
    gathers_per_table=4,
    rows_per_table=2_000,
    bottom_mlp=(16, 8),
    top_mlp=(8, 1),
    embedding_dim=8,
)

SLA_MS = 50.0
ARRIVAL_RATE = 500.0  # requests per simulated second
NUM_REQUESTS = 48


def make_stream(seed=0):
    return SyntheticCTRStream(
        num_tables=CONFIG.num_tables,
        num_rows=CONFIG.rows_per_table,
        lookups_per_sample=CONFIG.gathers_per_table,
        dense_features=CONFIG.dense_features,
        seed=seed,
    )


def main() -> int:
    # -- 1. train briefly, checkpoint ---------------------------------
    trainer = FunctionalTrainer(
        DLRM(CONFIG, rng=np.random.default_rng(0)),
        make_stream(),
        Adagrad(lr=0.05),
    )
    trainer.train(64, 3, np.random.default_rng(1))
    trained_params = [np.copy(p) for p in trainer.model.all_parameters()]
    workdir = Path(tempfile.mkdtemp(prefix="repro-serving-"))
    checkpoint = save_checkpoint(workdir / "trained.npz", trainer, 3)
    print(f"trained 3 steps, checkpoint at {checkpoint}")

    # -- 2. restore into a fresh serving executor ----------------------
    executor = EngineExecutor(
        DLRM(CONFIG, rng=np.random.default_rng(99)),  # init is irrelevant
        optimizer=Adagrad(lr=0.05),
    )
    restore_trainer(executor.trainer, checkpoint)

    # -- 3. one seeded workload, three batching policies ---------------
    requests = generate_requests(
        make_stream(seed=7), NUM_REQUESTS, 4,
        ArrivalProcess(ARRIVAL_RATE, pattern="poisson", seed=7),
        np.random.default_rng(7),
    )
    sla_s = SLA_MS / 1e3
    reports = {}
    reports["single"] = ServingSimulator(
        executor, BatchingPolicy.no_batching(), sla_s
    ).run(requests)
    reports["dynamic"] = ServingSimulator(
        executor, BatchingPolicy(8, 0.002, name="dynamic"), sla_s
    ).run(requests)
    hill_policy, hill_report, climb = tune_batch_size(
        requests, executor, sla_s, max_wait_s=0.002
    )
    reports[hill_policy.name] = hill_report

    # -- 4. the latency/throughput frontier ----------------------------
    print(f"\n{ARRIVAL_RATE:g} req/s poisson, SLA {SLA_MS:g} ms "
          f"({len(climb)} hill candidates evaluated):")
    header = (f"{'policy':10s} {'batches':>7s} {'p50ms':>7s} {'p95ms':>7s} "
              f"{'p99ms':>7s} {'QPS':>6s} {'QPS<=SLA':>8s}")
    print(header)
    for name, report in reports.items():
        print(f"{name:10s} {report.batches:7d} {report.p50_s * 1e3:7.2f} "
              f"{report.p95_s * 1e3:7.2f} {report.p99_s * 1e3:7.2f} "
              f"{report.qps:6.0f} {report.qps_under_sla:8.0f}")

    # -- verify the serving plane's guarantees -------------------------
    for name, report in reports.items():
        served = sorted(o.request.request_id for o in report.outcomes)
        assert served == [r.request_id for r in requests], (
            f"{name}: requests lost or duplicated"
        )
        assert report.p99_s <= sla_s, (
            f"{name}: p99 {report.p99_s * 1e3:.2f} ms blew the SLA"
        )
    for before, after in zip(
        trained_params, executor.trainer.model.all_parameters()
    ):
        assert np.array_equal(before, after), "serving mutated parameters"

    print("\nVERIFIED: every request served exactly once, parameters frozen")
    print(f"VERIFIED: p99 within the {SLA_MS:g} ms SLA for all "
          f"{len(reports)} policies")
    return 0


if __name__ == "__main__":
    sys.exit(main())
