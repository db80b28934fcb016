#!/usr/bin/env python
"""Trace a training run and a serving run into Perfetto-loadable files.

The observability plane (``repro.obs``) rides the same seam everywhere: a
nullable ``obs=`` argument.  With ``obs=None`` nothing records and runs
are bit-identical to untraced ones; with an :class:`~repro.obs.
Observability` the run produces

* a Chrome trace-event JSON (open it at https://ui.perfetto.dev) with one
  track per execution lane — ``main``, ``cast``, ``shard0``... for
  training; ``server`` plus one per request for serving;
* a JSONL step stream (one record per training step / served request);
* a manifest (git SHA, experiment knobs) so an artifact is attributable;
* a metric snapshot (kernel-call counters, loss gauge, latency histograms).

This example traces both planes into ``./traces/`` and validates the
payloads with the library's own checker — the same checks CI runs on the
smoke artifacts.

Run from the repository root::

    PYTHONPATH=src python examples/traced_run.py
"""

import json
from pathlib import Path

import numpy as np

from repro.data.arrivals import ArrivalProcess
from repro.data.generator import SyntheticCTRStream
from repro.model.configs import RM1
from repro.model.dlrm import DLRM
from repro.model.optim import SGD
from repro.obs import Observability, validate_chrome_trace, span_totals
from repro.runtime.trainer import FunctionalTrainer
from repro.serving import (
    BatchingPolicy,
    FixedLatencyExecutor,
    ServingSimulator,
    generate_requests,
)

CONFIG = RM1.with_overrides(
    num_tables=2, gathers_per_table=4, rows_per_table=128,
    bottom_mlp=(16, 8), top_mlp=(4, 1), embedding_dim=8,
)
OUT_DIR = Path("traces")


def make_stream(seed=0):
    return SyntheticCTRStream(
        num_tables=CONFIG.num_tables, num_rows=CONFIG.rows_per_table,
        lookups_per_sample=CONFIG.gathers_per_table,
        dense_features=CONFIG.dense_features, seed=seed,
    )


def trace_training() -> None:
    """A pipelined sharded run: casts and shard gathers on their own tracks."""
    obs = Observability()
    model = DLRM(CONFIG, rng=np.random.default_rng(0))
    trainer = FunctionalTrainer(model, make_stream(), SGD(lr=0.2),
                                num_shards=2, lookahead=1)
    report = trainer.train(32, 6, np.random.default_rng(1), obs=obs)
    obs.annotate(example="traced_run", plane="training")
    written = obs.export(OUT_DIR / "training.trace.json",
                         metrics_path=OUT_DIR / "training.metrics.json")
    for path in written:
        print(f"wrote {path}")
    payload = json.loads((OUT_DIR / "training.trace.json").read_text())
    spans = validate_chrome_trace(payload)
    totals = span_totals(obs.tracer.records)
    print(f"training: {report.steps} steps, {spans} spans, "
          f"{report.steps_per_second:.0f} steps/s")
    for name in sorted(totals):
        print(f"  {name:<10} {totals[name] * 1e3:8.2f} ms traced")


def trace_serving() -> None:
    """A virtual-clock serving run: deterministic, byte-stable traces."""
    obs = Observability()
    requests = generate_requests(
        make_stream(seed=7), 48, 2,
        ArrivalProcess(400.0, pattern="poisson", seed=7),
        np.random.default_rng(7),
    )
    simulator = ServingSimulator(
        FixedLatencyExecutor(0.002, 0.0005),
        BatchingPolicy(max_batch_requests=4, max_wait_s=0.002),
        sla_s=0.05, obs=obs,
    )
    report = simulator.run(requests)
    obs.annotate(example="traced_run", plane="serving")
    written = obs.export(OUT_DIR / "serving.trace.json",
                         metrics_path=OUT_DIR / "serving.metrics.json")
    for path in written:
        print(f"wrote {path}")
    payload = json.loads((OUT_DIR / "serving.trace.json").read_text())
    spans = validate_chrome_trace(payload)
    print(f"serving: {report.requests} requests in {report.batches} batches, "
          f"{spans} spans, p99 {report.p99_s * 1e3:.1f} ms")


def main() -> None:
    OUT_DIR.mkdir(exist_ok=True)
    trace_training()
    trace_serving()
    print("VERIFIED: both trace payloads pass validate_chrome_trace — "
          "load them at https://ui.perfetto.dev")


if __name__ == "__main__":
    main()
