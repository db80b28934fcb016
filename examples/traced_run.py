#!/usr/bin/env python
"""Trace a training run into Perfetto-loadable files.

The observability plane (``repro.obs``) rides the same seam everywhere: a
nullable ``obs=`` argument.  With ``obs=None`` nothing records and runs
are bit-identical to untraced ones; with an :class:`~repro.obs.
Observability` the run produces

* a Chrome trace-event JSON (open it at https://ui.perfetto.dev): every
  phase of every step — the cast included — is a span on the ``main``
  track, inside that step's ``step`` envelope;
* a JSONL step stream (one record per training step);
* a manifest (git SHA, experiment knobs) so an artifact is attributable;
* a metric snapshot (kernel-call counters, step counter, loss gauge).

This example traces a run into ``./traces/``, validates the payload with
the library's own checker — the same check CI runs on the smoke artifacts
— and reads the cast's share of the step off the trace: the slice the
paper's Figure 9(b) hides on another device.

Run from the repository root::

    PYTHONPATH=src python examples/traced_run.py
"""

import json
from pathlib import Path

import numpy as np

from repro.data.generator import SyntheticCTRStream
from repro.model.configs import RM1
from repro.model.dlrm import DLRM
from repro.model.optim import SGD
from repro.obs import Observability, validate_chrome_trace, span_totals
from repro.runtime.trainer import FunctionalTrainer

CONFIG = RM1.with_overrides(
    num_tables=2, gathers_per_table=4, rows_per_table=128,
    bottom_mlp=(16, 8), top_mlp=(4, 1), embedding_dim=8,
)
OUT_DIR = Path("traces")


def make_stream():
    return SyntheticCTRStream(
        num_tables=CONFIG.num_tables, num_rows=CONFIG.rows_per_table,
        lookups_per_sample=CONFIG.gathers_per_table,
        dense_features=CONFIG.dense_features, seed=0,
    )


def trace_training() -> None:
    """A traced run: every phase on the step loop's ``main`` track."""
    obs = Observability()
    model = DLRM(CONFIG, rng=np.random.default_rng(0))
    trainer = FunctionalTrainer(model, make_stream(), SGD(lr=0.2))
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
    tracks = {record.track for record in obs.tracer.records}
    if tracks != {"main"}:
        raise SystemExit(f"expected one track, main; the trace has {tracks}")
    print(f"the cast is {totals['casting'] / totals['step']:.1%} of the "
          "traced steps")


def main() -> None:
    OUT_DIR.mkdir(exist_ok=True)
    trace_training()
    print("VERIFIED: the trace payload passes validate_chrome_trace — "
          "load it at https://ui.perfetto.dev")


if __name__ == "__main__":
    main()
