#!/usr/bin/env python
"""Trace workflow: record real lookup streams, replay them everywhere.

Production users have actual index traces (from dataset preprocessing or
serving logs).  This example walks the full data-plane loop:

1. record a stand-in "production" stream to a **batch trace** with
   ``record_trace`` (constant-memory streaming write), and export one
   batch's index arrays as a classic ``save_trace`` artifact;
2. replay the batch trace through a ``FunctionalTrainer`` via
   ``TraceReplaySource`` and show the run is **bit-identical** to training
   on the live stream — the trace captures exactly what the stream
   produced, one step loaded at a time;
3. measure the trace's locality with the paper's histogram methodology and
   drive the performance model with the *measured* distribution;
4. replay the trace's row ids through an executed ``HotRowCache`` per
   table (no model needed: a cache only counts ids) and compare its
   measured hit rate against the analytic RecNMP-style prediction for the
   very same trace.

Run:  python examples/trace_replay.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro import DLRM, SGD, compute_workload, design_points, get_model
from repro.data import (
    SyntheticCTRStream,
    TraceReplaySource,
    ZipfDistribution,
    distribution_from_trace,
    load_trace,
    record_trace,
    save_trace,
)
from repro.experiments.hotcache import hotcache_sweep
from repro.model.configs import RM1
from repro.runtime.trainer import FunctionalTrainer

#: Down-scaled model whose geometry the recorded stream matches.
CONFIG = RM1.with_overrides(
    num_tables=3,
    gathers_per_table=8,
    rows_per_table=20_000,
    bottom_mlp=(16, 8),
    top_mlp=(8, 1),
    embedding_dim=8,
)

BATCH, STEPS = 512, 16


def production_stream() -> SyntheticCTRStream:
    """A skewed stand-in for production traffic (any BatchSource works)."""
    return SyntheticCTRStream(
        num_tables=CONFIG.num_tables,
        num_rows=CONFIG.rows_per_table,
        lookups_per_sample=CONFIG.gathers_per_table,
        dense_features=CONFIG.dense_features,
        distributions=[
            ZipfDistribution(CONFIG.rows_per_table, exponent=1.1, shift=4.0)
        ] * CONFIG.num_tables,
        seed=7,
    )


def export_traces(workdir: Path):
    print("== Step 1: record the stream to disk ==")
    batch_trace = record_trace(
        production_stream(), workdir / "production_batches.npz",
        BATCH, STEPS, np.random.default_rng(7),
    )
    with TraceReplaySource(batch_trace) as probe:
        print(f"batch trace {batch_trace.name}: {probe.num_steps} steps x "
              f"{probe.num_tables} tables (header read lazily - no step "
              "was materialized)")
    one_batch = production_stream().next_batch(BATCH, np.random.default_rng(7))
    index_trace = save_trace(workdir / "production_indices.npz",
                             one_batch.indices)
    total = sum(i.num_lookups for i in one_batch.indices)
    print(f"index trace {index_trace.name}: {len(one_batch.indices)} tables, "
          f"{total:,} lookups\n")
    return batch_trace, index_trace


def replay_bit_identical(batch_trace: Path) -> None:
    print("== Step 2: replay the trace through a trainer (bit-identity) ==")
    live_model = DLRM(CONFIG, rng=np.random.default_rng(0), dtype=np.float32)
    live = FunctionalTrainer(live_model, production_stream(), SGD(lr=0.1))
    live_report = live.train(BATCH, STEPS, np.random.default_rng(7))

    replay_model = DLRM(CONFIG, rng=np.random.default_rng(0), dtype=np.float32)
    replay = FunctionalTrainer(
        replay_model, TraceReplaySource(batch_trace), SGD(lr=0.1)
    )
    # A different rng seed on purpose: replay ignores it entirely.
    replay_report = replay.train(BATCH, STEPS, np.random.default_rng(12345))

    identical = live_report.losses == replay_report.losses and all(
        np.array_equal(a, b)
        for a, b in zip(live_model.all_parameters(),
                        replay_model.all_parameters())
    )
    print(f"live losses:   {[f'{x:.5f}' for x in live_report.losses]}")
    print(f"replay losses: {[f'{x:.5f}' for x in replay_report.losses]}")
    print(f"-> losses and every parameter tensor "
          f"{'MATCH EXACTLY' if identical else 'DIVERGED (bug!)'}\n")
    if not identical:
        raise SystemExit("the trace replay diverged from the live run")


def analyze_and_model(index_trace: Path) -> None:
    print("== Step 3: measured locality drives the performance model ==")
    indices = load_trace(index_trace)
    for table_id, index in enumerate(indices):
        print(f"  table {table_id}: {index.num_lookups:,} lookups over "
              f"{index.num_rows:,} rows -> u/n = "
              f"{index.coalescing_ratio():.3f}")
    measured = distribution_from_trace(indices, table=0)
    print(f"  table 0 head mass (top 1% of rows): {measured.top_mass(0.01):.1%}")
    config = get_model("RM3")
    systems = design_points()
    for label, dataset in (("uniform (synthetic default)", "random"),
                           ("measured from trace", measured)):
        stats = compute_workload(config, 4096, dataset=dataset)
        base = systems["Baseline(CPU)"].run_iteration(stats)
        ours = systems["Ours(NMP)"].run_iteration(stats)
        print(f"  {label}: u={stats.u:,} "
              f"baseline={base.total * 1e3:6.2f} ms "
              f"Ours(NMP)={ours.total * 1e3:5.2f} ms "
              f"({base.total / ours.total:.2f}x)")
    print("-> skewed production traffic coalesces harder, shrinking scatter "
          "time for both systems\n")


def executed_cache_on_replay(batch_trace: Path) -> None:
    print("== Step 4: executed hot-row cache on the same trace ==")
    rows = hotcache_sweep(trace=batch_trace, capacity_rows=2_000, steps=STEPS)
    for row in rows:
        print(f"  {row.policy}: measured {row.measured_hit_rate:.1%} vs "
              f"analytic {row.analytic_hit_rate:.1%} "
              f"(delta {row.delta:+.1%})")
    print("-> once the trace is long enough to warm the cache, the "
          "executed policies land within\n   the documented band of the "
          "ideal-placement bound (LFU 0.05, LRU 0.12 - see\n   "
          "repro.experiments.hotcache); cold-start drag is visible on "
          "shorter traces")


def main() -> None:
    with tempfile.TemporaryDirectory() as workdir:
        batch_trace, index_trace = export_traces(Path(workdir))
        replay_bit_identical(batch_trace)
        analyze_and_model(index_trace)
        executed_cache_on_replay(batch_trace)


if __name__ == "__main__":
    main()
