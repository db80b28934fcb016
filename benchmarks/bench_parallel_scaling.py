"""Parallel vs serial shard execution wall-clock: the measured scaling curve.

Sweeps shard/worker counts through
:func:`repro.experiments.scaling.measured_scaling_sweep`, training the same
down-scaled DLRM with its shards inline on the step loop and under the
thread shard executor of :mod:`repro.runtime.parallel`.  Every cell's
bitwise flag must hold — a speedup that comes from numerical drift is a
bug, not a result.  Speed is printed and emitted, never asserted: with
plain-NumPy kernels the pool reads 0.8–1.2x of inline from run to run on a
2-core host, so a threshold here would gate on host luck.  Headline numbers
land in ``BENCH_parallel.json`` (``benchmarks/_emit.py``) for the
``tools/bench_compare.py`` perf gate.

Set ``BENCH_SMOKE=1`` to shrink every shape to a seconds-long smoke run
(used by the CI benchmarks job to catch bit-rot without paying full size).
"""

import os

from _emit import emit as emit_bench
from conftest import run_once
from repro.experiments.overlap import OVERLAP_CONFIG
from repro.experiments.scaling import measured_scaling_sweep

_SMOKE = os.environ.get("BENCH_SMOKE") == "1"
_CORES = os.cpu_count() or 1

SEED = 0
BATCH, STEPS, REPEATS = (64, 2, 1) if _SMOKE else (512, 6, 3)
SHARD_COUNTS = (1, 2) if _SMOKE else (1, 2, 4)
CONFIG = OVERLAP_CONFIG.with_overrides(
    rows_per_table=2_000 if _SMOKE else 50_000,
)


def as_row(row):
    return {
        "num_shards": row.num_shards,
        "workers": row.workers,
        "backend": row.backend,
        "serial_steps_per_s": row.serial_steps_per_s,
        "parallel_steps_per_s": row.parallel_steps_per_s,
        "measured_speedup": row.measured_speedup,
        "analytic_speedup_x": row.analytic_speedup,
        "bit_identical": row.bit_identical,
    }


def emit(section, rows):
    """Merge one section into BENCH_parallel.json (tests stay independent)."""
    emit_bench(
        "parallel", section, rows,
        meta=dict(smoke=_SMOKE, seed=SEED, batch=BATCH, steps=STEPS,
                  repeats=REPEATS, host_cores=_CORES),
    )


def print_rows(title, rows):
    print(f"\n[Parallel scaling] {title} "
          f"(batch {BATCH} x {STEPS} steps, best of {REPEATS})")
    print(f"  {'shards':>6s} {'workers':>7s} {'serial it/s':>11s} "
          f"{'parallel it/s':>13s} {'speedup':>7s} {'analytic':>8s} "
          f"{'bitwise':>7s}")
    for row in rows:
        print(f"  {row['num_shards']:6d} {row['workers']:7d} "
              f"{row['serial_steps_per_s']:11.2f} "
              f"{row['parallel_steps_per_s']:13.2f} "
              f"{row['measured_speedup']:6.2f}x "
              f"{row['analytic_speedup_x']:7.2f}x "
              f"{'OK' if row['bit_identical'] else 'DIVERGED':>7s}")


def check(rows):
    """Correctness only: bit-identity is what the schedule promises."""
    for row in rows:
        assert row["bit_identical"], (
            f"parallel run diverged from serial at {row['num_shards']} "
            "shards — a schedule bug, not a perf question"
        )
        assert row["parallel_steps_per_s"] > 0


def test_thread_mode_scaling(benchmark):
    rows = run_once(benchmark, lambda: [
        as_row(row) for row in measured_scaling_sweep(
            shard_counts=SHARD_COUNTS, batches=(BATCH,), steps=STEPS,
            config=CONFIG, backend="vectorized",
            seed=SEED, repeats=REPEATS,
        )
    ])
    emit("thread", rows)
    print_rows("thread workers (vectorized backend)", rows)
    check(rows)
