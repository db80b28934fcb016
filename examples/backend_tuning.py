#!/usr/bin/env python
"""Walkthrough: the pluggable kernel engine and its autotuned dispatch.

Every hot kernel of the reproduction — forward gather-reduce, Tensor
Casting, the casted backward gather-reduce, the scatter update — routes
through a registered `KernelBackend` (see `repro.backends`).  The `auto`
policy buckets each workload into a shape class, micro-benchmarks the
candidate engines once on a representative probe, caches the winner, and
delegates.  It has a real choice to make only beside the optional `numba`
engine: on a NumPy-only install `vectorized` is its one candidate, so it
delegates every kernel there with zero probes.

This example measures the casted backward gather-reduce — the kernel the
whole paper is about — on two workload shapes:

* **narrow** — an 8-wide embedding with heavy pooling, where per-call
  overhead matters most;
* **wide** — the paper's default 64-wide embedding at batch 4096, where
  the vectorized engine's `segment_sum` rounds move whole rows per call;

then lets the autotuner pick per shape and prints its decision table.
Every engine returns bit-identical float64 results (the differential tests
pin this), so the choice moves wall-clock only.

Run:  python examples/backend_tuning.py
"""

import time

import numpy as np

from repro.backends import AutoBackend, Autotuner, available_backends
from repro.core.gather_reduce import casted_gather_reduce
from repro.core.casting import tensor_casting
from repro.core.indexing import IndexArray

#: (name, batch, lookups-per-sample, table rows, embedding dim)
SHAPES = [
    ("narrow", 2048, 32, 50_000, 8),
    ("wide", 4096, 16, 100_000, 64),
]
REPEATS = 5


def build_workload(batch, lookups, rows, dim, seed=0):
    rng = np.random.default_rng(seed)
    index = IndexArray(
        rng.integers(0, rows, batch * lookups),
        np.repeat(np.arange(batch), lookups),
        num_rows=rows,
        num_outputs=batch,
    )
    table = rng.standard_normal((rows, dim))
    gradients = rng.standard_normal((batch, dim))
    return index, table, gradients


def best_of(func, repeats=REPEATS):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        func()
        best = min(best, time.perf_counter() - start)
    return best


def main():
    print("registered & available engines:", ", ".join(available_backends()))
    print()

    baselines = {}
    for name, batch, lookups, rows, dim in SHAPES:
        index, table, gradients = build_workload(batch, lookups, rows, dim)
        cast = tensor_casting(index)
        print(f"[{name}] batch={batch} pooling={lookups} dim={dim} "
              f"(n={index.num_lookups} lookups, u={cast.num_coalesced} "
              "coalesced rows)")
        results = {}
        for backend in available_backends():
            if backend == "auto":
                continue  # measured separately below, after tuning
            seconds = best_of(
                lambda: casted_gather_reduce(gradients, cast, backend=backend),
                repeats=2 if backend == "reference" else REPEATS,
            )
            results[backend] = seconds
            print(f"  casted backward  {backend:>10s}: {seconds * 1e3:8.2f} ms")
        fastest = min(results, key=results.get)
        speedup = results["reference"] / results[fastest]
        baselines[name] = (cast, gradients, results)
        print(f"  -> fastest fixed engine: {fastest} "
              f"({speedup:.1f}x over the reference oracle)")
        print()

    # The auto policy: one tuner, warmed per shape class, then delegation.
    auto = AutoBackend(tuner=Autotuner())
    print("autotuned dispatch ('auto' policy):")
    for name, _, _, _, _ in SHAPES:
        cast, gradients, results = baselines[name]
        auto.casted_gather_reduce(gradients, cast)  # triggers the probe
        seconds = best_of(lambda: auto.casted_gather_reduce(gradients, cast))
        ratio = seconds / min(results.values())
        print(f"  [{name}] auto: {seconds * 1e3:8.2f} ms "
              f"({ratio:.2f}x the best fixed engine; ~1.0 expected - "
              "delegation adds no measurable overhead)")
    print()
    print("decision table (shape class -> winner):")
    for shape, winner in sorted(
        auto.tuner.decisions().items(),
        key=lambda item: (item[0].kernel, item[0].batch_bucket),
    ):
        print(f"  {shape.kernel:>20s}  batch~2^{shape.batch_bucket - 1}"
              f"  pooling~2^{shape.pooling_bucket - 1}"
              f"  dim~2^{shape.dim_bucket - 1}  {shape.dtype}: {winner}")
    timings = auto.tuner.timings()
    if timings:
        print()
        print("probe measurements behind those decisions:")
        for shape, times in timings.items():
            ranked = ", ".join(
                f"{backend} {seconds * 1e6:.0f}us"
                for backend, seconds in sorted(times.items(), key=lambda i: i[1])
            )
            print(f"  dim~2^{shape.dim_bucket - 1}: {ranked}")
    else:
        print()
        print("auto short-circuits on a NumPy-only install: vectorized is "
              "its one candidate, so every decision above took zero probes "
              "(install numba to see a real contest)")

    # Whatever was picked, the numbers are the numbers: engines are
    # interchangeable bit for bit in float64.
    for name, _, _, _, _ in SHAPES:
        cast, gradients, _ = baselines[name]
        rows_a, vals_a = casted_gather_reduce(gradients, cast, backend="reference")
        rows_b, vals_b = auto.casted_gather_reduce(gradients, cast)
        assert np.array_equal(rows_a, rows_b)
        assert np.array_equal(vals_a, vals_b)
    print()
    print("VERIFIED: all engines produced bit-identical float64 gradients.")


if __name__ == "__main__":
    main()
