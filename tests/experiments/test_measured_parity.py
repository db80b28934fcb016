"""Every executed sweep's clock-free row fields, pinned to literals.

The four executed sweeps (``overlap``, measured ``scaling``, ``cache``,
``serve``) draw from one measured-run harness
(:mod:`repro.experiments.measured`).  Everything in their rows that is not
derived from a wall clock — bitwise flags, exchange bytes, analytic bounds,
cache accesses and hit rates, step counts — is a pure function of the
seeds and shapes, so it is pinned here to literals recorded before the
harness existed.  The cache literals were recorded while the cache still
ran inside training and serving; replaying the index stream reproduces
them.  Floats are compared exactly, as ``float.hex()`` strings.

Kernels are pinned to ``vectorized`` wherever a sweep would otherwise let
the ``auto`` autotuner choose by timing.
"""

import numpy as np

from repro.data.generator import SyntheticCTRStream
from repro.data.trace import record_trace
from repro.experiments.hotcache import HOTCACHE_CONFIG, hotcache_sweep
from repro.experiments.overlap import OVERLAP_CONFIG, overlap_sweep
from repro.experiments.scaling import measured_scaling_sweep
from repro.experiments.serving import serving_sweep
from repro.model.configs import RM1

#: The analytic NMP model needs 64-byte vectors, hence dim 16.
TINY_CONFIG = RM1.with_overrides(
    num_tables=3, gathers_per_table=4, rows_per_table=128,
    bottom_mlp=(8, 16), top_mlp=(4, 1), embedding_dim=16,
)


def _literal(value):
    return value.hex() if isinstance(value, float) else value


def _fields(rows, names):
    return [
        {name: _literal(getattr(row, name)) for name in names} for row in rows
    ]


def _trace(tmp_path, config, batch, steps):
    stream = SyntheticCTRStream(
        num_tables=config.num_tables,
        num_rows=config.rows_per_table,
        lookups_per_sample=config.gathers_per_table,
        dense_features=config.dense_features,
        seed=0,
    )
    return record_trace(
        stream, tmp_path / "tiny.npz", batch, steps, np.random.default_rng(1)
    )


OVERLAP_FIELDS = (
    "model", "batch", "num_shards", "steps", "analytic_speedup",
    "bit_identical", "forward_exchange_bytes", "backward_exchange_bytes",
)


def test_overlap_synthetic():
    rows = overlap_sweep(
        batches=(16,), shard_counts=(1, 2), steps=2, config=TINY_CONFIG,
        repeats=1, backend="vectorized",
    )
    assert _fields(rows, OVERLAP_FIELDS) == OVERLAP_SYNTHETIC


def test_overlap_trace(tmp_path):
    trace = _trace(tmp_path, OVERLAP_CONFIG.with_overrides(
        num_tables=2, rows_per_table=64, gathers_per_table=3,
        bottom_mlp=(4, 16)), batch=8, steps=3)
    rows = overlap_sweep(
        trace=trace, steps=5, repeats=1, backend="vectorized",
        optimizer="adagrad", lr=0.05,
    )
    assert _fields(rows, OVERLAP_FIELDS) == OVERLAP_TRACE


def test_measured_scaling():
    rows = measured_scaling_sweep(
        shard_counts=(1, 2), batches=(16, 32), steps=2, config=TINY_CONFIG,
        repeats=1,
    )
    assert _fields(rows, (
        "model", "batch", "policy", "num_shards", "backend", "steps",
        "analytic_speedup", "forward_exchange_bytes",
        "backward_exchange_bytes",
    )) == MEASURED_SCALING


CACHE_FIELDS = (
    "source", "policy", "capacity_rows", "batch", "steps", "accesses",
    "measured_hit_rate", "analytic_hit_rate", "delta",
)


def test_cache_synthetic():
    rows = hotcache_sweep(
        dataset="movielens", batch=32, steps=3, capacity_rows=64,
    )
    assert _fields(rows, CACHE_FIELDS) == CACHE_SYNTHETIC


def test_cache_accumulation_is_a_longer_replay():
    # Recorded as 3 steps of 2-batch gradient accumulation (a feature since
    # removed), which merged the batches in draw order: the same 6 draws of
    # the stream this replays.
    rows = hotcache_sweep(
        dataset="movielens", batch=32, steps=6, capacity_rows=64,
    )
    assert [(row.accesses, row.measured_hit_rate.hex()) for row in rows] == (
        CACHE_ACCUM)


def test_cache_trace(tmp_path):
    trace = _trace(tmp_path, HOTCACHE_CONFIG.with_overrides(
        rows_per_table=500), batch=16, steps=3)
    rows = hotcache_sweep(trace=trace, steps=10, capacity_rows=32)
    assert _fields(rows, CACHE_FIELDS) == CACHE_TRACE


SERVE_FIELDS = (
    "source", "policy", "max_batch_requests", "requests", "batches",
    "mean_batch_requests", "sla_ms", "cache_hit_rate",
)


def test_serve_synthetic():
    rows = serving_sweep(
        rates=(200.0,), policies=("single",), num_requests=6, sla_ms=100.0,
        config=TINY_CONFIG, backend="vectorized", hot_cache_rows=16,
    )
    assert _fields(rows, SERVE_FIELDS) == SERVE_SYNTHETIC


def test_serve_policies_share_the_replayed_hit_rate():
    # The hit rate is one replay of the rate's requests, whatever the
    # batching policy — the hill climb's candidate passes included.
    rows = serving_sweep(
        rates=(200.0,), policies=("single", "dynamic", "hill"),
        num_requests=24, config=TINY_CONFIG, backend="vectorized",
        hot_cache_rows=16,
    )
    assert [row.cache_hit_rate.hex() for row in rows] == [
        "0x1.3638e38e38e39p-2"] * 3


def test_serve_trace(tmp_path):
    trace = _trace(tmp_path, HOTCACHE_CONFIG.with_overrides(
        rows_per_table=300), batch=4, steps=5)
    rows = serving_sweep(
        rates=(200.0,), policies=("single",), num_requests=9, sla_ms=100.0,
        trace=trace, backend="vectorized", hot_cache_rows=16,
    )
    assert _fields(rows, SERVE_FIELDS) == SERVE_TRACE


# Recorded by running this file against the commit before the harness.  The
# one-shard overlap cells' exchange bytes were recorded from the one-shard
# trainer before it became the default (the batch-16 row equals the measured
# scaling sweep's one-shard row below).
OVERLAP_SYNTHETIC = [
    {"model": "RM1", "batch": 16, "num_shards": 1, "steps": 2,
     "analytic_speedup": "0x1.2653875a41480p+0", "bit_identical": True,
     "forward_exchange_bytes": 6144, "backward_exchange_bytes": 12288},
    {"model": "RM1", "batch": 16, "num_shards": 2, "steps": 2,
     "analytic_speedup": "0x1.22ebe9da2ecd3p+0", "bit_identical": True,
     "forward_exchange_bytes": 11584, "backward_exchange_bytes": 17728},
]
OVERLAP_TRACE = [
    {"model": "trace:tiny.npz", "batch": 8, "num_shards": 1, "steps": 3,
     "analytic_speedup": "0x1.26129b3e895fep+0", "bit_identical": True,
     "forward_exchange_bytes": 3072, "backward_exchange_bytes": 5376},
]
MEASURED_SCALING = [
    {"model": "RM1", "batch": 16, "policy": "row", "num_shards": 1,
     "backend": "vectorized", "steps": 2,
     "analytic_speedup": "0x1.0000000000000p+0",
     "forward_exchange_bytes": 6144, "backward_exchange_bytes": 12288},
    {"model": "RM1", "batch": 16, "policy": "row", "num_shards": 2,
     "backend": "vectorized", "steps": 2,
     "analytic_speedup": "0x1.d2841c652b3f1p-1",
     "forward_exchange_bytes": 11584, "backward_exchange_bytes": 17728},
    {"model": "RM1", "batch": 32, "policy": "row", "num_shards": 1,
     "backend": "vectorized", "steps": 2,
     "analytic_speedup": "0x1.0000000000000p+0",
     "forward_exchange_bytes": 12288, "backward_exchange_bytes": 24576},
    {"model": "RM1", "batch": 32, "policy": "row", "num_shards": 2,
     "backend": "vectorized", "steps": 2,
     "analytic_speedup": "0x1.d2d7fad497fd6p-1",
     "forward_exchange_bytes": 22656, "backward_exchange_bytes": 34944},
]
CACHE_SYNTHETIC = [
    {"source": "movielens", "policy": "lru", "capacity_rows": 64, "batch": 32,
     "steps": 3, "accesses": 1536,
     "measured_hit_rate": "0x1.ad55555555555p-3",
     "analytic_hit_rate": "0x1.90c8d54b27dc4p-2",
     "delta": "-0x1.743c5540fa633p-3"},
    {"source": "movielens", "policy": "lfu", "capacity_rows": 64, "batch": 32,
     "steps": 3, "accesses": 1536,
     "measured_hit_rate": "0x1.0caaaaaaaaaabp-2",
     "analytic_hit_rate": "0x1.90c8d54b27dc4p-2",
     "delta": "-0x1.083c5540fa632p-3"},
]
#: The synthetic cell at 3 steps of 2 accumulated batches, recorded while
#: the cache experiment still trained; a 6-step replay reads the same.
CACHE_ACCUM = [(3072, "0x1.a155555555555p-3"), (3072, "0x1.2400000000000p-2")]
CACHE_TRACE = [
    {"source": "trace:tiny.npz", "policy": "lru", "capacity_rows": 32,
     "batch": 16, "steps": 3, "accesses": 768,
     "measured_hit_rate": "0x1.5555555555555p-5",
     "analytic_hit_rate": "0x1.c800000000000p-3",
     "delta": "-0x1.72aaaaaaaaaabp-3"},
    {"source": "trace:tiny.npz", "policy": "lfu", "capacity_rows": 32,
     "batch": 16, "steps": 3, "accesses": 768,
     "measured_hit_rate": "0x1.2000000000000p-5",
     "analytic_hit_rate": "0x1.c800000000000p-3",
     "delta": "-0x1.8000000000000p-3"},
]
SERVE_SYNTHETIC = [
    {"source": "criteo", "policy": "single", "max_batch_requests": 1,
     "requests": 6, "batches": 6,
     "mean_batch_requests": "0x1.0000000000000p+0",
     "sla_ms": "0x1.9000000000000p+6",
     "cache_hit_rate": "0x1.18e38e38e38e4p-2"},
]
SERVE_TRACE = [
    {"source": "trace:tiny.npz", "policy": "single", "max_batch_requests": 1,
     "requests": 5, "batches": 5,
     "mean_batch_requests": "0x1.0000000000000p+0",
     "sla_ms": "0x1.9000000000000p+6",
     "cache_hit_rate": "0x1.3333333333333p-6"},
]
