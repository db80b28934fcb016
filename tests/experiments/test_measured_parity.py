"""Every executed sweep's clock-free row fields, pinned to literals.

The executed sweeps (``overlap``, ``cache``) draw from one measured-run
harness (:mod:`repro.experiments.measured`).  Everything in their rows
that is not derived from a wall clock — bitwise flags, analytic bounds,
cache accesses and hit rates, step counts — is a pure function of the
seeds and shapes, so it is pinned here to literals recorded before the
harness existed.  The cache literals were recorded while the cache still
ran inside the executed runs; replaying the index stream reproduces
them.  Floats are compared exactly, as ``float.hex()`` strings.
"""

import numpy as np

from repro.data.generator import SyntheticCTRStream
from repro.data.trace import record_trace
from repro.experiments.hotcache import HOTCACHE_CONFIG, hotcache_sweep
from repro.experiments.overlap import OVERLAP_CONFIG, overlap_sweep
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
    "model", "batch", "steps", "analytic_speedup", "bit_identical",
)


def test_overlap_synthetic():
    rows = overlap_sweep(
        batches=(16,), steps=2, config=TINY_CONFIG, repeats=1,
    )
    assert _fields(rows, OVERLAP_FIELDS) == OVERLAP_SYNTHETIC


def test_overlap_trace(tmp_path):
    trace = _trace(tmp_path, OVERLAP_CONFIG.with_overrides(
        num_tables=2, rows_per_table=64, gathers_per_table=3,
        bottom_mlp=(4, 16)), batch=8, steps=3)
    rows = overlap_sweep(
        trace=trace, steps=5, repeats=1,
        optimizer="adagrad", lr=0.05,
    )
    assert _fields(rows, OVERLAP_FIELDS) == OVERLAP_TRACE


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


# Recorded by running this file against the commit before the harness.
OVERLAP_SYNTHETIC = [
    {"model": "RM1", "batch": 16, "steps": 2,
     "analytic_speedup": "0x1.2653875a41480p+0", "bit_identical": True},
]
OVERLAP_TRACE = [
    {"model": "trace:tiny.npz", "batch": 8, "steps": 3,
     "analytic_speedup": "0x1.26129b3e895fep+0", "bit_identical": True},
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
