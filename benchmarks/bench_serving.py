"""Serving-plane benchmark: the latency/throughput frontier under an SLA.

Sweeps arrival rate x batching policy through :class:`ServingSimulator`
on the virtual clock and reports p50/p95/p99, QPS, and QPS-under-SLA per
cell — the DeepRecSys-style frontier.  The first half drives the
deterministic :class:`FixedLatencyExecutor` (pinned seeds, so every
percentile is exactly reproducible and the batching-wins assertion cannot
flake); the second half serves through the real engine-backed
:class:`EngineExecutor` to time actual DLRM inference forwards.

Set ``BENCH_SMOKE=1`` to shrink every shape to a seconds-long smoke run
with the same structure and assertions.
"""

import os

import numpy as np
from conftest import run_once

from repro.data.arrivals import ArrivalProcess
from repro.data.generator import SyntheticCTRStream
from repro.model import DLRM
from repro.model.configs import RM1
from repro.serving import (
    BatchingPolicy,
    EngineExecutor,
    FixedLatencyExecutor,
    ServingSimulator,
    generate_requests,
    tune_batch_size,
)

SMOKE = bool(os.environ.get("BENCH_SMOKE"))

NUM_REQUESTS = 48 if SMOKE else 400
SAMPLES_PER_REQUEST = 4
RATES = (200.0, 1000.0) if SMOKE else (200.0, 1000.0, 4000.0)
SLA_S = 0.05
SEED = 17

#: Down-scaled geometry for the engine-backed leg — the simulator charges
#: measured forward seconds, so the model just has to be real, not big.
ENGINE_CONFIG = RM1.with_overrides(
    num_tables=2, gathers_per_table=4,
    rows_per_table=2_000 if SMOKE else 20_000,
    bottom_mlp=(16, 8), top_mlp=(8, 1), embedding_dim=8,
)

POLICIES = {
    "single": BatchingPolicy.no_batching(),
    "dynamic": BatchingPolicy(8, 0.002, name="dynamic"),
}


def make_requests(rate, seed=SEED, count=NUM_REQUESTS, config=ENGINE_CONFIG):
    stream = SyntheticCTRStream(
        num_tables=config.num_tables, num_rows=config.rows_per_table,
        lookups_per_sample=config.gathers_per_table,
        dense_features=config.dense_features, seed=seed,
    )
    return generate_requests(
        stream, count, SAMPLES_PER_REQUEST,
        ArrivalProcess(rate, pattern="poisson", seed=seed),
        np.random.default_rng(seed),
    )


def as_row(rate, policy, report):
    return {
        "rate_per_s": rate,
        "policy": policy.name,
        "max_batch_requests": policy.max_batch_requests,
        "max_wait_ms": policy.max_wait_s * 1e3,
        "requests": report.requests,
        "batches": report.batches,
        "p50_ms": report.p50_s * 1e3,
        "p95_ms": report.p95_s * 1e3,
        "p99_ms": report.p99_s * 1e3,
        "qps": report.qps,
        "qps_under_sla": report.qps_under_sla,
        "sla_attainment": report.sla_attainment,
        "sla_met": report.sla_met,
    }


def print_frontier(title, rows):
    print(f"\n[Serving] {title} (SLA {SLA_S * 1e3:g} ms, "
          f"{NUM_REQUESTS} requests x {SAMPLES_PER_REQUEST} samples)")
    print(f"  {'rate':>6s} {'policy':10s} {'batches':>7s} {'p50ms':>7s} "
          f"{'p99ms':>7s} {'QPS':>7s} {'QPS<=SLA':>8s}")
    for row in rows:
        print(f"  {row['rate_per_s']:6.0f} {row['policy']:10s} "
              f"{row['batches']:7d} {row['p50_ms']:7.2f} "
              f"{row['p99_ms']:7.2f} {row['qps']:7.0f} "
              f"{row['qps_under_sla']:8.0f}")


def test_frontier_fixed_latency(benchmark):
    """Deterministic frontier: per-batch cost makes batching win at load."""

    def run():
        executor = FixedLatencyExecutor(0.004, 0.00005)
        rows = []
        for rate in RATES:
            requests = make_requests(rate)
            for policy in POLICIES.values():
                report = ServingSimulator(executor, policy, SLA_S).run(requests)
                rows.append(as_row(rate, policy, report))
            hill_policy, hill_report, _ = tune_batch_size(
                requests, executor, SLA_S, max_wait_s=0.002,
            )
            rows.append(as_row(rate, hill_policy, hill_report))
        return rows

    rows = run_once(benchmark, run)
    print_frontier("FixedLatencyExecutor (4 ms/batch + 50 us/sample)", rows)
    by_cell = {(r["rate_per_s"], r["policy"].split("[")[0]): r for r in rows}
    for rate in RATES:
        assert by_cell[(rate, "single")]["batches"] == NUM_REQUESTS
        for row in rows:
            assert row["requests"] == NUM_REQUESTS
            assert row["p50_ms"] <= row["p99_ms"]
    # At the highest rate single-request service saturates: batching (and
    # the hill climb, which may pick any winning size) must carry more
    # QPS under the SLA than one-at-a-time dispatch.
    top = max(RATES)
    assert (by_cell[(top, "dynamic")]["qps_under_sla"]
            >= by_cell[(top, "single")]["qps_under_sla"])
    assert (by_cell[(top, "hill")]["qps_under_sla"]
            >= by_cell[(top, "single")]["qps_under_sla"])


def test_frontier_engine_executor(benchmark):
    """Engine-backed serving: real DLRM forwards, measured seconds."""

    def run():
        executor = EngineExecutor(
            DLRM(ENGINE_CONFIG, rng=np.random.default_rng(SEED)),
        )
        rows = []
        for rate in RATES:
            requests = make_requests(rate)
            for policy in POLICIES.values():
                executor.reset_metrics()
                report = ServingSimulator(executor, policy, SLA_S).run(requests)
                rows.append(as_row(rate, policy, report))
        return rows

    rows = run_once(benchmark, run)
    print_frontier(
        f"EngineExecutor (DLRM {ENGINE_CONFIG.num_tables} tables x "
        f"{ENGINE_CONFIG.rows_per_table:,} rows)", rows,
    )
    for row in rows:
        assert row["requests"] == NUM_REQUESTS
        assert row["batches"] <= NUM_REQUESTS
        assert row["p50_ms"] > 0
        # Generous virtual-clock SLA: tiny forwards must comfortably fit.
        assert row["sla_met"], (
            f"{row['policy']}@{row['rate_per_s']} blew the "
            f"{SLA_S * 1e3:g} ms SLA: p99 {row['p99_ms']:.2f} ms"
        )
