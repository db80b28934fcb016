"""Latency-bounded serving sweep: arrival rate × batching policy ("serve").

The paper measures *training* throughput; its serving-side relatives
(DeepRecSys, Section II-A's at-scale inference traffic) measure the other
axis: tail latency under production-style arrivals, where the figure of
merit is **QPS under a tail SLA**.  This experiment drives the repo's
forward-only :meth:`~repro.runtime.trainer.FunctionalTrainer.infer` through the
:mod:`repro.serving` plane: a seeded arrival process generates a request
stream, a dynamic batcher coalesces queued requests into engine batches,
and the simulator reports the latency/throughput frontier per
(arrival rate, batching policy) cell — all on a virtual clock, so the
sweep runs faster than the simulated traffic.

Policies swept (``--policies``):

``single``
    no batching — every request dispatches alone (latency floor,
    throughput worst case);
``dynamic``
    the classic two-knob batcher (``--max-batch`` / ``--max-wait-ms``);
``hill``
    DeepRecSys-style hill climb of the batch-size knob against the SLA
    (the reported cell is the climb's winner).

Sources and the seeded float32 model come from the same measured-run
harness as the trainer experiments (:mod:`repro.experiments.measured`): a
named dataset profile rescaled to the serving table height, or a recorded
batch trace (``--trace``), in which case every recorded batch is served
as one request.  ``--resume`` restores a training checkpoint into the
executor's trainer before serving (checkpoint → serve), and the hot-row
cache knobs replay each rate's request stream through an executed cache
(:func:`~repro.model.hot_cache.replay_hit_counts`) — the hit rate is a
property of the ids, so it is the same for every batching policy.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, List, Optional, Sequence, TYPE_CHECKING

import numpy as np

from ..data.arrivals import ArrivalProcess
from ..data.source import BatchSource
from ..model.configs import ModelConfig
from ..model.hot_cache import replay_hit_counts
from ..model.optim import make_optimizer
from ..runtime.checkpoint import load_checkpoint, restore_trainer, save_checkpoint
from ..serving import (
    BatchingPolicy,
    EngineExecutor,
    ServingReport,
    ServingSimulator,
    generate_requests,
    tune_batch_size,
)
from .measured import (
    read_trace,
    scaled_distribution,
    seeded_model,
    synthetic_source,
)
from .overlap import OVERLAP_CONFIG
from .report import format_table

if TYPE_CHECKING:
    from ..obs.session import Observability

__all__ = [
    "SERVING_CONFIG",
    "SERVING_POLICIES",
    "ServingRow",
    "serving_sweep",
    "format_serving",
]

#: The serving model shares the overlap experiment's geometry, so a
#: checkpoint written by ``overlap --checkpoint-dir``, at any shard count,
#: restores directly into ``serve --resume`` (same tables, same MLPs, same
#: float32 dtype).
SERVING_CONFIG: ModelConfig = OVERLAP_CONFIG

#: The batching policies the sweep understands (``--policies`` choices).
SERVING_POLICIES = ("single", "dynamic", "hill")


@dataclass(frozen=True)
class ServingRow:
    """One (arrival rate, batching policy) cell of the serving frontier."""

    source: str
    rate_per_s: float
    policy: str
    max_batch_requests: int
    max_wait_ms: float
    sla_ms: float
    requests: int
    batches: int
    mean_batch_requests: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    mean_queue_wait_ms: float
    qps: float
    qps_under_sla: float
    sla_attainment: float
    sla_met: bool
    cache_hit_rate: Optional[float]


def _row_from_report(
    source: str,
    rate_per_s: float,
    policy_name: str,
    report: ServingReport,
    cache_hit_rate: Optional[float],
) -> ServingRow:
    return ServingRow(
        source=source,
        rate_per_s=rate_per_s,
        policy=policy_name,
        max_batch_requests=report.policy.max_batch_requests,
        max_wait_ms=report.policy.max_wait_s * 1e3,
        sla_ms=report.sla_s * 1e3,
        requests=report.requests,
        batches=report.batches,
        mean_batch_requests=report.mean_batch_requests,
        p50_ms=report.p50_s * 1e3,
        p95_ms=report.p95_s * 1e3,
        p99_ms=report.p99_s * 1e3,
        mean_queue_wait_ms=report.mean_queue_wait_s * 1e3,
        qps=report.qps,
        qps_under_sla=report.qps_under_sla,
        sla_attainment=report.sla_attainment,
        sla_met=report.sla_met,
        cache_hit_rate=cache_hit_rate,
    )


def serving_sweep(
    dataset: str = "criteo",
    rates: Sequence[float] = (100.0, 500.0),
    policies: Sequence[str] = SERVING_POLICIES,
    num_requests: int = 64,
    samples_per_request: int = 4,
    sla_ms: float = 50.0,
    max_batch: int = 8,
    max_wait_ms: float = 2.0,
    pattern: str = "poisson",
    config: ModelConfig = SERVING_CONFIG,
    trace: "str | Path | None" = None,
    seed: int = 0,
    optimizer: str = "sgd",
    lr: float = 0.1,
    checkpoint_dir: "str | Path | None" = None,
    resume: "str | Path | None" = None,
    hot_cache_rows: Optional[int] = None,
    cache_policy: str = "lru",
    obs: "Observability | None" = None,
) -> List[ServingRow]:
    """Sweep arrival rate × batching policy under one tail SLA.

    Every policy at a given rate serves the *identical* request stream
    (same payloads, same arrival schedule — regenerated from the same
    seeds), so the cells differ only in scheduling.  Each cell gets a
    fresh executor around an identically-seeded model: numerics are
    bit-identical across cells.

    ``resume`` restores a checkpoint (e.g. one written by the ``overlap``
    experiment, whose model geometry this sweep shares) into every cell's
    trainer before serving; ``checkpoint_dir`` saves each cell's — frozen,
    never stepped — state as ``serve-{rate}-{policy}.npz`` for round-trip
    testing.  ``hot_cache_rows`` replays each rate's requests, in arrival
    order, once through a cold hot-row cache of that many rows per table
    (``cache_policy``: lru/lfu); every row at that rate carries the
    replay's hit rate.  Batching coalesces requests in arrival order, so
    this is the hit rate a cache on the inference gathers would see.

    ``obs`` traces every cell's simulation: each (rate, policy) cell's
    spans land under the track prefix ``r<rate>-<policy>/`` (the hill
    climb nests its candidates as ``r<rate>-hill/hill<size>/``), so one
    trace file holds the whole frontier.  All timestamps are virtual-clock
    simulation time, so repeated sweeps produce byte-identical traces.
    """
    # Written so that NaN fails each comparison.
    if not sla_ms > 0:
        raise ValueError(f"sla_ms must be positive, got {sla_ms}")
    if not max_wait_ms >= 0:
        raise ValueError(f"max_wait_ms must be non-negative, got {max_wait_ms}")
    if not rates:
        raise ValueError("rates must name at least one arrival rate")
    for rate in rates:
        if not rate > 0:
            raise ValueError(f"arrival rates must be positive, got {rate}")
    if not policies:
        raise ValueError("policies must name at least one batching policy")
    for name in policies:
        if name not in SERVING_POLICIES:
            raise ValueError(
                f"unknown batching policy {name!r}; choose from "
                f"{', '.join(SERVING_POLICIES)}"
            )
    sla_s = sla_ms / 1e3
    max_wait_s = max_wait_ms / 1e3
    checkpoint = load_checkpoint(resume) if resume is not None else None
    make_source: Callable[[], BatchSource]
    if trace is not None:
        cell = read_trace(trace, config, num_requests)
        config, num_requests = cell.config, cell.steps
        # Each recorded batch is served as one request, whatever its size.
        samples_per_request = None
        source_label = cell.label
        make_source = cell.source
    else:
        distribution = scaled_distribution(dataset, config.rows_per_table)
        source_label = dataset
        make_source = partial(synthetic_source, config, distribution, seed)

    def make_executor() -> EngineExecutor:
        executor = EngineExecutor(
            seeded_model(config, seed),
            optimizer=make_optimizer(optimizer, lr=lr),
        )
        if checkpoint is not None:
            restore_trainer(executor.trainer, checkpoint)
        return executor

    if obs is not None:
        obs.annotate(
            experiment="serve", source=source_label, seed=seed,
            sla_ms=sla_ms, rates=[float(r) for r in rates],
            policies=list(policies),
        )
    rows: List[ServingRow] = []
    for rate in rates:
        source = make_source()
        try:
            requests = generate_requests(
                source,
                num_requests,
                samples_per_request,
                ArrivalProcess(rate, pattern=pattern, seed=seed),
                np.random.default_rng(seed + 1),
            )
        finally:
            source.close()
        cache_hit_rate: Optional[float] = None
        if hot_cache_rows is not None:
            hits, accesses = replay_hit_counts(
                (request.data.indices for request in requests),
                hot_cache_rows, cache_policy,
            )
            cache_hit_rate = hits / accesses if accesses else 0.0
        for policy_name in policies:
            executor = make_executor()
            cell_prefix = f"r{rate:g}-{policy_name}/"
            if policy_name == "single":
                report = ServingSimulator(
                    executor, BatchingPolicy.no_batching(), sla_s,
                    obs=obs, track_prefix=cell_prefix,
                ).run(requests)
            elif policy_name == "dynamic":
                report = ServingSimulator(
                    executor,
                    BatchingPolicy(max_batch, max_wait_s, name="dynamic"),
                    sla_s,
                    obs=obs, track_prefix=cell_prefix,
                ).run(requests)
            else:  # hill
                _, report, _ = tune_batch_size(
                    requests,
                    executor,
                    sla_s,
                    max_wait_s,
                    max_batch_requests=max_batch,
                    obs=obs, track_prefix=cell_prefix,
                )
            if checkpoint_dir is not None:
                save_checkpoint(
                    Path(checkpoint_dir) / f"serve-{rate:g}-{policy_name}.npz",
                    executor.trainer,
                    checkpoint.step if checkpoint is not None else 0,
                )
            rows.append(
                _row_from_report(
                    source_label, rate, policy_name, report, cache_hit_rate,
                )
            )
    return rows


def format_serving(rows: Sequence[ServingRow]) -> str:
    """Render the frontier: latency percentiles and QPS-under-SLA per cell."""
    if not rows:
        return "(no rows)"
    headers = [
        "Source", "Rate", "Policy", "MaxB", "Wait(ms)", "Reqs", "Batches",
        "p50(ms)", "p95(ms)", "p99(ms)", "QPS", "QPS<=SLA", "SLA%", "Met",
    ]
    table_rows = []
    for row in rows:
        table_rows.append(
            [
                row.source,
                f"{row.rate_per_s:g}",
                row.policy,
                row.max_batch_requests,
                f"{row.max_wait_ms:.1f}",
                row.requests,
                row.batches,
                f"{row.p50_ms:.2f}",
                f"{row.p95_ms:.2f}",
                f"{row.p99_ms:.2f}",
                f"{row.qps:.0f}",
                f"{row.qps_under_sla:.0f}",
                f"{row.sla_attainment:.0%}",
                "yes" if row.sla_met else "NO",
            ]
        )
    sla_ms = rows[0].sla_ms
    # Every row at a rate carries that rate's one replay; print it once.
    caches = {
        r.rate_per_s: r.cache_hit_rate
        for r in rows if r.cache_hit_rate is not None
    }
    footer = (
        f"\nTail SLA: {sla_ms:g} ms.  QPS<=SLA = requests completing within "
        "the SLA per simulated second\n(the DeepRecSys figure of merit); "
        "latency = queue wait + batch execution on the virtual\nclock.  "
        "'hill' rows report the winning batch size of the climb."
    )
    if caches:
        footer += (
            "\nExecuted hot-row cache hit rate (one replay of each rate's "
            "requests): "
            + ", ".join(
                f"{rate:g}/s {hit:.1%}" for rate, hit in caches.items()
            )
        )
    return format_table(headers, table_rows) + footer
