"""Multi-device scaling sweep: speedup and exchange traffic vs. shard count.

Goes beyond the paper's single-node evaluation: the Section IV runtime
co-design is scaled out by partitioning the embedding tables across ``N``
casting-enabled NMP pool nodes (:class:`~repro.runtime.systems.ShardedNMPSystem`)
and sweeping shard count and partition policy.  Two curves matter:

* **speedup** — end-to-end iteration makespan relative to the 1-shard
  configuration (which is schedule-identical to ``Ours(NMP)``), showing how
  far the embedding phases parallelize before the fixed DNN and fabric terms
  dominate;
* **per-device gradient traffic** — the backward all-to-all payload one
  device ingests (:func:`repro.core.traffic.sharded_exchange_bytes`), which
  must shrink monotonically with shard count on a uniform trace because the
  casted index arrays name only the gradient rows each shard owns.

The analytic curves have a measured counterpart:
:func:`measured_scaling_sweep` trains the same down-scaled DLRM twice per
(batch, shard count) cell through the measured-run harness
(:mod:`repro.experiments.measured`) — shards inline on the step loop, then
with ``schedule="parallel"`` fanning the per-shard work to the thread
pool — and reports the measured serial/parallel wall-clock ratio next to
the analytic :class:`~repro.runtime.systems.ShardedNMPSystem` bound, plus
a bit-identical flag certifying the speedup never comes from numerical
drift.  ``python -m repro scaling --schedule parallel`` runs it; it is the
one place the repo measures the thread pool against inline execution.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import partial
from typing import List, Optional, Sequence, Tuple, TYPE_CHECKING

from ..model.configs import ALL_MODELS, ModelConfig
from ..runtime.systems import ShardedNMPSystem, SystemHardware, compute_workload
from .measured import (
    best_of,
    runs_bit_identical,
    scaled_distribution,
    synthetic_source,
)
from .overlap import OVERLAP_CONFIG
from .report import format_table

if TYPE_CHECKING:
    from ..obs.session import Observability

__all__ = [
    "MEASURED_SCALING_SHARDS",
    "MeasuredScalingRow",
    "ScalingRow",
    "format_measured_scaling",
    "format_scaling",
    "measured_scaling_sweep",
    "scaling_sweep",
    "SCALING_SHARDS",
]

#: Default shard counts swept (1 is the Ours(NMP) reference point).
SCALING_SHARDS: Tuple[int, ...] = (1, 2, 4, 8)

#: Default shard counts for the measured (host-trainer) scaling sweep —
#: smaller than the analytic sweep because every point trains a real model.
MEASURED_SCALING_SHARDS: Tuple[int, ...] = (1, 2, 4)

#: Default partition policies compared.
SCALING_POLICIES: Tuple[str, ...] = ("row", "table")


@dataclass(frozen=True)
class ScalingRow:
    """One (model, batch, policy, shard-count) cell of the scaling sweep."""

    model: str
    batch: int
    policy: str
    num_shards: int
    iteration_seconds: float
    speedup: float
    per_device_exchange_bytes: int
    exchange_seconds: float


def scaling_sweep(
    models: Sequence[ModelConfig] = ALL_MODELS,
    batches: Sequence[int] = (4096,),
    shard_counts: Sequence[int] = SCALING_SHARDS,
    policies: Sequence[str] = SCALING_POLICIES,
    dataset: str = "random",
    hardware: SystemHardware | None = None,
) -> List[ScalingRow]:
    """Sweep shard count x partition policy for each (model, batch) pair.

    Speedups are relative to the 1-shard configuration of the *same* policy;
    a 1-shard point is simulated for the reference even when ``shard_counts``
    does not include it.
    """
    hardware = hardware or SystemHardware()
    rows: List[ScalingRow] = []
    for config in models:
        for batch in batches:
            stats = compute_workload(config, batch, dataset=dataset)
            for policy in policies:
                reference = ShardedNMPSystem(hardware, num_shards=1, policy=policy)
                base_result = reference.run_iteration(stats)
                base_total = base_result.total
                for num_shards in shard_counts:
                    if num_shards == 1:
                        system, result = reference, base_result
                    else:
                        system = ShardedNMPSystem(
                            hardware, num_shards=num_shards, policy=policy
                        )
                        result = system.run_iteration(stats)
                    rows.append(
                        ScalingRow(
                            model=config.name,
                            batch=batch,
                            policy=policy,
                            num_shards=num_shards,
                            iteration_seconds=result.total,
                            speedup=base_total / result.total,
                            per_device_exchange_bytes=(
                                system.per_device_exchange_bytes(stats)
                            ),
                            exchange_seconds=(
                                system.per_device_exchange_seconds(stats)
                            ),
                        )
                    )
    return rows


def format_scaling(rows: Sequence[ScalingRow]) -> str:
    """Render the sweep with per-device traffic in MB and speedup columns."""
    if not rows:
        return "(no rows)"
    headers = [
        "Model", "Batch", "Policy", "Shards",
        "Iter (ms)", "Speedup", "Ingest/dev (MB)", "Exchange (us)",
    ]
    table_rows = []
    for row in rows:
        table_rows.append(
            [
                row.model,
                row.batch,
                row.policy,
                row.num_shards,
                f"{row.iteration_seconds * 1e3:.2f}",
                f"{row.speedup:.2f}x",
                f"{row.per_device_exchange_bytes / 1e6:.2f}",
                f"{row.exchange_seconds * 1e6:.1f}",
            ]
        )
    return format_table(headers, table_rows) + (
        "\nIngest/dev = gradient rows + casted index pairs one device absorbs "
        "per iteration;\nExchange covers the fabric-crossing gradient rows "
        "only (pairs stream from the GPU during the casted gather-reduce)."
    )


@dataclass(frozen=True)
class MeasuredScalingRow:
    """One (batch, shard-count) cell of the measured serial-vs-parallel sweep.

    ``measured_speedup`` is the serial/parallel wall-clock ratio at the
    *same* shard count (identical numerical work, different execution);
    ``analytic_speedup`` is the :class:`ShardedNMPSystem` bound for the
    same geometry — the N-shard makespan relative to 1 shard, i.e. how far
    perfect N-way shard parallelism could go before the fixed DNN and
    fabric terms dominate.
    """

    model: str
    batch: int
    policy: str
    num_shards: int
    workers: int
    backend: str
    steps: int
    serial_steps_per_s: float
    parallel_steps_per_s: float
    measured_speedup: float
    analytic_speedup: float
    bit_identical: bool
    #: Barrier time of the parallel run: seconds the main thread spent
    #: blocked on the forward/backward shard barriers.
    sync_seconds: float
    forward_exchange_bytes: int
    backward_exchange_bytes: int


def measured_scaling_sweep(
    shard_counts: Sequence[int] = MEASURED_SCALING_SHARDS,
    batches: Sequence[int] = (512,),
    steps: int = 8,
    config: ModelConfig = OVERLAP_CONFIG,
    policy: str = "row",
    workers: Optional[int] = None,
    backend: str = "vectorized",
    dataset: str = "random",
    hardware: SystemHardware | None = None,
    seed: int = 0,
    repeats: int = 3,
    obs: "Observability | None" = None,
) -> List[MeasuredScalingRow]:
    """Measured serial-vs-parallel shard execution across batch × shards.

    For each (batch, shard count) cell, trains the same identically-seeded
    down-scaled DLRM twice through
    :func:`repro.experiments.measured.best_of` — shards inline on the step
    loop vs. fanned out to the thread shard executor
    (:mod:`repro.runtime.parallel`) with ``workers`` workers (default: one
    per shard) — keeping the best wall clock of ``repeats`` runs each, and
    pairs the measured ratio with the analytic :class:`ShardedNMPSystem`
    N-vs-1-shard bound.  Losses and every parameter tensor of the two runs
    are compared exactly; the ``bit_identical`` flag must hold for the
    speedup to mean anything.

    ``backend`` defaults to ``"vectorized"`` rather than ``"auto"`` so both
    runs of a pair time the same kernels, not an autotuner's probes.
    """
    hardware = hardware or SystemHardware()
    distribution = scaled_distribution(dataset, config.rows_per_table)
    make_source = partial(synthetic_source, config, distribution, seed)
    if obs is not None:
        obs.annotate(
            experiment="scaling", schedule="parallel", dataset=dataset,
            seed=seed, batches=list(batches), shard_counts=list(shard_counts),
            repeats=repeats,
        )
    rows: List[MeasuredScalingRow] = []
    for batch in batches:
        for num_shards in shard_counts:
            serial, parallel = (
                best_of(
                    config, make_source, batch, steps, repeats, seed=seed,
                    obs=obs, num_shards=num_shards, policy=policy,
                    backend=backend, schedule=schedule,
                    workers=workers if schedule == "parallel" else None,
                )
                for schedule in ("serial", "parallel")
            )
            wall = parallel.report.wall_seconds
            stats = compute_workload(config, batch, dataset=distribution)
            base_total, shard_total = (
                ShardedNMPSystem(hardware, num_shards=n, policy=policy)
                .run_iteration(stats).total
                for n in (1, num_shards)
            )
            rows.append(
                MeasuredScalingRow(
                    model=config.name,
                    batch=batch,
                    policy=policy,
                    num_shards=num_shards,
                    workers=workers or num_shards,
                    backend=backend,
                    steps=serial.report.steps,
                    serial_steps_per_s=serial.report.steps_per_second,
                    parallel_steps_per_s=parallel.report.steps_per_second,
                    measured_speedup=(
                        serial.report.wall_seconds / wall if wall > 0 else 0.0
                    ),
                    analytic_speedup=base_total / shard_total,
                    bit_identical=runs_bit_identical(serial, parallel),
                    sync_seconds=parallel.report.timings.totals.get(
                        "sync", 0.0
                    ),
                    forward_exchange_bytes=(
                        parallel.report.forward_exchange_bytes
                    ),
                    backward_exchange_bytes=(
                        parallel.report.backward_exchange_bytes
                    ),
                )
            )
    return rows


def format_measured_scaling(rows: Sequence[MeasuredScalingRow]) -> str:
    """Render the measured sweep next to the analytic bound."""
    if not rows:
        return "(no rows)"
    headers = [
        "Model", "Batch", "Policy", "Shards", "Workers",
        "Serial (it/s)", "Parallel (it/s)", "Speedup", "Analytic",
        "Sync (ms)", "Bitwise", "FwdEx (KB)", "BwdEx (KB)",
    ]
    table_rows = []
    for row in rows:
        table_rows.append(
            [
                row.model,
                row.batch,
                row.policy,
                row.num_shards,
                row.workers,
                f"{row.serial_steps_per_s:.2f}",
                f"{row.parallel_steps_per_s:.2f}",
                f"{row.measured_speedup:.2f}x",
                f"{row.analytic_speedup:.2f}x",
                f"{row.sync_seconds * 1e3:.1f}",
                "OK" if row.bit_identical else "DIVERGED",
                f"{row.forward_exchange_bytes / 1e3:.1f}",
                f"{row.backward_exchange_bytes / 1e3:.1f}",
            ]
        )
    cores = os.cpu_count() or 1
    return format_table(headers, table_rows) + (
        "\nSpeedup = measured serial/parallel wall-clock ratio at the same "
        "shard count; Analytic = the\nShardedNMPSystem N-vs-1-shard bound "
        "for the same geometry.  Bitwise OK means the parallel\nrun's "
        "losses and parameters match the serial run exactly.  Sync = time "
        "the main thread spent\nblocked on the forward/backward shard "
        "barriers.\n"
        f"Host cores: {cores} — measured scaling needs one core per worker; "
        "on a single-core host expect\nparity (the bitwise flag and the "
        "barrier accounting still certify the schedule)."
    )
