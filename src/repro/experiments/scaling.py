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

Since the parallel runtime landed, the analytic curves have a measured
counterpart: :func:`measured_scaling_sweep` trains the same down-scaled
DLRM twice per shard count — once through the serial
:class:`~repro.runtime.trainer.FunctionalTrainer`, once with
``schedule="parallel"`` fanning the per-shard work to a real worker pool —
and reports the measured serial/parallel wall-clock ratio next to the
analytic :class:`~repro.runtime.systems.ShardedNMPSystem` bound, plus a
bit-identical flag certifying the speedup never comes from numerical
drift.  ``python -m repro scaling --schedule parallel`` runs it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, TYPE_CHECKING

import numpy as np

from ..data.distributions import LookupDistribution
from ..data.generator import SyntheticCTRStream
from ..model.configs import ALL_MODELS, ModelConfig
from ..model.dlrm import DLRM
from ..model.optim import make_optimizer
from ..runtime.systems import ShardedNMPSystem, SystemHardware, compute_workload
from ..runtime.trainer import FunctionalTrainer, TrainingReport
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
    """One shard-count cell of the measured parallel-vs-serial sweep.

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


def _measured_trainer(
    config: ModelConfig,
    num_shards: int,
    seed: int,
    policy: str,
    backend: str,
    distribution: LookupDistribution | None,
    schedule: str = "serial",
    workers: Optional[int] = None,
) -> Tuple[DLRM, FunctionalTrainer]:
    """Fresh (model, trainer) pair; identical seeds ⇒ identical start state.

    The scaling counterpart of ``overlap._make_trainer``, extended with the
    parallel-schedule knobs (``schedule`` / ``workers``) that the measured
    sweep compares.
    """
    model = DLRM(config, rng=np.random.default_rng(seed), dtype=np.float32)
    distributions = (
        [distribution] * config.num_tables if distribution is not None else None
    )
    stream = SyntheticCTRStream(
        num_tables=config.num_tables,
        num_rows=config.rows_per_table,
        lookups_per_sample=config.gathers_per_table,
        dense_features=config.dense_features,
        distributions=distributions,
        seed=seed,
    )
    trainer = FunctionalTrainer(
        model,
        stream,
        make_optimizer("sgd", lr=0.1),
        num_shards=num_shards,
        policy=policy,
        backend=backend,
        schedule=schedule,
        workers=workers if schedule == "parallel" else None,
    )
    return model, trainer


def _best_measured(
    config: ModelConfig,
    num_shards: int,
    seed: int,
    policy: str,
    backend: str,
    distribution: LookupDistribution | None,
    batch: int,
    steps: int,
    repeats: int,
    schedule: str = "serial",
    workers: Optional[int] = None,
    obs: "Observability | None" = None,
) -> Tuple[DLRM, TrainingReport]:
    """Best wall-clock of ``repeats`` identically-seeded runs.

    Every repeat is numerically identical (fresh model and stream, same
    seeds), so the minimum legitimately samples the same computation; the
    whole report of the fastest run is returned so wall clock and phase
    timings stay mutually consistent.
    """
    best_model: DLRM | None = None
    best_report: TrainingReport | None = None
    for _ in range(repeats):
        model, trainer = _measured_trainer(
            config, num_shards, seed, policy, backend, distribution,
            schedule, workers,
        )
        report = trainer.train(
            batch, steps, np.random.default_rng(seed + 1), obs=obs
        )
        trainer.stream.close()
        if best_report is None or report.wall_seconds < best_report.wall_seconds:
            best_model, best_report = model, report
    assert best_model is not None and best_report is not None
    return best_model, best_report


def measured_scaling_sweep(
    shard_counts: Sequence[int] = MEASURED_SCALING_SHARDS,
    batch: int = 512,
    steps: int = 8,
    config: ModelConfig | None = None,
    policy: str = "row",
    workers: Optional[int] = None,
    backend: str = "vectorized",
    dataset: str = "random",
    hardware: SystemHardware | None = None,
    seed: int = 0,
    repeats: int = 3,
    obs: "Observability | None" = None,
) -> List[MeasuredScalingRow]:
    """Measured serial-vs-parallel shard execution across shard counts.

    For each shard count, trains the same identically-seeded down-scaled
    DLRM twice — shards inline on the step loop vs. fanned out to the
    thread shard executor (:mod:`repro.runtime.parallel`) with ``workers``
    workers (default: one per shard) — keeping the best wall clock of
    ``repeats`` runs each, and pairs the measured ratio with the analytic
    :class:`ShardedNMPSystem` N-vs-1-shard bound.  Losses and every
    parameter tensor of the two runs are compared exactly; the
    ``bit_identical`` flag must hold for the speedup to mean anything.

    ``backend`` defaults to ``"vectorized"`` rather than ``"auto"`` so both
    runs of a pair time the same kernels, not an autotuner's probes.
    """
    if steps <= 0:
        raise ValueError(f"steps must be positive, got {steps}")
    if repeats <= 0:
        raise ValueError(f"repeats must be positive, got {repeats}")
    if batch <= 0:
        raise ValueError(f"batch size must be positive, got {batch}")
    bad_shards = [shards for shards in shard_counts if shards < 1]
    if bad_shards:
        raise ValueError(
            f"measured scaling needs shard counts >= 1, got {bad_shards}"
        )
    from .overlap import OVERLAP_CONFIG, _runs_bit_identical, scaled_distribution

    config = config or OVERLAP_CONFIG
    hardware = hardware or SystemHardware()
    distribution = scaled_distribution(dataset, config.rows_per_table)
    stats = compute_workload(config, batch, dataset=distribution)
    reference = ShardedNMPSystem(hardware, num_shards=1, policy=policy)
    base_total = reference.run_iteration(stats).total
    if obs is not None:
        obs.annotate(
            experiment="scaling", schedule="parallel", dataset=dataset,
            seed=seed, batch=batch, shard_counts=list(shard_counts),
            repeats=repeats,
        )
    # One throwaway step per (shard count, schedule) so no measured cell
    # absorbs thread-pool and cold-cache warm-up costs.
    for warmup_shards in sorted(set(shard_counts)):
        for warmup_schedule in ("serial", "parallel"):
            _, warmup_trainer = _measured_trainer(
                config, warmup_shards, seed, policy, backend, distribution,
                warmup_schedule, workers,
            )
            warmup_trainer.train(8, 1, np.random.default_rng(seed))
            warmup_trainer.stream.close()
    rows: List[MeasuredScalingRow] = []
    for num_shards in shard_counts:
        serial_model, serial = _best_measured(
            config, num_shards, seed, policy, backend, distribution,
            batch, steps, repeats, "serial", obs=obs,
        )
        parallel_model, parallel = _best_measured(
            config, num_shards, seed, policy, backend, distribution,
            batch, steps, repeats, "parallel", workers, obs=obs,
        )
        measured = (
            serial.wall_seconds / parallel.wall_seconds
            if parallel.wall_seconds > 0
            else 0.0
        )
        if num_shards == 1:
            shard_total = base_total
        else:
            shard_total = ShardedNMPSystem(
                hardware, num_shards=num_shards, policy=policy
            ).run_iteration(stats).total
        rows.append(
            MeasuredScalingRow(
                model=config.name,
                batch=batch,
                policy=policy,
                num_shards=num_shards,
                workers=workers or num_shards,
                backend=backend,
                steps=serial.steps,
                serial_steps_per_s=serial.steps_per_second,
                parallel_steps_per_s=parallel.steps_per_second,
                measured_speedup=measured,
                analytic_speedup=base_total / shard_total,
                bit_identical=_runs_bit_identical(
                    serial_model, serial, parallel_model, parallel
                ),
                sync_seconds=parallel.timings.totals.get("sync", 0.0),
                forward_exchange_bytes=parallel.forward_exchange_bytes,
                backward_exchange_bytes=parallel.backward_exchange_bytes,
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
