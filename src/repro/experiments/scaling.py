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
:func:`measured_scaling_sweep` trains the same down-scaled DLRM at 1 and at
``N`` shards per batch through the measured-run harness
(:mod:`repro.experiments.measured`), shards inline on the step loop, and
reports the measured 1-shard/N-shard wall-clock ratio next to the analytic
:class:`~repro.runtime.systems.ShardedNMPSystem` N-vs-1 bound.  The host
runs the shards one after another, so the measured ratio prices the
sharding bookkeeping (split, exchange, per-shard launches); the analytic
one is what N concurrent devices would buy.  ``python -m repro scaling
--steps S`` runs it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import List, Sequence, Tuple, TYPE_CHECKING

from ..model.configs import ALL_MODELS, ModelConfig
from ..runtime.systems import ShardedNMPSystem, SystemHardware, compute_workload
from .measured import best_of, scaled_distribution, synthetic_source
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
    """One (batch, shard-count) cell of the measured scaling sweep.

    ``measured_speedup`` is the 1-shard/N-shard wall-clock ratio of the
    same job, both runs inline on the step loop; ``analytic_speedup`` is
    the :class:`ShardedNMPSystem` bound for the same geometry — the N-shard
    makespan relative to 1 shard, i.e. how far N concurrent devices could
    go before the fixed DNN and fabric terms dominate.
    """

    model: str
    batch: int
    policy: str
    num_shards: int
    steps: int
    steps_per_s: float
    measured_speedup: float
    analytic_speedup: float
    forward_exchange_bytes: int
    backward_exchange_bytes: int


def measured_scaling_sweep(
    shard_counts: Sequence[int] = MEASURED_SCALING_SHARDS,
    batches: Sequence[int] = (512,),
    steps: int = 8,
    config: ModelConfig = OVERLAP_CONFIG,
    policy: str = "row",
    dataset: str = "random",
    hardware: SystemHardware | None = None,
    seed: int = 0,
    repeats: int = 3,
    obs: "Observability | None" = None,
) -> List[MeasuredScalingRow]:
    """Measured N-shard vs. 1-shard training across batch × shards.

    For each batch, trains the same identically-seeded down-scaled DLRM at
    1 shard (the reference, trained even when ``shard_counts`` omits it)
    and at every count in ``shard_counts`` through
    :func:`repro.experiments.measured.best_of`, keeping the best wall clock
    of ``repeats`` runs each, and pairs the measured ratio with the
    analytic :class:`ShardedNMPSystem` N-vs-1-shard bound.
    """
    hardware = hardware or SystemHardware()
    distribution = scaled_distribution(dataset, config.rows_per_table)
    make_source = partial(synthetic_source, config, distribution, seed)
    if obs is not None:
        obs.annotate(
            experiment="scaling", dataset=dataset, seed=seed,
            batches=list(batches), shard_counts=list(shard_counts),
            repeats=repeats,
        )

    rows: List[MeasuredScalingRow] = []
    for batch in batches:
        reports = {
            n: best_of(
                config, make_source, batch, steps, repeats, seed=seed,
                obs=obs, num_shards=n, policy=policy,
            ).report
            for n in dict.fromkeys((1, *shard_counts))
        }
        stats = compute_workload(config, batch, dataset=distribution)
        totals = {
            n: ShardedNMPSystem(hardware, num_shards=n, policy=policy)
            .run_iteration(stats).total
            for n in reports
        }
        for num_shards in shard_counts:
            report = reports[num_shards]
            wall = report.wall_seconds
            rows.append(
                MeasuredScalingRow(
                    model=config.name,
                    batch=batch,
                    policy=policy,
                    num_shards=num_shards,
                    steps=report.steps,
                    steps_per_s=report.steps_per_second,
                    measured_speedup=(
                        reports[1].wall_seconds / wall if wall > 0 else 0.0
                    ),
                    analytic_speedup=totals[1] / totals[num_shards],
                    forward_exchange_bytes=report.forward_exchange_bytes,
                    backward_exchange_bytes=report.backward_exchange_bytes,
                )
            )
    return rows


def format_measured_scaling(rows: Sequence[MeasuredScalingRow]) -> str:
    """Render the measured sweep next to the analytic bound."""
    if not rows:
        return "(no rows)"
    headers = [
        "Model", "Batch", "Policy", "Shards", "Inline (it/s)", "Measured",
        "Analytic", "FwdEx (KB)", "BwdEx (KB)",
    ]
    table_rows = []
    for row in rows:
        table_rows.append(
            [
                row.model,
                row.batch,
                row.policy,
                row.num_shards,
                f"{row.steps_per_s:.2f}",
                f"{row.measured_speedup:.2f}x",
                f"{row.analytic_speedup:.2f}x",
                f"{row.forward_exchange_bytes / 1e3:.1f}",
                f"{row.backward_exchange_bytes / 1e3:.1f}",
            ]
        )
    return format_table(headers, table_rows) + (
        "\nMeasured = 1-shard/N-shard wall-clock ratio on this host, shards "
        "run one after another;\nAnalytic = the ShardedNMPSystem "
        "N-vs-1-shard bound for N concurrent devices."
    )
