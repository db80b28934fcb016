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

The sweep is analytic only: the host executes one device, so a measured
N-shard run could only time N shards one after another.  The per-shard
payload the model assumes is checked against the index split it models
(:mod:`repro.core.sharding`, ``tests/core/test_sharding.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..model.configs import ALL_MODELS, ModelConfig
from ..runtime.systems import ShardedNMPSystem, SystemHardware, compute_workload
from .report import format_table

__all__ = [
    "ScalingRow",
    "format_scaling",
    "scaling_sweep",
    "SCALING_SHARDS",
]

#: Default shard counts swept (1 is the Ours(NMP) reference point).
SCALING_SHARDS: Tuple[int, ...] = (1, 2, 4, 8)

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
