"""The paper's four system design points as schedulable models (Section VI).

Builds one training iteration's timeline for each system the evaluation
compares:

* ``Baseline(CPU)`` — :class:`CPUGPUSystem` without casting: the
  CPU-centric hybrid of Figure 3 (embeddings on the host, DNN on the GPU);
* ``Baseline(NMP)`` — :class:`NMPSystem` without casting: TensorDIMM-style
  acceleration of gather-reduce and scatter only, expand-coalesce still on
  the CPU (Figure 12's caption);
* ``Ours(CPU)`` — :class:`CPUGPUSystem` with Tensor Casting, the casting
  stage hidden under the forward gather on the otherwise-idle GPU
  (Figure 9(b) top);
* ``Ours(NMP)`` — :class:`NMPSystem` with Tensor Casting, the full
  memory-centric co-design (Figure 9(b) bottom, Figure 10);

plus :class:`CPUOnlySystem` for the Figure 4 characterization.

Every system consumes a :class:`WorkloadStats` — the batch geometry
(lookups ``n``, expected coalesced rows ``u``, gradient-table rows ``B``)
derived from a Table II model and a dataset locality profile — and returns
an :class:`IterationResult` carrying both the accumulated per-primitive
breakdown (Figures 4/12) and the end-to-end makespan (Figure 13).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List

from ..core.sharding import PARTITION_POLICIES
from ..core.traffic import expected_shard_outputs, sharded_exchange_bytes
from ..data.datasets import get_dataset
from ..data.distributions import LookupDistribution, UniformDistribution
from ..model.configs import ModelConfig
from ..sim.cpu import CPUModel
from ..sim.gpu import GPUModel
from ..sim.interconnect import AllToAll, Link
from ..sim.nmp import NMPPoolModel
from ..sim.specs import DEFAULT_NMP_LINK, PCIE_GEN3
from .timeline import (
    RESOURCE_CPU,
    RESOURCE_GPU,
    RESOURCE_LINK,
    RESOURCE_NMP,
    RESOURCE_PCIE,
    Span,
    Timeline,
)

__all__ = [
    "OP_FWD_GATHER",
    "OP_FWD_DNN",
    "OP_BWD_DNN",
    "OP_BWD_EXPAND",
    "OP_BWD_SORT",
    "OP_BWD_ACCU",
    "OP_BWD_SCATTER",
    "OP_CASTING",
    "OP_BWD_TCAST",
    "OP_CAST_XFER",
    "OP_EXCHANGE",
    "WorkloadStats",
    "compute_workload",
    "SystemHardware",
    "IterationResult",
    "TrainingSystem",
    "CPUOnlySystem",
    "CPUGPUSystem",
    "NMPSystem",
    "ShardedNMPSystem",
    "design_points",
]

# Breakdown keys, named after the paper's Figure 4/12 legend entries.
OP_FWD_GATHER = "FWD (Gather)"
OP_FWD_DNN = "FWD (DNN)"
OP_BWD_DNN = "BWD (DNN)"
OP_BWD_EXPAND = "BWD (Expand)"
OP_BWD_SORT = "BWD (Coalesce:sort)"
OP_BWD_ACCU = "BWD (Coalesce:accu)"
OP_BWD_SCATTER = "BWD (Scatter)"
OP_CASTING = "FWD (Casting)"
OP_BWD_TCAST = "BWD (T.Casted Gather)"
OP_CAST_XFER = "FWD (Casting:xfer)"
OP_EXCHANGE = "All-to-all"
_OP_XFER = "Transfer"


@dataclass(frozen=True)
class WorkloadStats:
    """Geometry of one training iteration, aggregated over all tables.

    ``n`` is the total lookup count, ``u`` the expected distinct rows touched
    (the coalesced-gradient row count), ``num_outputs`` the gradient-table
    height ``B`` (= tables x batch for pooled embedding bags).
    """

    model: ModelConfig
    batch: int
    n: int
    u: int
    num_outputs: int
    dim: int
    itemsize: int = 4
    #: DLRM ships int32 lookup indices; pairs are 8 bytes on the wire.
    index_itemsize: int = 4
    optimizer: str = "sgd"

    def __post_init__(self) -> None:
        if min(self.batch, self.n, self.num_outputs, self.dim) <= 0:
            raise ValueError("batch, n, num_outputs and dim must be positive")
        if not 0 < self.u <= self.n:
            raise ValueError(f"u must lie in (0, n]; got u={self.u}, n={self.n}")

    @property
    def vec_bytes(self) -> int:
        """Bytes of one embedding/gradient vector."""
        return self.dim * self.itemsize

    @property
    def index_bytes(self) -> int:
        """Bytes of the full (src, dst) pair array."""
        return 2 * self.n * self.index_itemsize

    @property
    def gradient_table_bytes(self) -> int:
        """Bytes of the backpropagated gradient table (B x dim)."""
        return self.num_outputs * self.vec_bytes

    @property
    def coalesced_bytes(self) -> int:
        """Bytes of the coalesced gradients (u x dim)."""
        return self.u * self.vec_bytes

    @property
    def dense_input_bytes(self) -> int:
        """Bytes of the continuous-feature input batch."""
        return self.batch * self.model.dense_features * self.itemsize


def compute_workload(
    config: ModelConfig,
    batch: int,
    dataset: str | LookupDistribution = "random",
    dim: int | None = None,
    optimizer: str = "sgd",
) -> WorkloadStats:
    """Derive iteration geometry from a model config and a locality profile.

    ``dataset`` may be a registered profile name (``"random"``, ``"amazon"``,
    ...) or any :class:`LookupDistribution`.  The ``"random"`` control uses a
    uniform distribution over the *config's* table height (DLRM's synthetic
    default); named profiles use their own calibrated catalog size.  The
    coalesced row count ``u`` is the analytic expectation, keeping every
    experiment deterministic.
    """
    if batch <= 0:
        raise ValueError(f"batch must be positive, got {batch}")
    if dim is not None and dim != config.embedding_dim:
        config = config.with_overrides(embedding_dim=dim)
    if isinstance(dataset, LookupDistribution):
        distribution = dataset
    elif dataset == "random":
        distribution = UniformDistribution(config.rows_per_table)
    else:
        distribution = get_dataset(dataset).distribution()
    lookups_per_table = batch * config.gathers_per_table
    unique_per_table = distribution.expected_unique(lookups_per_table)
    return WorkloadStats(
        model=config,
        batch=batch,
        n=config.num_tables * lookups_per_table,
        u=max(1, int(round(config.num_tables * unique_per_table))),
        num_outputs=config.num_tables * batch,
        dim=config.embedding_dim,
        optimizer=optimizer,
    )


@dataclass
class SystemHardware:
    """The device models shared by all design points of one study."""

    cpu: CPUModel = field(default_factory=CPUModel)
    gpu: GPUModel = field(default_factory=GPUModel)
    nmp: NMPPoolModel = field(default_factory=NMPPoolModel)
    pcie: Link = field(default_factory=lambda: Link(PCIE_GEN3))
    nmp_link: Link = field(default_factory=lambda: Link(DEFAULT_NMP_LINK))

    def with_nmp_link(self, link: Link) -> "SystemHardware":
        """Same hardware with a different GPU-pool link (bandwidth sweeps)."""
        return replace(self, nmp_link=link)


@dataclass(frozen=True)
class IterationResult:
    """Outcome of simulating one training iteration on one system."""

    system: str
    stats: WorkloadStats
    timeline: Timeline
    total: float
    breakdown: Dict[str, float]

    def primitive_latency(self, *ops: str) -> float:
        """Accumulated latency of the named breakdown entries."""
        return sum(self.breakdown.get(op, 0.0) for op in ops)

    def expand_coalesce_latency(self) -> float:
        """Baseline bottleneck: expand + sort + accumulate."""
        return self.primitive_latency(OP_BWD_EXPAND, OP_BWD_SORT, OP_BWD_ACCU)

    def casting_path_latency(self) -> float:
        """Casted equivalent: index staging + casting + casted gather-reduce.

        Includes the PCIe index-array movement because the paper treats the
        whole decoupled "casting stage" (Figure 9(b)'s red segment) as one
        unit when reporting the Figure 12 benefit.
        """
        return self.primitive_latency(OP_CASTING, OP_BWD_TCAST, OP_CAST_XFER)


def _dnn_layer_count(config: ModelConfig) -> int:
    """Kernel launches per DNN pass: every linear layer plus glue kernels."""
    linear = (len(config.bottom_mlp) - 1) + (len(config.top_mlp_sizes()) - 1)
    return linear + 3  # activations fused; +interaction, +loss, +copy glue


def _dnn_activation_bytes(config: ModelConfig, batch: int, itemsize: int) -> int:
    """Activation traffic of one forward pass (read input + write output)."""
    widths = list(config.bottom_mlp) + [config.interaction_dim()]
    widths += list(config.top_mlp_sizes())[1:]
    return 2 * batch * sum(widths) * itemsize


def _dnn_param_bytes(config: ModelConfig, itemsize: int) -> int:
    """Weight traffic of one pass (each GEMM streams its weights once)."""
    count = 0
    widths = config.bottom_mlp
    count += sum(a * b for a, b in zip(widths[:-1], widths[1:]))
    widths = config.top_mlp_sizes()
    count += sum(a * b for a, b in zip(widths[:-1], widths[1:]))
    return count * itemsize


class TrainingSystem:
    """Base class: one schedulable recommendation-training design point."""

    name = "abstract"

    def __init__(self, hardware: SystemHardware | None = None) -> None:
        self.hardware = hardware or SystemHardware()

    def run_iteration(self, stats: WorkloadStats) -> IterationResult:
        """Simulate one iteration, returning timeline + breakdown + makespan."""
        timeline = Timeline()
        self._schedule_iteration(stats, timeline, prev_update=None)
        timeline.validate()
        return IterationResult(
            system=self.name,
            stats=stats,
            timeline=timeline,
            total=timeline.makespan(),
            breakdown=timeline.breakdown(),
        )

    def run_pipeline(self, stats: WorkloadStats, iterations: int) -> IterationResult:
        """Simulate ``iterations`` back-to-back steps with software pipelining.

        Successive iterations overlap wherever resources and data
        dependencies permit: iteration ``i+1``'s index upload and casting run
        while iteration ``i`` still occupies the embedding engine, but its
        forward gather must wait for iteration ``i``'s scatter (it reads the
        rows that scatter updates).  This is the steady-state training regime
        over which the paper measures NMP utilization (Figure 15).
        """
        if iterations <= 0:
            raise ValueError(f"iterations must be positive, got {iterations}")
        timeline = Timeline()
        prev_update = None
        for _ in range(iterations):
            prev_update = self._schedule_iteration(stats, timeline, prev_update)
        timeline.validate()
        return IterationResult(
            system=self.name,
            stats=stats,
            timeline=timeline,
            total=timeline.makespan(),
            breakdown=timeline.breakdown(),
        )

    def _schedule_iteration(
        self,
        stats: WorkloadStats,
        timeline: Timeline,
        prev_update: "Span | List[Span] | None",
    ) -> "Span | List[Span]":
        """Append one iteration's spans; returns the model-update span(s)."""
        raise NotImplementedError

    # Shared DNN helpers ------------------------------------------------
    def _dnn_times(self, stats: WorkloadStats) -> tuple[float, float, int]:
        """(forward seconds, backward seconds, launches) on the GPU model."""
        config = stats.model
        layers = _dnn_layer_count(config)
        touched = _dnn_activation_bytes(config, stats.batch, stats.itemsize)
        touched += _dnn_param_bytes(config, stats.itemsize)
        fwd = self.hardware.gpu.time_dnn(
            config.mlp_forward_flops(stats.batch), layers, touched
        )
        bwd = self.hardware.gpu.time_dnn(
            config.mlp_backward_flops(stats.batch), layers, 2 * touched
        )
        return fwd, bwd, layers


class CPUOnlySystem(TrainingSystem):
    """Everything on the host (Section II-C's ``CPU-only``).

    With ``casting=True`` the backward expand-coalesce is replaced by the
    casted gather-reduce, with the casting stage itself also on the CPU —
    there is no idle accelerator to hide it under, so it sits on the
    critical path (it still wins: the cast costs about one sort and it
    eliminates both the expand and the accumulate).  The paper notes its
    proposal applies to CPU-centric designs too (Section IV-C); this is the
    all-host limit of that observation.
    """

    def __init__(
        self, hardware: SystemHardware | None = None, casting: bool = False
    ) -> None:
        super().__init__(hardware)
        self.casting = casting
        self.name = "CPU-only (T.Casting)" if casting else "CPU-only"

    def _schedule_iteration(
        self,
        stats: WorkloadStats,
        timeline: Timeline,
        prev_update: "Span | List[Span] | None",
    ) -> "Span | List[Span]":
        cpu = self.hardware.cpu
        config = stats.model
        touched = _dnn_activation_bytes(config, stats.batch, stats.itemsize)
        touched += _dnn_param_bytes(config, stats.itemsize)
        timeline.schedule(
            RESOURCE_CPU, OP_FWD_GATHER,
            cpu.time_gather_reduce(stats.n, stats.num_outputs, stats.dim, stats.itemsize),
            after=prev_update, category="fwd",
        )
        if self.casting:
            timeline.schedule(
                RESOURCE_CPU, OP_CASTING, cpu.time_casting(stats.n), category="cast"
            )
        timeline.schedule(
            RESOURCE_CPU, OP_FWD_DNN,
            cpu.time_mlp(config.mlp_forward_flops(stats.batch), touched),
            category="dnn",
        )
        timeline.schedule(
            RESOURCE_CPU, OP_BWD_DNN,
            cpu.time_mlp(config.mlp_backward_flops(stats.batch), 2 * touched),
            category="dnn",
        )
        if self.casting:
            timeline.schedule(
                RESOURCE_CPU, OP_BWD_TCAST,
                cpu.time_casted_gather_reduce(
                    stats.n, stats.u, stats.num_outputs, stats.dim, stats.itemsize
                ),
                category="bwd",
            )
        else:
            timeline.schedule(
                RESOURCE_CPU, OP_BWD_EXPAND,
                cpu.time_expand(stats.n, stats.num_outputs, stats.dim, stats.itemsize),
                category="bwd",
            )
            timeline.schedule(
                RESOURCE_CPU, OP_BWD_SORT, cpu.time_sort(stats.n), category="bwd"
            )
            timeline.schedule(
                RESOURCE_CPU, OP_BWD_ACCU,
                cpu.time_coalesce_accumulate(stats.n, stats.u, stats.dim, stats.itemsize),
                category="bwd",
            )
        return timeline.schedule(
            RESOURCE_CPU, OP_BWD_SCATTER,
            cpu.time_scatter(stats.u, stats.dim, stats.itemsize, stats.optimizer),
            category="bwd",
        )


class CPUGPUSystem(TrainingSystem):
    """Hybrid CPU-GPU system, optionally co-designed with Tensor Casting.

    ``casting=False`` is the paper's ``Baseline(CPU)``; ``casting=True`` is
    ``Ours(CPU)`` — identical hardware, with the backward expand-coalesce
    replaced by the casted gather-reduce and the casting stage scheduled on
    the GPU concurrently with the CPU-side forward gather (Figure 9(b)).
    """

    def __init__(
        self, hardware: SystemHardware | None = None, casting: bool = False
    ) -> None:
        super().__init__(hardware)
        self.casting = casting
        self.name = "Ours(CPU)" if casting else "Baseline(CPU)"

    def _schedule_iteration(
        self,
        stats: WorkloadStats,
        timeline: Timeline,
        prev_update: "Span | List[Span] | None",
    ) -> "Span | List[Span]":
        cpu, gpu = self.hardware.cpu, self.hardware.gpu
        pcie = self.hardware.pcie
        fwd_dnn, bwd_dnn, _ = self._dnn_times(stats)

        cast_done = None
        if self.casting:
            # Index arrays ship to the GPU at iteration start; the cast runs
            # while the CPU is busy gathering - the hidden stage.
            index_up = timeline.schedule(
                RESOURCE_PCIE, OP_CAST_XFER, pcie.transfer_time(stats.index_bytes),
                category="cast", bytes_moved=stats.index_bytes,
            )
            cast = timeline.schedule(
                RESOURCE_GPU, OP_CASTING, gpu.time_casting(stats.n),
                after=index_up, category="cast",
            )
            cast_down = timeline.schedule(
                RESOURCE_PCIE, OP_CAST_XFER, pcie.transfer_time(stats.index_bytes),
                after=cast, category="cast", bytes_moved=stats.index_bytes,
            )
            cast_done = cast_down

        gather = timeline.schedule(
            RESOURCE_CPU, OP_FWD_GATHER,
            cpu.time_gather_reduce(stats.n, stats.num_outputs, stats.dim, stats.itemsize),
            after=prev_update, category="fwd",
        )
        inputs_bytes = stats.dense_input_bytes + stats.gradient_table_bytes
        inputs_up = timeline.schedule(
            RESOURCE_PCIE, _OP_XFER, pcie.transfer_time(inputs_bytes),
            after=gather, category="xfer", bytes_moved=inputs_bytes,
        )
        dnn_f = timeline.schedule(
            RESOURCE_GPU, OP_FWD_DNN, fwd_dnn, after=inputs_up, category="dnn"
        )
        dnn_b = timeline.schedule(
            RESOURCE_GPU, OP_BWD_DNN, bwd_dnn, after=dnn_f, category="dnn"
        )
        grads_down = timeline.schedule(
            RESOURCE_PCIE, _OP_XFER, pcie.transfer_time(stats.gradient_table_bytes),
            after=dnn_b, category="xfer", bytes_moved=stats.gradient_table_bytes,
        )

        if self.casting:
            deps = [grads_down] + ([cast_done] if cast_done else [])
            tcast = timeline.schedule(
                RESOURCE_CPU, OP_BWD_TCAST,
                cpu.time_casted_gather_reduce(
                    stats.n, stats.u, stats.num_outputs, stats.dim, stats.itemsize
                ),
                after=deps, category="bwd",
            )
            scatter_after = tcast
        else:
            expand = timeline.schedule(
                RESOURCE_CPU, OP_BWD_EXPAND,
                cpu.time_expand(stats.n, stats.num_outputs, stats.dim, stats.itemsize),
                after=grads_down, category="bwd",
            )
            sort = timeline.schedule(
                RESOURCE_CPU, OP_BWD_SORT, cpu.time_sort(stats.n),
                after=expand, category="bwd",
            )
            accu = timeline.schedule(
                RESOURCE_CPU, OP_BWD_ACCU,
                cpu.time_coalesce_accumulate(stats.n, stats.u, stats.dim, stats.itemsize),
                after=sort, category="bwd",
            )
            scatter_after = accu
        return timeline.schedule(
            RESOURCE_CPU, OP_BWD_SCATTER,
            cpu.time_scatter(stats.u, stats.dim, stats.itemsize, stats.optimizer),
            after=scatter_after, category="bwd",
        )


class NMPSystem(TrainingSystem):
    """Memory-centric system with the Table I NMP pool (Figure 10).

    ``casting=False`` is ``Baseline(NMP)`` — TensorDIMM acceleration of
    gather-reduce and scatter with expand-coalesce still CPU-resident, which
    forces the gradient round trip GPU -> CPU -> pool; ``casting=True`` is
    the full co-design ``Ours(NMP)``, where the casted gather-reduce runs on
    the pool against the link-staged gradient table.
    """

    def __init__(
        self, hardware: SystemHardware | None = None, casting: bool = False
    ) -> None:
        super().__init__(hardware)
        self.casting = casting
        self.name = "Ours(NMP)" if casting else "Baseline(NMP)"

    def _schedule_iteration(
        self,
        stats: WorkloadStats,
        timeline: Timeline,
        prev_update: "Span | List[Span] | None",
    ) -> "Span | List[Span]":
        cpu, gpu, nmp = self.hardware.cpu, self.hardware.gpu, self.hardware.nmp
        pcie, link = self.hardware.pcie, self.hardware.nmp_link
        fwd_dnn, bwd_dnn, _ = self._dnn_times(stats)

        cast = None
        if self.casting:
            index_up = timeline.schedule(
                RESOURCE_PCIE, OP_CAST_XFER, pcie.transfer_time(stats.index_bytes),
                category="cast", bytes_moved=stats.index_bytes,
            )
            cast = timeline.schedule(
                RESOURCE_GPU, OP_CASTING, gpu.time_casting(stats.n),
                after=index_up, category="cast",
            )

        gather = timeline.schedule(
            RESOURCE_NMP, OP_FWD_GATHER,
            nmp.time_gather_reduce(stats.n, stats.num_outputs, stats.dim, stats.itemsize),
            after=prev_update, category="fwd",
            bytes_moved=(stats.n + stats.num_outputs) * stats.vec_bytes,
        )
        emb_to_gpu = timeline.schedule(
            RESOURCE_LINK, _OP_XFER, link.transfer_time(stats.gradient_table_bytes),
            after=gather, category="xfer", bytes_moved=stats.gradient_table_bytes,
        )
        dense_up = timeline.schedule(
            RESOURCE_PCIE, _OP_XFER, pcie.transfer_time(stats.dense_input_bytes),
            category="xfer", bytes_moved=stats.dense_input_bytes,
        )
        dnn_f = timeline.schedule(
            RESOURCE_GPU, OP_FWD_DNN, fwd_dnn,
            after=[emb_to_gpu, dense_up], category="dnn",
        )
        dnn_b = timeline.schedule(
            RESOURCE_GPU, OP_BWD_DNN, bwd_dnn, after=dnn_f, category="dnn"
        )

        if self.casting:
            # The gradient table streams over the link and is staged into
            # rank DRAM as it arrives (cut-through), so one pipelined span
            # covers both at the slower of the two rates.
            stage_time = max(
                link.transfer_time(stats.gradient_table_bytes),
                nmp.time_stage(stats.gradient_table_bytes),
            )
            stage = timeline.schedule(
                RESOURCE_LINK, _OP_XFER, stage_time,
                after=dnn_b, category="xfer", bytes_moved=stats.gradient_table_bytes,
            )
            # The casted index array likewise streams over the link while the
            # NMP consumes it chunk-by-chunk, so delivery pipelines with
            # execution: the op runs at the slower of the two rates.
            tcast_time = max(
                nmp.time_casted_gather_reduce(stats.n, stats.u, stats.dim, stats.itemsize),
                link.bandwidth_bound_time(stats.index_bytes),
            )
            tcast = timeline.schedule(
                RESOURCE_NMP, OP_BWD_TCAST, tcast_time,
                after=[stage, cast], category="bwd",
                bytes_moved=(stats.n + stats.u) * stats.vec_bytes,
            )
            scatter_after = tcast
        else:
            grads_to_cpu = timeline.schedule(
                RESOURCE_PCIE, _OP_XFER, pcie.transfer_time(stats.gradient_table_bytes),
                after=dnn_b, category="xfer", bytes_moved=stats.gradient_table_bytes,
            )
            expand = timeline.schedule(
                RESOURCE_CPU, OP_BWD_EXPAND,
                cpu.time_expand(stats.n, stats.num_outputs, stats.dim, stats.itemsize),
                after=grads_to_cpu, category="bwd",
            )
            sort = timeline.schedule(
                RESOURCE_CPU, OP_BWD_SORT, cpu.time_sort(stats.n),
                after=expand, category="bwd",
            )
            accu = timeline.schedule(
                RESOURCE_CPU, OP_BWD_ACCU,
                cpu.time_coalesce_accumulate(stats.n, stats.u, stats.dim, stats.itemsize),
                after=sort, category="bwd",
            )
            # The pool node hangs off the system fabric (Figure 10): the
            # host reaches it over one link hop with the coalesced payload.
            coal_to_pool = timeline.schedule(
                RESOURCE_LINK, _OP_XFER, link.transfer_time(stats.coalesced_bytes),
                after=accu, category="xfer", bytes_moved=stats.coalesced_bytes,
            )
            scatter_after = coal_to_pool
        return timeline.schedule(
            RESOURCE_NMP, OP_BWD_SCATTER,
            nmp.time_scatter(stats.u, stats.dim, stats.itemsize, stats.optimizer),
            after=scatter_after, category="bwd",
            bytes_moved=3 * stats.u * stats.vec_bytes,
        )


class ShardedNMPSystem(TrainingSystem):
    """``N`` casting-enabled NMP pool nodes with all-to-all embedding exchange.

    Scale-out extension of ``Ours(NMP)`` beyond the paper: the embedding
    tables are partitioned across ``num_shards`` pool nodes (row-wise or
    table-wise, per :mod:`repro.core.sharding`), each node runs the forward
    gather and the Tensor-Casted backward over its slice, and pooled
    vectors/gradient rows cross a symmetric fabric modeled by
    :class:`repro.sim.interconnect.AllToAll`.  The casted index arrays keep
    the exchange compact — each node receives only the gradient-table rows
    its casted sub-arrays name, the byte count of
    :func:`repro.core.traffic.sharded_exchange_bytes`.

    With ``num_shards=1`` the exchange collapses to zero-duration spans and
    the schedule reduces to exactly ``Ours(NMP)``'s.  The model is
    analytic only: the functional trainer runs one device.
    """

    def __init__(
        self,
        hardware: SystemHardware | None = None,
        num_shards: int = 1,
        policy: str = "row",
    ) -> None:
        super().__init__(hardware)
        if num_shards <= 0:
            raise ValueError(f"num_shards must be positive, got {num_shards}")
        if policy not in PARTITION_POLICIES:
            raise ValueError(
                f"unknown partition policy {policy!r}; expected one of "
                f"{sorted(PARTITION_POLICIES)}"
            )
        self.num_shards = int(num_shards)
        self.policy = policy
        self.name = f"Sharded(NMP,{policy}x{num_shards})"

    def fabric_for(self, stats: WorkloadStats) -> AllToAll:
        """The all-to-all fabric among the shards this workload engages."""
        return AllToAll(self.hardware.nmp_link.spec, self.effective_shards(stats))

    def per_device_exchange_seconds(self, stats: WorkloadStats) -> float:
        """Backward all-to-all completion time for one iteration.

        Covers the gradient rows only — the fabric payload of the schedule's
        exchange span.  The casted pair arrays, though part of
        :meth:`per_device_exchange_bytes` (a per-device *ingest* metric),
        stream from the GPU during the casted gather-reduce and never cross
        the inter-shard fabric.
        """
        return self.fabric_for(stats).exchange_time(
            self.shard_outputs(stats) * stats.vec_bytes
        )

    # -- per-shard geometry ---------------------------------------------
    def effective_shards(self, stats: WorkloadStats) -> int:
        """Shards that actually hold embedding rows of this workload.

        Table-wise placement cannot engage more shards than there are
        tables; extra shards sit idle, so per-shard work and traffic stop
        shrinking there.
        """
        if self.policy == "table":
            return min(self.num_shards, stats.model.num_tables)
        return self.num_shards

    def shard_lookups(self, stats: WorkloadStats) -> int:
        """Lookups ``n_s`` one busy shard executes per iteration."""
        return max(1, -(-stats.n // self.effective_shards(stats)))

    def shard_coalesced(self, stats: WorkloadStats) -> int:
        """Coalesced gradient rows ``u_s`` one busy shard scatters."""
        return max(1, round(stats.u / self.effective_shards(stats)))

    def shard_outputs(self, stats: WorkloadStats) -> int:
        """Gradient-table rows one shard touches (its exchange payload)."""
        return max(
            1,
            round(
                expected_shard_outputs(
                    stats.n, stats.num_outputs, self.effective_shards(stats),
                    self.policy,
                )
            ),
        )

    def per_device_exchange_bytes(self, stats: WorkloadStats) -> int:
        """Backward all-to-all bytes one device ingests (gradient rows + pairs)."""
        return sharded_exchange_bytes(
            stats.n,
            stats.num_outputs,
            stats.dim,
            itemsize=stats.itemsize,
            index_itemsize=stats.index_itemsize,
            num_shards=self.effective_shards(stats),
            policy=self.policy,
        )

    def _schedule_iteration(
        self,
        stats: WorkloadStats,
        timeline: Timeline,
        prev_update: "Span | List[Span] | None",
    ) -> "Span | List[Span]":
        gpu, nmp = self.hardware.gpu, self.hardware.nmp
        pcie, link = self.hardware.pcie, self.hardware.nmp_link
        fwd_dnn, bwd_dnn, _ = self._dnn_times(stats)
        shards = self.effective_shards(stats)
        fabric = self.fabric_for(stats)
        n_s = self.shard_lookups(stats)
        u_s = self.shard_coalesced(stats)
        touched_s = self.shard_outputs(stats)
        pair_bytes_s = 2 * n_s * stats.index_itemsize

        index_up = timeline.schedule(
            RESOURCE_PCIE, OP_CAST_XFER, pcie.transfer_time(stats.index_bytes),
            category="cast", bytes_moved=stats.index_bytes,
        )
        cast = timeline.schedule(
            RESOURCE_GPU, OP_CASTING, gpu.time_casting(stats.n),
            after=index_up, category="cast",
        )

        # Forward: every pool node gathers its slice concurrently, then the
        # partial pooled sums cross the fabric to the sample owners.
        gathers = []
        fwd_exchanges = []
        for shard in range(shards):
            gather = timeline.schedule(
                f"{RESOURCE_NMP}[{shard}]", OP_FWD_GATHER,
                nmp.time_gather_reduce(n_s, touched_s, stats.dim, stats.itemsize),
                after=prev_update, category="fwd",
                bytes_moved=(n_s + touched_s) * stats.vec_bytes,
            )
            gathers.append(gather)
            fwd_bytes = touched_s * stats.vec_bytes
            fwd_exchanges.append(
                timeline.schedule(
                    f"fabric[{shard}]", OP_EXCHANGE,
                    fabric.exchange_time(fwd_bytes),
                    after=gather, category="xfer",
                    bytes_moved=fabric.remote_bytes(fwd_bytes),
                )
            )

        emb_to_gpu = timeline.schedule(
            RESOURCE_LINK, _OP_XFER, link.transfer_time(stats.gradient_table_bytes),
            after=fwd_exchanges, category="xfer",
            bytes_moved=stats.gradient_table_bytes,
        )
        dense_up = timeline.schedule(
            RESOURCE_PCIE, _OP_XFER, pcie.transfer_time(stats.dense_input_bytes),
            category="xfer", bytes_moved=stats.dense_input_bytes,
        )
        dnn_f = timeline.schedule(
            RESOURCE_GPU, OP_FWD_DNN, fwd_dnn,
            after=[emb_to_gpu, dense_up], category="dnn",
        )
        dnn_b = timeline.schedule(
            RESOURCE_GPU, OP_BWD_DNN, bwd_dnn, after=dnn_f, category="dnn"
        )

        # Backward: the gradient table streams onto the fabric (cut-through
        # staging, as in Ours(NMP)), then the all-to-all redistributes the
        # gradient rows to their owners.  The casted pairs are NOT part of
        # the exchange span: they stream from the GPU during the casted
        # gather-reduce itself (the tcast lower bound below), exactly as in
        # the unsharded Ours(NMP) schedule — charging them here too would
        # count the same bytes twice.
        stage_time = max(
            link.transfer_time(stats.gradient_table_bytes),
            nmp.time_stage(stats.gradient_table_bytes),
        )
        stage = timeline.schedule(
            RESOURCE_LINK, _OP_XFER, stage_time,
            after=dnn_b, category="xfer", bytes_moved=stats.gradient_table_bytes,
        )
        exchange_bytes = touched_s * stats.vec_bytes
        updates = []
        for shard in range(shards):
            bwd_exchange = timeline.schedule(
                f"fabric[{shard}]", OP_EXCHANGE,
                fabric.exchange_time(exchange_bytes),
                after=[stage, cast], category="xfer",
                bytes_moved=fabric.remote_bytes(exchange_bytes),
            )
            tcast_time = max(
                nmp.time_casted_gather_reduce(n_s, u_s, stats.dim, stats.itemsize),
                link.bandwidth_bound_time(pair_bytes_s),
            )
            tcast = timeline.schedule(
                f"{RESOURCE_NMP}[{shard}]", OP_BWD_TCAST, tcast_time,
                after=bwd_exchange, category="bwd",
                bytes_moved=(n_s + u_s) * stats.vec_bytes,
            )
            updates.append(
                timeline.schedule(
                    f"{RESOURCE_NMP}[{shard}]", OP_BWD_SCATTER,
                    nmp.time_scatter(u_s, stats.dim, stats.itemsize, stats.optimizer),
                    after=tcast, category="bwd",
                    bytes_moved=3 * u_s * stats.vec_bytes,
                )
            )
        return updates


def design_points(hardware: SystemHardware | None = None) -> Dict[str, TrainingSystem]:
    """The four Figure 12/13 systems, sharing one hardware description."""
    hardware = hardware or SystemHardware()
    systems = (
        CPUGPUSystem(hardware, casting=False),
        NMPSystem(hardware, casting=False),
        CPUGPUSystem(hardware, casting=True),
        NMPSystem(hardware, casting=True),
    )
    return {system.name: system for system in systems}
