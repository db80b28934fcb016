"""The paper's design points as records of primitives, placed by one scheduler.

The paper draws every system it evaluates the same way (Figures 9 and 11,
Table I): one set of primitives — the forward gather, the cast, the DNN,
expand / sort / accumulate or the casted gather-reduce, and the scatter —
placed on the CPU, the GPU or the NMP pool, with the transfers between
them.  Here each design point is that placement written down: a tuple of
:class:`Primitive` records, each naming its resource, its breakdown op, its
seconds and bytes over ``(hardware, stats)`` and the records it waits on.
:meth:`TrainingSystem._schedule_iteration` is the one scheduler.  It places
the records in order on a greedy :class:`~repro.runtime.timeline.Timeline`,
so their order is part of the design point.  The systems the evaluation
compares each pick one record:

* ``Baseline(CPU)`` — :class:`CPUGPUSystem` without casting
  (:data:`BASELINE_CPU`): the CPU-centric hybrid of Figure 3 (embeddings
  on the host, DNN on the GPU);
* ``Baseline(NMP)`` — :class:`NMPSystem` without casting
  (:data:`BASELINE_NMP`): TensorDIMM-style acceleration of gather-reduce
  and scatter only, expand-coalesce still on the CPU (Figure 12's caption);
* ``Ours(CPU)`` — :class:`CPUGPUSystem` with Tensor Casting
  (:data:`OURS_CPU`), the casting stage hidden under the forward gather on
  the otherwise-idle GPU (Figure 9(b) top);
* ``Ours(NMP)`` — :class:`NMPSystem` with Tensor Casting (:data:`OURS_NMP`),
  the full memory-centric co-design (Figure 9(b) bottom, Figure 10);

plus :class:`CPUOnlySystem` for the Figure 4 characterization
(:data:`CPU_ONLY`, :data:`CPU_ONLY_CASTING`).

:class:`ShardedNMPSystem` goes beyond the paper: it runs the ``Ours(NMP)``
record over ``N`` pool nodes.  Primitives flagged ``per_shard`` run once per
busy shard, on ``nmp[s]``, over that shard's slice of the workload;
primitives flagged ``exchange`` (the all-to-all on ``fabric[s]``) exist only
when more than one shard is busy.  One shard therefore *is* ``Ours(NMP)``:
the plain ``nmp`` resource and no exchange span.

Every system consumes a :class:`WorkloadStats` — the batch geometry
(lookups ``n``, expected coalesced rows ``u``, gradient-table rows ``B``)
derived from a Table II model and a dataset locality profile — and returns
an :class:`IterationResult` carrying both the accumulated per-primitive
breakdown (Figures 4/12) and the end-to-end makespan (Figure 13).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Sequence, Tuple

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
    "PREVIOUS",
    "Primitive",
    "CPU_ONLY",
    "CPU_ONLY_CASTING",
    "BASELINE_CPU",
    "OURS_CPU",
    "BASELINE_NMP",
    "OURS_NMP",
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


#: The key under which a record's first primitives wait on the previous
#: iteration's update (the record's last primitive), in :meth:`run_pipeline`.
PREVIOUS = "previous update"


@dataclass(frozen=True)
class Primitive:
    """One primitive of a design point, as the scheduler places it.

    It runs on ``resource`` under the breakdown key ``op`` for
    ``time(hardware, stats)`` seconds and moves ``moves(stats)`` bytes (the
    energy model's per-byte term).  It starts once the spans of the records
    named in ``after`` have ended (:data:`PREVIOUS` names the previous
    iteration's update).  ``per_shard`` places it once per busy shard, over
    that shard's slice of ``stats``.  ``exchange`` makes it the all-to-all of
    ``moves(shard)`` bytes per device over the shards' fabric, timed by the
    fabric (it has no ``time``).  With one busy shard an exchange is absent,
    and its waiters wait on what it waited on.
    """

    key: str
    resource: str
    op: str
    time: Callable[[SystemHardware, WorkloadStats], float] | None
    moves: Callable[[WorkloadStats], int] = lambda stats: 0
    after: Tuple[str, ...] = ()
    per_shard: bool = False
    exchange: bool = False


def _dnn_layer_count(config: ModelConfig) -> int:
    """Kernel launches per DNN pass: every linear layer plus glue kernels."""
    linear = (len(config.bottom_mlp) - 1) + (len(config.top_mlp_sizes()) - 1)
    return linear + 3  # activations fused; +interaction, +loss, +copy glue


def _dnn_bytes(stats: WorkloadStats) -> int:
    """Bytes one forward DNN pass touches.

    The activations are read and written once each, and every GEMM streams
    its weights once.
    """
    config = stats.model
    widths = list(config.bottom_mlp) + [config.interaction_dim()]
    widths += list(config.top_mlp_sizes())[1:]
    params = sum(
        a * b
        for layers in (config.bottom_mlp, config.top_mlp_sizes())
        for a, b in zip(layers[:-1], layers[1:])
    )
    return (2 * stats.batch * sum(widths) + params) * stats.itemsize


def _dnn(key: str, resource: str, op: str, after: Tuple[str, ...]) -> Primitive:
    """The DNN's forward or backward pass, on the host or on the GPU.

    The backward (``op`` is :data:`OP_BWD_DNN`) touches twice the forward's
    bytes.
    """

    def seconds(hw: SystemHardware, stats: WorkloadStats) -> float:
        config = stats.model
        if op == OP_BWD_DNN:
            flops, touched = config.mlp_backward_flops(stats.batch), 2 * _dnn_bytes(stats)
        else:
            flops, touched = config.mlp_forward_flops(stats.batch), _dnn_bytes(stats)
        if resource == RESOURCE_CPU:
            return hw.cpu.time_mlp(flops, touched)
        return hw.gpu.time_dnn(flops, _dnn_layer_count(config), touched)

    return Primitive(key, resource, op, seconds, after=after)


def _transfer(
    key: str,
    resource: str,
    op: str,
    payload: Callable[[WorkloadStats], int],
    after: Tuple[str, ...] = (),
) -> Primitive:
    """Ship ``payload(stats)`` bytes over the PCIe bus or the NMP-GPU link."""

    def seconds(hw: SystemHardware, stats: WorkloadStats) -> float:
        link = hw.pcie if resource == RESOURCE_PCIE else hw.nmp_link
        return link.transfer_time(payload(stats))

    return Primitive(key, resource, op, seconds, payload, after)


# -- Primitives ------------------------------------------------------------
# A key names what the primitive makes ready for the primitives that wait on
# it: "grads" is the gradient table where the backward reads it, and
# "coalesce" the coalesced gradient rows, whichever primitive produced them.

# The casting stage on the GPU, fed and drained over PCIe (Figure 9(b)).
_INDEX_UP = _transfer("index_up", RESOURCE_PCIE, OP_CAST_XFER, lambda s: s.index_bytes)
_CAST_GPU = Primitive(
    "cast", RESOURCE_GPU, OP_CASTING, lambda hw, s: hw.gpu.time_casting(s.n),
    after=("index_up",),
)
_INDEX_DOWN = _transfer(
    "pairs", RESOURCE_PCIE, OP_CAST_XFER, lambda s: s.index_bytes, ("cast",)
)

# The host's primitives.
_GATHER_CPU = Primitive(
    "gather", RESOURCE_CPU, OP_FWD_GATHER,
    lambda hw, s: hw.cpu.time_gather_reduce(s.n, s.num_outputs, s.dim, s.itemsize),
    after=(PREVIOUS,),
)
_CAST_CPU = Primitive(
    "pairs", RESOURCE_CPU, OP_CASTING, lambda hw, s: hw.cpu.time_casting(s.n)
)
_MLP_FWD = _dnn("dnn_f", RESOURCE_CPU, OP_FWD_DNN, ("gather",))
_MLP_BWD = _dnn("grads", RESOURCE_CPU, OP_BWD_DNN, ("dnn_f",))
_EXPAND = Primitive(
    "expand", RESOURCE_CPU, OP_BWD_EXPAND,
    lambda hw, s: hw.cpu.time_expand(s.n, s.num_outputs, s.dim, s.itemsize),
    after=("grads",),
)
_SORT = Primitive(
    "sort", RESOURCE_CPU, OP_BWD_SORT, lambda hw, s: hw.cpu.time_sort(s.n),
    after=("expand",),
)
_ACCU = Primitive(
    "coalesce", RESOURCE_CPU, OP_BWD_ACCU,
    lambda hw, s: hw.cpu.time_coalesce_accumulate(s.n, s.u, s.dim, s.itemsize),
    after=("sort",),
)
_TCAST_CPU = Primitive(
    "coalesce", RESOURCE_CPU, OP_BWD_TCAST,
    lambda hw, s: hw.cpu.time_casted_gather_reduce(
        s.n, s.u, s.num_outputs, s.dim, s.itemsize
    ),
    after=("grads", "pairs"),
)
_SCATTER_CPU = Primitive(
    "update", RESOURCE_CPU, OP_BWD_SCATTER,
    lambda hw, s: hw.cpu.time_scatter(s.u, s.dim, s.itemsize, s.optimizer),
    after=("coalesce",),
)

# The GPU's DNN and the PCIe traffic of the CPU-GPU hybrid.
_INPUTS_UP = _transfer(
    "inputs", RESOURCE_PCIE, _OP_XFER,
    lambda s: s.dense_input_bytes + s.gradient_table_bytes, ("gather",),
)
_DNN_FWD = _dnn("dnn_f", RESOURCE_GPU, OP_FWD_DNN, ("inputs",))
_DNN_BWD = _dnn("dnn_b", RESOURCE_GPU, OP_BWD_DNN, ("dnn_f",))
_GRADS_DOWN = _transfer(
    "grads", RESOURCE_PCIE, _OP_XFER, lambda s: s.gradient_table_bytes, ("dnn_b",)
)

# The NMP pool's primitives and the link that feeds it (Figure 10).
_GATHER_NMP = Primitive(
    "gather", RESOURCE_NMP, OP_FWD_GATHER,
    lambda hw, s: hw.nmp.time_gather_reduce(s.n, s.num_outputs, s.dim, s.itemsize),
    lambda s: (s.n + s.num_outputs) * s.vec_bytes,
    after=(PREVIOUS,), per_shard=True,
)
_EMB_UP = _transfer(
    "pooled", RESOURCE_LINK, _OP_XFER, lambda s: s.gradient_table_bytes, ("gather",)
)
_DENSE_UP = _transfer("dense", RESOURCE_PCIE, _OP_XFER, lambda s: s.dense_input_bytes)
_DNN_FWD_NMP = replace(_DNN_FWD, after=("pooled", "dense"))
# The gradient table streams over the link and is staged into rank DRAM as it
# arrives (cut-through), so one pipelined span covers both at the slower of
# the two rates.
_STAGE = Primitive(
    "grads", RESOURCE_LINK, _OP_XFER,
    lambda hw, s: max(
        hw.nmp_link.transfer_time(s.gradient_table_bytes),
        hw.nmp.time_stage(s.gradient_table_bytes),
    ),
    lambda s: s.gradient_table_bytes,
    after=("dnn_b",),
)
# The casted index array likewise streams over the link while the NMP
# consumes it chunk by chunk, so delivery pipelines with execution: the op
# runs at the slower of the two rates.
_TCAST_NMP = Primitive(
    "coalesce", RESOURCE_NMP, OP_BWD_TCAST,
    lambda hw, s: max(
        hw.nmp.time_casted_gather_reduce(s.n, s.u, s.dim, s.itemsize),
        hw.nmp_link.bandwidth_bound_time(s.index_bytes),
    ),
    lambda s: (s.n + s.u) * s.vec_bytes,
    after=("bwd_exchange",), per_shard=True,
)
_SCATTER_NMP = Primitive(
    "update", RESOURCE_NMP, OP_BWD_SCATTER,
    lambda hw, s: hw.nmp.time_scatter(s.u, s.dim, s.itemsize, s.optimizer),
    lambda s: 3 * s.u * s.vec_bytes,
    after=("coalesce",), per_shard=True,
)
# The pool node hangs off the system fabric (Figure 10): the host reaches it
# over one link hop with the coalesced payload.
_TO_POOL = _transfer(
    "to_pool", RESOURCE_LINK, _OP_XFER, lambda s: s.coalesced_bytes, ("coalesce",)
)

# The all-to-all between pool nodes: the forward's partial pooled sums go to
# the sample owners, and the backward's gradient rows to the row owners.  The
# casted pairs never cross the fabric; they stream from the GPU during the
# casted gather-reduce (its link bound), as in the unsharded schedule.
_FWD_EXCHANGE = Primitive(
    "fwd_exchange", "fabric", OP_EXCHANGE, None, lambda s: s.gradient_table_bytes,
    after=("gather",), per_shard=True, exchange=True,
)
_BWD_EXCHANGE = replace(_FWD_EXCHANGE, key="bwd_exchange", after=("grads", "cast"))

# -- Design points -----------------------------------------------------------
#: ``CPU-only``: everything on the host (Section II-C).
CPU_ONLY = (_GATHER_CPU, _MLP_FWD, _MLP_BWD, _EXPAND, _SORT, _ACCU, _SCATTER_CPU)
#: ``CPU-only (T.Casting)``: the cast and the casted gather-reduce on the host.
CPU_ONLY_CASTING = (
    _GATHER_CPU, _CAST_CPU, _MLP_FWD, _MLP_BWD, _TCAST_CPU, _SCATTER_CPU,
)
#: ``Baseline(CPU)``: embeddings on the host, DNN on the GPU (Figure 3).
BASELINE_CPU = (
    _GATHER_CPU, _INPUTS_UP, _DNN_FWD, _DNN_BWD, _GRADS_DOWN,
    _EXPAND, _SORT, _ACCU, _SCATTER_CPU,
)
#: ``Ours(CPU)``: the cast runs on the GPU while the host gathers.
OURS_CPU = (
    _INDEX_UP, _CAST_GPU, _INDEX_DOWN, _GATHER_CPU, _INPUTS_UP, _DNN_FWD,
    _DNN_BWD, _GRADS_DOWN, _TCAST_CPU, _SCATTER_CPU,
)
#: ``Baseline(NMP)``: gather and scatter on the pool, the coalesce on the
#: host, so the gradients go GPU -> CPU -> pool.
BASELINE_NMP = (
    _GATHER_NMP, _EMB_UP, _DENSE_UP, _DNN_FWD_NMP, _DNN_BWD, _GRADS_DOWN,
    _EXPAND, _SORT, _ACCU, _TO_POOL, replace(_SCATTER_NMP, after=("to_pool",)),
)
#: ``Ours(NMP)``: the casted gather-reduce on the pool, against the
#: link-staged gradient table; run over ``N`` pool nodes when sharded.
OURS_NMP = (
    _INDEX_UP, _CAST_GPU, _GATHER_NMP, _FWD_EXCHANGE,
    replace(_EMB_UP, after=("fwd_exchange",)), _DENSE_UP, _DNN_FWD_NMP, _DNN_BWD,
    _STAGE, _BWD_EXCHANGE, _TCAST_NMP, _SCATTER_NMP,
)


class TrainingSystem:
    """One schedulable recommendation-training design point.

    A design point is its record, :attr:`primitives`, placed over
    :attr:`num_shards` pool nodes under the partition :attr:`policy`.  A
    subclass picks all three; it defines no schedule.
    """

    name = "abstract"
    primitives: Tuple[Primitive, ...] = ()
    num_shards = 1
    policy = "row"

    def __init__(self, hardware: SystemHardware | None = None) -> None:
        self.hardware = hardware or SystemHardware()

    def run_iteration(self, stats: WorkloadStats) -> IterationResult:
        """Simulate one iteration, returning timeline + breakdown + makespan."""
        return self.run_pipeline(stats, 1)

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
        update: List[Span] = []
        for _ in range(iterations):
            update = self._schedule_iteration(stats, timeline, update)
        timeline.validate()
        return IterationResult(
            self.name, stats, timeline, timeline.makespan(), timeline.breakdown()
        )

    def _schedule_iteration(
        self, stats: WorkloadStats, timeline: Timeline, previous: Sequence[Span]
    ) -> List[Span]:
        """Place one iteration's primitives in order; returns the update's spans."""
        shards = self.effective_shards(stats)
        shard, fabric = stats, self.fabric_for(stats)
        if shards > 1:
            shard = replace(
                stats, n=self.shard_lookups(stats), u=self.shard_coalesced(stats),
                num_outputs=self.shard_outputs(stats),
            )
        # (key, shard) -> that shard's spans; (key, None) -> all of the key's.
        placed: Dict[Tuple[str, int | None], List[Span]] = {
            (PREVIOUS, None): list(previous)
        }
        for p in self.primitives:
            if p.exchange and shards == 1:
                placed[p.key, None] = [s for k in p.after for s in placed[k, None]]
                continue
            sliced = shard if p.per_shard else stats
            moved = p.moves(sliced)
            if p.time is not None:
                seconds = p.time(self.hardware, sliced)
            else:  # an exchange: the fabric times its payload
                seconds, moved = fabric.exchange_time(moved), fabric.remote_bytes(moved)
            spans: List[Span] = []
            lanes: Sequence[int | None] = (
                range(shards) if p.per_shard and shards > 1 else (None,)
            )
            for lane in lanes:
                after = [s for k in p.after for s in placed.get((k, lane), placed[k, None])]
                resource = p.resource if lane is None else f"{p.resource}[{lane}]"
                span = timeline.schedule(
                    resource, p.op, seconds, after=after, bytes_moved=moved
                )
                placed[p.key, lane] = [span]
                spans.append(span)
            placed[p.key, None] = spans
        return placed[self.primitives[-1].key, None]

    # -- per-shard geometry ---------------------------------------------
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
        touched = expected_shard_outputs(
            stats.n, stats.num_outputs, self.effective_shards(stats), self.policy
        )
        return max(1, round(touched))

    def per_device_exchange_bytes(self, stats: WorkloadStats) -> int:
        """Backward all-to-all bytes one device ingests (gradient rows + pairs)."""
        return sharded_exchange_bytes(
            stats.n, stats.num_outputs, stats.dim,
            itemsize=stats.itemsize, index_itemsize=stats.index_itemsize,
            num_shards=self.effective_shards(stats), policy=self.policy,
        )


class _CastingChoice(TrainingSystem):
    """A design point with and without Tensor Casting: ``(name, record)`` each."""

    choices: Tuple[Tuple[str, Tuple[Primitive, ...]], ...] = ()

    def __init__(
        self, hardware: SystemHardware | None = None, casting: bool = False
    ) -> None:
        super().__init__(hardware)
        self.casting = casting
        self.name, self.primitives = self.choices[bool(casting)]


class CPUOnlySystem(_CastingChoice):
    """Everything on the host (Section II-C's ``CPU-only``).

    With ``casting=True`` the backward expand-coalesce is replaced by the
    casted gather-reduce, with the casting stage itself also on the CPU —
    there is no idle accelerator to hide it under, so it sits on the
    critical path (it still wins: the cast costs about one sort and it
    eliminates both the expand and the accumulate).  The paper notes its
    proposal applies to CPU-centric designs too (Section IV-C); this is the
    all-host limit of that observation.
    """

    choices = (("CPU-only", CPU_ONLY), ("CPU-only (T.Casting)", CPU_ONLY_CASTING))


class CPUGPUSystem(_CastingChoice):
    """Hybrid CPU-GPU system, optionally co-designed with Tensor Casting.

    ``casting=False`` is the paper's ``Baseline(CPU)``; ``casting=True`` is
    ``Ours(CPU)`` — identical hardware, with the backward expand-coalesce
    replaced by the casted gather-reduce and the casting stage scheduled on
    the GPU concurrently with the CPU-side forward gather (Figure 9(b)).
    """

    choices = (("Baseline(CPU)", BASELINE_CPU), ("Ours(CPU)", OURS_CPU))


class NMPSystem(_CastingChoice):
    """Memory-centric system with the Table I NMP pool (Figure 10).

    ``casting=False`` is ``Baseline(NMP)`` — TensorDIMM acceleration of
    gather-reduce and scatter with expand-coalesce still CPU-resident, which
    forces the gradient round trip GPU -> CPU -> pool; ``casting=True`` is
    the full co-design ``Ours(NMP)``, where the casted gather-reduce runs on
    the pool against the link-staged gradient table.
    """

    choices = (("Baseline(NMP)", BASELINE_NMP), ("Ours(NMP)", OURS_NMP))


class ShardedNMPSystem(TrainingSystem):
    """``Ours(NMP)`` over ``N`` casting-enabled NMP pool nodes.

    Scale-out extension beyond the paper: the embedding tables are
    partitioned across ``num_shards`` pool nodes (row-wise or table-wise,
    per :mod:`repro.core.sharding`), each node runs the forward gather and
    the Tensor-Casted backward over its slice, and pooled vectors/gradient
    rows cross a symmetric fabric modeled by
    :class:`repro.sim.interconnect.AllToAll`.  The casted index arrays keep
    the exchange compact — each node receives only the gradient-table rows
    its casted sub-arrays name, the byte count of
    :func:`repro.core.traffic.sharded_exchange_bytes`.

    The record is :data:`OURS_NMP`; with ``num_shards=1`` the schedule is
    ``Ours(NMP)``'s, span for span.  The model is analytic only: the
    functional trainer runs one device.
    """

    primitives = OURS_NMP

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
