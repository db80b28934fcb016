"""Stage decomposition of one training step: the engine's vocabulary.

The paper's core claim is that recommendation training decomposes into a
small set of reusable tensor primitives that one runtime can schedule many
ways.  This module encodes that claim structurally: one training step is a
*plan* of named :class:`Stage` objects —

``draw``
    pull the next mini-batch from the :class:`~repro.data.source.BatchSource`;
``cast``
    Tensor Casting (Algorithm 2) over the batch's index arrays — and, in
    sharded runs, the per-shard index partition first.  Depends only on
    index data, which is why a scheduler may run it arbitrarily far ahead
    of the batch's compute (the Section IV-B overlap);
``gather`` *(sharded only)*
    per-shard embedding gather-reduce into partial pooled sums;
``exchange`` *(sharded only)*
    the forward all-to-all shipping partials to their sample owners;
``forward``
    the dense model forward (plus the unsharded embedding gathers) and the
    loss;
``backward``
    dense backpropagation and the per-table coalesced sparse gradients
    (baseline expand-coalesce or the casted gather-reduce; sharded runs
    also account the backward all-to-all here);
``optimize``
    dense optimizer step plus the sparse row-coalesced scatter-updates.

— all operating on a shared mutable :class:`StepContext`.  The stages
carry the *numerics*; :mod:`repro.runtime.engine` carries the one step loop
whose :class:`~repro.runtime.policy.SchedulePolicy` decides when each stage
of which batch runs, and :mod:`repro.runtime.parallel` the shard executor
the sharded stages map their per-shard work through.  Every policy executes
the same stage objects, which is what makes them bit-identical by
construction.

:class:`StageTimingCollector` is the generic wall-clock accountant: stages
record phase seconds through its :meth:`~StageTimingCollector.timed` scope
(or, for the ``cast`` stage, through the context-local :func:`_cast_timed`
so a background worker never races the step loop), and it owns the
:class:`PhaseTimings` and per-step products the engine assembles into the
:class:`TrainingReport`.  When the collector carries a
:class:`~repro.obs.tracer.Tracer`, the *same* clock reads that feed the
phase totals also become trace spans — one span per stage per step, shards
on their own tracks, background cast spans buffered on the context and
absorbed with its timings — which is why the exported trace reconciles
with the report exactly rather than approximately.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
    TYPE_CHECKING,
)

import numpy as np

from ..core.casting import CastedIndex, precompute_casts
from ..data.source import BatchSource, CTRBatch, SourceExhausted
from ..model.loss import bce_with_logits
from ..model.sharded import (
    ShardedStepPlan,
    cast_slices,
    gather_slices,
    reduce_payload,
    store_shard,
)
from .parallel import InlineShardExecutor

if TYPE_CHECKING:  # runtime imports would cycle through the trainer facade
    from ..backends.dispatch import BackendSpec
    from ..model.dlrm import DLRM
    from ..model.optim import Optimizer
    from ..model.sharded import ShardedEmbeddingSet
    from ..obs.tracer import SpanRecord, Tracer
    from .parallel import ShardResult
    from .trainer import FunctionalTrainer

__all__ = [
    "PhaseTimings",
    "TrainingReport",
    "InferenceReport",
    "StepContext",
    "Stage",
    "DrawStage",
    "CastStage",
    "ShardedCastStage",
    "ForwardStage",
    "GatherStage",
    "ExchangeStage",
    "ShardedForwardStage",
    "BackwardStage",
    "ShardedBackwardStage",
    "OptimizeStage",
    "ShardedOptimizeStage",
    "StepStages",
    "StageTimingCollector",
    "build_step_stages",
]


@dataclass
class PhaseTimings:
    """Accumulated wall-clock seconds per training phase."""

    totals: Dict[str, float] = field(default_factory=dict)

    def add(self, phase: str, seconds: float) -> None:
        self.totals[phase] = self.totals.get(phase, 0.0) + seconds

    def merge(self, other: "PhaseTimings") -> None:
        """Fold another accounting into this one (phase-wise addition).

        Used by the collector to absorb the timings a background cast-ahead
        worker recorded into the step-loop's accounting.
        """
        for phase, seconds in other.totals.items():
            self.add(phase, seconds)

    def total(self) -> float:
        """All instrumented time across phases."""
        return sum(self.totals.values())

    def fraction(self, phase: str) -> float:
        """Share of total time spent in ``phase``."""
        total = self.total()
        if total == 0.0:
            return 0.0
        return self.totals.get(phase, 0.0) / total


@dataclass(frozen=True)
class TrainingReport:
    """Outcome of a measured training run.

    ``shard_timings`` and the exchange-byte counters are populated only by
    sharded runs: one :class:`PhaseTimings` per shard (phases ``casting`` /
    ``gather`` / ``backward`` / ``update``) and the simulated all-to-all
    payload across all steps, attributed per pipeline stage —
    ``forward_exchange_bytes`` (partial pooled sums to the sample owners)
    plus ``backward_exchange_bytes`` (gradient rows and casted pairs to the
    table owners), with ``exchange_bytes`` their sum.

    ``wall_seconds`` is the end-to-end wall-clock of the whole
    :meth:`~repro.runtime.trainer.FunctionalTrainer.train` call — the
    denominator of :attr:`steps_per_second`, which is how the pipelined and
    serial trainers' throughput are compared.

    ``backend`` records which kernel engine the run's hot kernels routed
    through (the trainer's resolved ``backend=`` knob) so a throughput
    number is never separated from the engine that produced it.

    ``steps`` is the number of iterations that *actually* trained — less
    than requested when a finite batch source exhausted mid-run.

    The ``cache_*`` fields are populated only when the trainer ran with an
    executed hot-row cache (``hot_cache=`` knob): aggregate hits/accesses
    across every table's :class:`~repro.model.hot_cache.HotRowCache`, the
    measured ``cache_hit_rate`` (hits/accesses), and the replacement
    ``cache_policy`` that produced it — the executed counterpart of
    :class:`~repro.sim.cache.CachedCPUModel`'s analytic prediction.
    """

    losses: List[float]
    timings: PhaseTimings
    mode: str
    steps: int
    shard_timings: Optional[List[PhaseTimings]] = None
    exchange_bytes: int = 0
    forward_exchange_bytes: int = 0
    backward_exchange_bytes: int = 0
    wall_seconds: float = 0.0
    backend: str = "vectorized"
    cache_hit_rate: Optional[float] = None
    cache_hits: int = 0
    cache_accesses: int = 0
    cache_policy: Optional[str] = None
    accum_steps: int = 1
    samples: int = 0

    @property
    def final_loss(self) -> float:
        return self.losses[-1]

    @property
    def initial_loss(self) -> float:
        return self.losses[0]

    @property
    def num_shards(self) -> Optional[int]:
        """Shard count of a sharded run, ``None`` for unsharded runs."""
        if self.shard_timings is None:
            return None
        return len(self.shard_timings)

    @property
    def steps_per_second(self) -> float:
        """Measured training throughput (0.0 when wall time was not recorded)."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.steps / self.wall_seconds

    # ------------------------------------------------------------------
    # Optimize amortization (the gradient-accumulation story)
    # ------------------------------------------------------------------
    @property
    def optimize_seconds(self) -> float:
        """Total wall-clock spent in the ``optimize`` stage (``update``)."""
        return self.timings.totals.get("update", 0.0)

    @property
    def optimize_seconds_per_step(self) -> float:
        """``optimize`` seconds per *optimizer* step."""
        if self.steps <= 0:
            return 0.0
        return self.optimize_seconds / self.steps

    @property
    def optimize_seconds_per_sample(self) -> float:
        """``optimize`` seconds amortized over every trained sample.

        The number gradient accumulation exists to shrink: with
        ``accum_steps=N`` one optimizer step covers ``N`` micro-batches of
        samples, so the dense update's per-parameter cost is paid once per
        ``N`` micro-batches and the sparse scatter coalesces across all of
        them.
        """
        if self.samples <= 0:
            return 0.0
        return self.optimize_seconds / self.samples

    @property
    def optimize_fraction(self) -> float:
        """Share of instrumented time the ``optimize`` stage took."""
        return self.timings.fraction("update")


@dataclass(frozen=True)
class InferenceReport(TrainingReport):
    """Outcome of a measured forward-only run (``infer()``).

    A :class:`TrainingReport` plus ``logits``: every step's raw forward
    outputs in step order — the engine's actual predictions, bit-identical
    to what the training path's forward computes for the same batch and
    backend (pinned by ``tests/runtime/test_infer.py``).
    :attr:`predictions` is the sigmoid view (click probabilities).
    ``losses`` records the per-batch BCE against the batch's labels —
    inference batches still carry labels, so the run doubles as an
    evaluation pass; the loss is *observed*, never backpropagated (no
    ``backward``/``optimize`` stage runs, parameters and optimizer state are
    untouched — the frozen-parameter guarantee).

    ``timings`` breaks the run into the serving-relevant phases (``draw``,
    ``casting``/``partition``, ``forward``, ``loss``, and for sharded runs
    ``exchange``); ``samples`` counts every scored sample, and
    ``forward_exchange_bytes`` accounts the sharded forward all-to-all
    (there is no backward exchange, so ``backward_exchange_bytes`` stays 0).
    """

    logits: List[np.ndarray] = field(default_factory=list)

    @property
    def predictions(self) -> List[np.ndarray]:
        """Per-step click probabilities (sigmoid of :attr:`logits`)."""
        return [1.0 / (1.0 + np.exp(-logits)) for logits in self.logits]

    @property
    def mean_loss(self) -> float:
        """Mean per-batch evaluation BCE across the run."""
        return float(np.mean(self.losses))

    @property
    def samples_per_second(self) -> float:
        """Measured scoring throughput (0.0 when wall time was not recorded)."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.samples / self.wall_seconds


@dataclass
class StepContext:
    """Mutable working state one batch carries through its stages.

    A fresh context is created per step; stages communicate exclusively
    through it, so two in-flight contexts (the pipelined schedule keeps
    two) never share mutable state.  The ``cast_*`` accountings (and, in
    traced runs, ``cast_spans``) are context-local for the same reason: the
    ``cast`` stage may run on a background worker, and its timings are
    merged into the run-level collector only after the future resolves
    (:meth:`StageTimingCollector.absorb_cast`).
    """

    mode: str
    data: Optional[CTRBatch] = None
    casts: Optional[List[CastedIndex]] = None
    plan: Optional[ShardedStepPlan] = None
    loss: Optional[float] = None
    logits: Optional[np.ndarray] = None
    dlogits: Optional[np.ndarray] = None
    emb_outs: Optional[List[np.ndarray]] = None
    grad_tables: Optional[List[np.ndarray]] = None
    sparse_grads: Optional[list] = None
    per_shard_coalesced: Optional[List[list]] = None
    cast_timings: PhaseTimings = field(default_factory=PhaseTimings)
    cast_shard_timings: Optional[List[PhaseTimings]] = None
    tracer: Optional["Tracer"] = None
    cast_spans: List["SpanRecord"] = field(default_factory=list)


@contextmanager
def _cast_timed(ctx: StepContext, phase: str,
                span: Optional[str] = None) -> Iterator[None]:
    """Time a cast-stage region into the *context's* accounting.

    The cast stage may run on the cast-ahead worker, so everything it
    records — the phase seconds and, in traced runs, the span — stays on
    the context until :meth:`StageTimingCollector.absorb_cast` folds it
    into the run totals on the step loop's thread.  Spans land on the
    ``cast`` track (the cast-ahead worker's Perfetto lane) with the same
    clock reads that feed the timings.
    """
    if ctx.tracer is None:
        start = time.perf_counter()
        try:
            yield
        finally:
            ctx.cast_timings.add(phase, time.perf_counter() - start)
    else:
        start = ctx.tracer.now()
        try:
            yield
        finally:
            end = ctx.tracer.now()
            ctx.tracer.record_span(
                span or phase,
                track="cast",
                start_s=start,
                end_s=end,
                sink=ctx.cast_spans,
            )
            ctx.cast_timings.add(phase, end - start)


class Stage:
    """One named unit of a training step, operating on a :class:`StepContext`.

    Stages are bound to their collaborators (model, optimizer, sharded
    executor, collector) at plan-build time; :meth:`run` takes only the
    context, so any scheduler can execute any stage without knowing what it
    does.
    """

    #: Stage name in the plan (the vocabulary of the module docstring).
    name = "stage"

    def run(self, ctx: StepContext) -> None:
        raise NotImplementedError


class DrawStage(Stage):
    """``draw``: pull the next batch; ``ctx.data`` stays ``None`` on exhaustion."""

    name = "draw"

    def __init__(self, stream: BatchSource, batch: int,
                 rng: np.random.Generator) -> None:
        self.stream = stream
        self.batch = batch
        self.rng = rng

    def run(self, ctx: StepContext) -> None:
        try:
            ctx.data = self.stream.next_batch(self.batch, self.rng)
        except SourceExhausted:
            ctx.data = None


class CastStage(Stage):
    """``cast`` (unsharded): Algorithm 2 over every table of the batch.

    A no-op in baseline mode — the expand-coalesce backward has no casting
    stage, and the ``casting`` phase must not appear in its report.
    """

    name = "cast"

    def __init__(self, backend: "BackendSpec") -> None:
        self.backend = backend

    def run(self, ctx: StepContext) -> None:
        if ctx.mode != "casted":
            return
        with _cast_timed(ctx, "casting"):
            ctx.casts = precompute_casts(ctx.data.indices, backend=self.backend)


class ShardedCastStage(Stage):
    """``cast`` (sharded): split the batch by shard, then cast every slice.

    Like the unsharded cast, this consumes index data only — no parameters,
    no gradients — so under look-ahead it runs for batch ``i+1``
    concurrently with batch ``i``'s compute.  The per-shard Algorithm 2 is
    mapped through the trainer's shard executor.
    """

    name = "cast"

    def __init__(self, sharded: "ShardedEmbeddingSet",
                 executor: "InlineShardExecutor") -> None:
        self.sharded = sharded
        self.executor = executor

    def run(self, ctx: StepContext) -> None:
        with _cast_timed(ctx, "partition"):
            ctx.plan = self.sharded.plan_batch(ctx.data.indices)
        backend = self.sharded.backend
        results = self.executor.map(
            cast_slices,
            [(slices, backend) for slices in ctx.plan.slices_by_shard()],
            barrier=lambda: _cast_timed(ctx, "sync", span="cast_barrier"),
        )
        assert ctx.cast_shard_timings is not None
        for shard, result in enumerate(results):
            store_shard(ctx.plan.casts, shard, result.value)
            seconds = result.end_s - result.start_s
            ctx.cast_shard_timings[shard].add("casting", seconds)
            ctx.cast_timings.add("casting", seconds)
            if ctx.tracer is not None:
                ctx.tracer.record_span(
                    "casting",
                    track=result.track or "cast",
                    start_s=result.start_s,
                    end_s=result.end_s,
                    args={"shard": shard},
                    sink=ctx.cast_spans,
                )


class ForwardStage(Stage):
    """``forward`` (unsharded): embedding gathers, dense forward, loss."""

    name = "forward"

    def __init__(self, model: "DLRM",
                 collector: "StageTimingCollector") -> None:
        self.model = model
        self.collector = collector

    def run(self, ctx: StepContext) -> None:
        self.model.zero_grad()
        with self.collector.timed("forward"):
            ctx.logits = self.model.forward(ctx.data.dense, ctx.data.indices)
        with self.collector.timed("loss"):
            ctx.loss, ctx.dlogits = bce_with_logits(
                ctx.logits, ctx.data.labels
            )


class GatherStage(Stage):
    """``gather`` (sharded): each shard gather-reduces the lookups it owns.

    Mapped through the shard executor; partial sums land on the plan in
    shard-index order.  Always on the step loop, after the previous step's
    ``optimize`` — a gather must read post-update parameters.  An executed
    hot-row cache sees each table's whole ``src`` stream here, before the
    fan-out: exactly what :meth:`~repro.model.embedding.EmbeddingBag.forward`
    shows it unsharded, so its counters are the same at any shard count.
    """

    name = "gather"

    def __init__(self, model: "DLRM", sharded: "ShardedEmbeddingSet",
                 collector: "StageTimingCollector",
                 executor: "InlineShardExecutor") -> None:
        self.model = model
        self.sharded = sharded
        self.collector = collector
        self.executor = executor

    def run(self, ctx: StepContext) -> None:
        self.model.zero_grad()
        sharded = self.sharded
        cached = [
            (bag.hot_cache, index)
            for bag, index in zip(sharded.bags, ctx.plan.indices)
            if bag.hot_cache is not None
        ]
        if cached:
            with self.collector.timed("forward"):
                for cache, index in cached:
                    cache.access(index.src)
        tables = sharded.tables
        results = self.executor.map(
            gather_slices,
            [
                (tables, slices, sharded.backend)
                for slices in ctx.plan.slices_by_shard()
            ],
            barrier=lambda: self.collector.timed(
                "sync", span="forward_barrier"
            ),
        )
        for shard, result in enumerate(results):
            store_shard(ctx.plan.partials, shard, result.value)
            self.collector.record_shard(
                "forward", shard, result, shard_phase="gather"
            )


class ExchangeStage(Stage):
    """``exchange`` (sharded): the forward all-to-all back to sample owners.

    Byte accounting lands on the plan's ``forward_exchange_bytes`` counter
    (harvested at step completion); the backward all-to-all is accounted
    inside the ``backward`` stage where it happens.
    """

    name = "exchange"

    def __init__(self, sharded: "ShardedEmbeddingSet",
                 collector: "StageTimingCollector") -> None:
        self.sharded = sharded
        self.collector = collector

    def run(self, ctx: StepContext) -> None:
        with self.collector.timed("exchange"):
            ctx.emb_outs = self.sharded.assemble_pooled(ctx.plan)


class ShardedForwardStage(Stage):
    """``forward`` (sharded): dense forward over exchanged pooled vectors."""

    name = "forward"

    def __init__(self, model: "DLRM",
                 collector: "StageTimingCollector") -> None:
        self.model = model
        self.collector = collector

    def run(self, ctx: StepContext) -> None:
        with self.collector.timed("forward"):
            ctx.logits = self.model.forward_from_pooled(
                ctx.data.dense, ctx.emb_outs
            )
        with self.collector.timed("loss"):
            ctx.loss, ctx.dlogits = bce_with_logits(
                ctx.logits, ctx.data.labels
            )


class BackwardStage(Stage):
    """``backward`` (unsharded): dense backprop + coalesced sparse gradients."""

    name = "backward"

    def __init__(self, model: "DLRM",
                 collector: "StageTimingCollector") -> None:
        self.model = model
        self.collector = collector

    def run(self, ctx: StepContext) -> None:
        with self.collector.timed("backward"):
            ctx.sparse_grads = self.model.backward(
                ctx.dlogits, mode=ctx.mode, casts=ctx.casts
            )


class ShardedBackwardStage(Stage):
    """``backward`` (sharded): dense backprop, then per-shard casted backward.

    The step loop assembles every shard's backward all-to-all payload
    (gradient rows + casted pairs, accounted into the plan's byte counter
    in shard order); the casted gather-reduce over each payload is mapped
    through the shard executor.
    """

    name = "backward"

    def __init__(self, model: "DLRM", sharded: "ShardedEmbeddingSet",
                 collector: "StageTimingCollector",
                 executor: "InlineShardExecutor") -> None:
        self.model = model
        self.sharded = sharded
        self.collector = collector
        self.executor = executor

    def run(self, ctx: StepContext) -> None:
        sharded = self.sharded
        with self.collector.timed("backward"):
            ctx.grad_tables = self.model.backward_through_dense(ctx.dlogits)
            sharded.prepare_backward(ctx.plan, ctx.grad_tables)
            payloads = [
                (
                    sharded.backward_payload(ctx.plan, shard, ctx.grad_tables),
                    sharded.backend,
                )
                for shard in range(sharded.num_shards)
            ]
        results = self.executor.map(
            reduce_payload,
            payloads,
            barrier=lambda: self.collector.timed(
                "sync", span="backward_barrier"
            ),
        )
        ctx.per_shard_coalesced = [result.value for result in results]
        for shard, result in enumerate(results):
            self.collector.record_shard("backward", shard, result)


class OptimizeStage(Stage):
    """``optimize`` (unsharded): dense step + sparse scatter-updates."""

    name = "optimize"

    def __init__(self, model: "DLRM", optimizer: "Optimizer",
                 collector: "StageTimingCollector") -> None:
        self.model = model
        self.optimizer = optimizer
        self.collector = collector

    def run(self, ctx: StepContext) -> None:
        with self.collector.timed("update", span="optimize"):
            self.optimizer.step(self.model.dense_parameters())
            for bag, grad in zip(self.model.embeddings, ctx.sparse_grads):
                bag.apply_gradient(grad, self.optimizer)


class ShardedOptimizeStage(Stage):
    """``optimize`` (sharded): dense step + per-shard local scatter-updates."""

    name = "optimize"

    def __init__(self, model: "DLRM", sharded: "ShardedEmbeddingSet",
                 optimizer: "Optimizer",
                 collector: "StageTimingCollector") -> None:
        self.model = model
        self.sharded = sharded
        self.optimizer = optimizer
        self.collector = collector

    def run(self, ctx: StepContext) -> None:
        with self.collector.timed("update", span="optimize"):
            self.optimizer.step(self.model.dense_parameters())
        for shard in range(self.sharded.num_shards):
            with self.collector.timed(
                "update", shard=shard, span="optimize",
                track=f"shard{shard}",
            ):
                self.sharded.update_shard(
                    shard, ctx.per_shard_coalesced[shard], self.optimizer
                )


class StageTimingCollector:
    """Run-level accountant: phase timings, losses, exchange bytes, report.

    One instance per training run.  Compute stages record wall-clock
    through the :meth:`timed` scope into :attr:`timings` /
    :attr:`shard_timings`; the ``cast`` stage records into its context
    (possibly on a background thread) and the step loop calls
    :meth:`absorb_cast` once the cast is known complete.
    :meth:`finish_step` harvests the per-step products (loss, the sharded
    plan's all-to-all byte counters); :meth:`report_fields` hands the
    engine everything the report needs from here.

    With a ``tracer``, every :meth:`timed` scope additionally records one
    trace span from the *same* pair of clock reads that feeds the phase
    total — trace and report cannot drift apart.  Without one (the
    default), timing uses :func:`time.perf_counter` exactly as before.
    """

    def __init__(self, num_shards: Optional[int] = None,
                 tracer: Optional["Tracer"] = None) -> None:
        self.timings = PhaseTimings()
        self.shard_timings: Optional[List[PhaseTimings]] = (
            [PhaseTimings() for _ in range(num_shards)]
            if num_shards is not None
            else None
        )
        self.tracer = tracer
        self.losses: List[float] = []
        self.samples = 0
        self.forward_exchange_bytes = 0
        self.backward_exchange_bytes = 0

    def _record(self, phase: str, shard: Optional[int],
                shard_phase: Optional[str], seconds: float) -> None:
        if shard is not None:
            assert self.shard_timings is not None
            self.shard_timings[shard].add(shard_phase or phase, seconds)
        self.timings.add(phase, seconds)

    @contextmanager
    def timed(
        self,
        phase: str,
        shard: Optional[int] = None,
        shard_phase: Optional[str] = None,
        span: Optional[str] = None,
        track: str = "main",
        args: Optional[Mapping[str, Any]] = None,
    ) -> Iterator[None]:
        """Time a region into ``phase`` (and ``shard``'s accounting).

        ``shard_phase`` renames the per-shard entry when it differs from
        the run-level phase (a shard's ``gather`` seconds land in the
        run-level ``forward`` total, matching the unsharded breakdown).
        In traced runs the region also becomes a span named ``span``
        (default: the phase) on ``track``.
        """
        if self.tracer is None:
            start = time.perf_counter()
            try:
                yield
            finally:
                self._record(
                    phase, shard, shard_phase, time.perf_counter() - start
                )
        else:
            start = self.tracer.now()
            try:
                yield
            finally:
                end = self.tracer.now()
                self.tracer.record_span(
                    span or phase,
                    track=track,
                    start_s=start,
                    end_s=end,
                    args=args,
                )
                self._record(phase, shard, shard_phase, end - start)

    def record_shard(
        self,
        phase: str,
        shard: int,
        result: "ShardResult",
        shard_phase: Optional[str] = None,
    ) -> None:
        """Fold one shard's executor-timed region into the accounting.

        Shard executors time the per-shard work with their own clock reads
        — possibly on a pool thread — and hand them back with the
        product; this is the ingestion point: the same bookkeeping as
        :meth:`timed`, with the clock reads supplied instead of taken.  In
        traced runs the region also lands as a span on the worker's track
        (``shard<N>`` for inline work).
        """
        if self.tracer is not None:
            self.tracer.record_span(
                shard_phase or phase,
                track=result.track or f"shard{shard}",
                start_s=result.start_s,
                end_s=result.end_s,
                args={"shard": shard},
            )
        self._record(
            phase, shard, shard_phase, result.end_s - result.start_s
        )

    def absorb_cast(self, ctx: StepContext) -> None:
        """Merge a context's cast-stage accounting into the run totals."""
        self.timings.merge(ctx.cast_timings)
        if ctx.cast_shard_timings is not None and self.shard_timings is not None:
            for mine, theirs in zip(self.shard_timings, ctx.cast_shard_timings):
                mine.merge(theirs)
        if self.tracer is not None and ctx.cast_spans:
            self.tracer.absorb(ctx.cast_spans)
            ctx.cast_spans = []

    def finish_step(self, ctx: StepContext) -> None:
        """Record a completed step's loss, samples, and exchange bytes."""
        self.losses.append(ctx.loss)
        if ctx.data is not None:
            self.samples += ctx.data.size
        if ctx.plan is not None:
            self.forward_exchange_bytes += ctx.plan.forward_exchange_bytes
            self.backward_exchange_bytes += ctx.plan.backward_exchange_bytes

    def report_fields(self) -> Dict[str, Any]:
        """The report fields this collector owns (the engine adds the rest)."""
        return {
            "losses": self.losses,
            "timings": self.timings,
            "steps": len(self.losses),
            "shard_timings": self.shard_timings,
            "exchange_bytes": (
                self.forward_exchange_bytes + self.backward_exchange_bytes
            ),
            "forward_exchange_bytes": self.forward_exchange_bytes,
            "backward_exchange_bytes": self.backward_exchange_bytes,
            "samples": self.samples,
        }


@dataclass(frozen=True)
class StepStages:
    """The stage plan of one training configuration.

    ``draw`` and ``cast`` are held separately from the ``compute`` tuple
    because they are the two stages a scheduler is allowed to hoist off the
    critical path (``draw`` needs only the RNG/source, ``cast`` only the
    drawn indices); the compute stages always run in order on the step
    loop's thread against the current parameters.
    """

    draw: Stage
    cast: Stage
    compute: Tuple[Stage, ...]
    mode: str
    num_shards: Optional[int] = None
    tracer: Optional["Tracer"] = None

    def new_context(self) -> StepContext:
        ctx = StepContext(mode=self.mode, tracer=self.tracer)
        if self.num_shards is not None:
            ctx.cast_shard_timings = [
                PhaseTimings() for _ in range(self.num_shards)
            ]
        return ctx

    def stage_names(self) -> Tuple[str, ...]:
        """The plan in execution order (draw, cast, then compute)."""
        return (self.draw.name, self.cast.name) + tuple(
            stage.name for stage in self.compute
        )


def build_step_stages(
    trainer: "FunctionalTrainer",
    collector: StageTimingCollector,
    batch: int,
    rng: np.random.Generator,
    mode: str,
    executor: "InlineShardExecutor | None" = None,
) -> StepStages:
    """Bind the stage plan for one run of ``trainer``.

    Unsharded: ``draw → cast → forward → backward → optimize``.
    Sharded: ``draw → cast → gather → exchange → forward → backward →
    optimize``.  Both plans execute the exact kernels the pre-refactor
    loops ran, in the exact order — pinned by the differential suite in
    ``tests/runtime/test_engine.py``.  ``executor`` is where the sharded
    stages run their per-shard work (default: inline).
    """
    draw = DrawStage(trainer.stream, batch, rng)
    if trainer.sharded is None:
        return StepStages(
            draw=draw,
            cast=CastStage(trainer.backend),
            compute=(
                ForwardStage(trainer.model, collector),
                BackwardStage(trainer.model, collector),
                OptimizeStage(trainer.model, trainer.optimizer, collector),
            ),
            mode=mode,
            tracer=collector.tracer,
        )
    sharded = trainer.sharded
    if executor is None:
        executor = InlineShardExecutor()
    return StepStages(
        draw=draw,
        cast=ShardedCastStage(sharded, executor),
        compute=(
            GatherStage(trainer.model, sharded, collector, executor),
            ExchangeStage(sharded, collector),
            ShardedForwardStage(trainer.model, collector),
            ShardedBackwardStage(
                trainer.model, sharded, collector, executor
            ),
            ShardedOptimizeStage(
                trainer.model, sharded, trainer.optimizer, collector
            ),
        ),
        mode=mode,
        num_shards=sharded.num_shards,
        tracer=collector.tracer,
    )
