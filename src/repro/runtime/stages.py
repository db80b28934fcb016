"""Stage decomposition of one training step: the engine's vocabulary.

The paper's core claim is that recommendation training decomposes into a
small set of reusable tensor primitives that one runtime can schedule many
ways.  This module encodes that claim structurally: one training step is
*one plan* of named :class:`Stage` objects, at every shard count —

``draw``
    pull the next mini-batch from the :class:`~repro.data.source.BatchSource`;
``cast``
    the per-shard index partition, then (casted mode) Tensor Casting
    (Algorithm 2) over every shard's slice.  Depends only on index data,
    which is why a scheduler may run it arbitrarily far ahead of the
    batch's compute (the Section IV-B overlap);
``gather``
    per-shard embedding gather-reduce into partial pooled sums;
``exchange``
    the forward all-to-all shipping partials to their sample owners;
``forward``
    the dense model forward over the pooled vectors, and the loss;
``backward``
    dense backpropagation, then each shard's backward all-to-all and its
    coalesced sparse gradients (the casted gather-reduce over its cast, or
    the baseline expand-coalesce over its raw pairs);
``optimize``
    dense optimizer step plus each shard's row-coalesced scatter-updates.

— all operating on a shared mutable :class:`StepContext`.  The stages
carry the *numerics*; :mod:`repro.runtime.engine` carries the one step loop
whose :class:`~repro.runtime.policy.SchedulePolicy` decides when each stage
of which batch runs.  The embedding stages loop over the shards in shard
order, running each shard's phase of :mod:`repro.model.sharded` and timing
it into that shard's accounting; the default trainer is the one-shard case
of the same plan.  Every policy executes the same stage objects, which is
what makes them bit-identical by construction.

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
from typing import Any, Dict, Iterator, List, Optional, Tuple, TYPE_CHECKING

import numpy as np

from ..data.source import BatchSource, CTRBatch, SourceExhausted
from ..model.loss import bce_with_logits
from ..model.sharded import ShardedStepPlan

if TYPE_CHECKING:  # runtime imports would cycle through the trainer facade
    from ..model.dlrm import DLRM
    from ..model.optim import Optimizer
    from ..model.sharded import ShardedEmbeddingSet
    from ..obs.tracer import SpanRecord, Tracer
    from .trainer import FunctionalTrainer

__all__ = [
    "PhaseTimings",
    "TrainingReport",
    "InferenceReport",
    "StepContext",
    "Stage",
    "DrawStage",
    "CastStage",
    "GatherStage",
    "ExchangeStage",
    "ForwardStage",
    "BackwardStage",
    "OptimizeStage",
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

    ``shard_timings`` holds one :class:`PhaseTimings` per shard (phases
    ``casting`` / ``gather`` / ``backward`` / ``update``; one entry for the
    default one-shard trainer).  The exchange-byte counters are the
    simulated all-to-all payload across all steps, attributed per pipeline
    stage — ``forward_exchange_bytes`` (partial pooled sums to the sample
    owners) plus ``backward_exchange_bytes`` (gradient rows and ``(src,
    dst)`` pairs to the table owners, the same in both modes), with
    ``exchange_bytes`` their sum.  At one shard they count what a single
    device would ship: every touched output row and every pair.

    ``wall_seconds`` is the end-to-end wall-clock of the whole
    :meth:`~repro.runtime.trainer.FunctionalTrainer.train` call — the
    denominator of :attr:`steps_per_second`, which is how the pipelined and
    serial trainers' throughput are compared.

    ``backend`` records which kernel engine the run's hot kernels routed
    through (the trainer's resolved ``backend=`` knob) so a throughput
    number is never separated from the engine that produced it.

    ``steps`` is the number of iterations that *actually* trained — less
    than requested when a finite batch source exhausted mid-run.
    """

    losses: List[float]
    timings: PhaseTimings
    mode: str
    steps: int
    shard_timings: List[PhaseTimings] = field(default_factory=list)
    exchange_bytes: int = 0
    forward_exchange_bytes: int = 0
    backward_exchange_bytes: int = 0
    wall_seconds: float = 0.0
    backend: str = "vectorized"
    samples: int = 0

    @property
    def final_loss(self) -> float:
        return self.losses[-1]

    @property
    def initial_loss(self) -> float:
        return self.losses[0]

    @property
    def num_shards(self) -> int:
        """Shard count of the run."""
        return len(self.shard_timings)

    @property
    def steps_per_second(self) -> float:
        """Measured training throughput (0.0 when wall time was not recorded)."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.steps / self.wall_seconds


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
    ``partition``/``casting``, ``forward``, ``exchange``, ``loss``);
    ``samples`` counts every scored sample, and ``forward_exchange_bytes``
    accounts the forward all-to-all (there is no backward exchange, so
    ``backward_exchange_bytes`` stays 0).
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
    plan: Optional[ShardedStepPlan] = None
    loss: Optional[float] = None
    logits: Optional[np.ndarray] = None
    dlogits: Optional[np.ndarray] = None
    emb_outs: Optional[List[np.ndarray]] = None
    grad_tables: Optional[List[np.ndarray]] = None
    per_shard_coalesced: Optional[List[list]] = None
    cast_timings: PhaseTimings = field(default_factory=PhaseTimings)
    cast_shard_timings: List[PhaseTimings] = field(default_factory=list)
    tracer: Optional["Tracer"] = None
    cast_spans: List["SpanRecord"] = field(default_factory=list)


@contextmanager
def _cast_timed(ctx: StepContext, phase: str,
                shard: Optional[int] = None) -> Iterator[None]:
    """Time a cast-stage region into the *context's* accounting.

    The cast stage may run on the cast-ahead worker, so everything it
    records — the phase seconds (also into ``shard``'s accounting when
    given) and, in traced runs, the span — stays on the context until
    :meth:`StageTimingCollector.absorb_cast` folds it into the run totals
    on the step loop's thread.  Spans land on the ``cast`` track (the
    cast-ahead worker's Perfetto lane) with the same clock reads that feed
    the timings.
    """
    tracer = ctx.tracer
    clock = tracer.now if tracer is not None else time.perf_counter
    start = clock()
    try:
        yield
    finally:
        end = clock()
        if tracer is not None:
            tracer.record_span(
                phase,
                track="cast",
                start_s=start,
                end_s=end,
                args=None if shard is None else {"shard": shard},
                sink=ctx.cast_spans,
            )
        ctx.cast_timings.add(phase, end - start)
        if shard is not None:
            ctx.cast_shard_timings[shard].add(phase, end - start)


class Stage:
    """One named unit of a training step, operating on a :class:`StepContext`.

    Stages are bound to their collaborators (model, optimizer, sharded
    embedding set, collector) at plan-build time; :meth:`run` takes only the
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
    """``cast``: split the batch by shard, then (casted mode) cast every slice.

    Consumes index data only — no parameters, no gradients — so under
    look-ahead it runs for batch ``i+1`` concurrently with batch ``i``'s
    compute.  Each shard's Algorithm 2 is timed into that shard's
    accounting.  In baseline mode the stage only partitions: the
    expand-coalesce backward has no casting stage, and the ``casting``
    phase must not appear in its report.
    """

    name = "cast"

    def __init__(self, sharded: "ShardedEmbeddingSet") -> None:
        self.sharded = sharded

    def run(self, ctx: StepContext) -> None:
        with _cast_timed(ctx, "partition"):
            ctx.plan = self.sharded.plan_batch(ctx.data.indices)
        if ctx.mode != "casted":
            return
        for shard in range(self.sharded.num_shards):
            with _cast_timed(ctx, "casting", shard=shard):
                self.sharded.cast_shard(ctx.plan, shard)


class GatherStage(Stage):
    """``gather``: each shard gather-reduces the lookups it owns.

    Shard by shard, in shard order; partial sums land on the plan.  Always
    on the step loop, after the previous step's ``optimize`` — a gather
    must read post-update parameters.
    """

    name = "gather"

    def __init__(self, model: "DLRM", sharded: "ShardedEmbeddingSet",
                 collector: "StageTimingCollector") -> None:
        self.model = model
        self.sharded = sharded
        self.collector = collector

    def run(self, ctx: StepContext) -> None:
        self.model.zero_grad()
        sharded = self.sharded
        for shard in range(sharded.num_shards):
            with self.collector.timed(
                "forward", shard=shard, shard_phase="gather"
            ):
                sharded.forward_shard(ctx.plan, shard)


class ExchangeStage(Stage):
    """``exchange``: the forward all-to-all back to sample owners.

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


class ForwardStage(Stage):
    """``forward``: dense forward over exchanged pooled vectors, and the loss."""

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
    """``backward``: dense backprop, then each shard's sparse backward.

    Shard by shard, in shard order: each shard's backward all-to-all
    payload (gradient rows + pairs, accounted into the plan's byte counter)
    and the reduction over it — the casted gather-reduce over the shard's
    cast, or the baseline expand-coalesce when the cast stage only
    partitioned.
    """

    name = "backward"

    def __init__(self, model: "DLRM", sharded: "ShardedEmbeddingSet",
                 collector: "StageTimingCollector") -> None:
        self.model = model
        self.sharded = sharded
        self.collector = collector

    def run(self, ctx: StepContext) -> None:
        sharded = self.sharded
        with self.collector.timed("backward"):
            ctx.grad_tables = self.model.backward_through_dense(ctx.dlogits)
            sharded.prepare_backward(ctx.plan, ctx.grad_tables)
        ctx.per_shard_coalesced = []
        for shard in range(sharded.num_shards):
            with self.collector.timed("backward", shard=shard):
                ctx.per_shard_coalesced.append(
                    sharded.backward_shard(ctx.plan, shard, ctx.grad_tables)
                )


class OptimizeStage(Stage):
    """``optimize``: dense step + per-shard local scatter-updates."""

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
            with self.collector.timed("update", shard=shard, span="optimize"):
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

    def __init__(self, num_shards: int = 1,
                 tracer: Optional["Tracer"] = None) -> None:
        self.timings = PhaseTimings()
        self.shard_timings = [PhaseTimings() for _ in range(num_shards)]
        self.tracer = tracer
        self.losses: List[float] = []
        self.samples = 0
        self.forward_exchange_bytes = 0
        self.backward_exchange_bytes = 0

    def _record(self, phase: str, shard: Optional[int],
                shard_phase: Optional[str], seconds: float) -> None:
        if shard is not None:
            self.shard_timings[shard].add(shard_phase or phase, seconds)
        self.timings.add(phase, seconds)

    @contextmanager
    def timed(
        self,
        phase: str,
        shard: Optional[int] = None,
        shard_phase: Optional[str] = None,
        span: Optional[str] = None,
    ) -> Iterator[None]:
        """Time a region into ``phase`` (and ``shard``'s accounting).

        ``shard_phase`` renames the per-shard entry when it differs from
        the run-level phase (a shard's ``gather`` seconds land in the
        run-level ``forward`` total).
        In traced runs the region also becomes a span named ``span``
        (default: the shard phase, else the phase) on the ``main`` track,
        or on ``shard<N>`` with a ``shard`` argument for per-shard work.
        """
        tracer = self.tracer
        clock = tracer.now if tracer is not None else time.perf_counter
        start = clock()
        try:
            yield
        finally:
            end = clock()
            if tracer is not None:
                tracer.record_span(
                    span or shard_phase or phase,
                    track="main" if shard is None else f"shard{shard}",
                    start_s=start,
                    end_s=end,
                    args=None if shard is None else {"shard": shard},
                )
            self._record(phase, shard, shard_phase, end - start)

    def absorb_cast(self, ctx: StepContext) -> None:
        """Merge a context's cast-stage accounting into the run totals."""
        self.timings.merge(ctx.cast_timings)
        for mine, theirs in zip(self.shard_timings, ctx.cast_shard_timings):
            mine.merge(theirs)
        if self.tracer is not None and ctx.cast_spans:
            self.tracer.absorb(ctx.cast_spans)
            ctx.cast_spans = []

    def finish_step(self, ctx: StepContext) -> None:
        """Record a completed step's loss, samples, and exchange bytes."""
        self.losses.append(ctx.loss)
        self.samples += ctx.data.size
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
    num_shards: int
    tracer: Optional["Tracer"] = None

    def new_context(self) -> StepContext:
        return StepContext(
            mode=self.mode,
            tracer=self.tracer,
            cast_shard_timings=[
                PhaseTimings() for _ in range(self.num_shards)
            ],
        )

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
) -> StepStages:
    """Bind the stage plan for one run of ``trainer``.

    ``draw → cast → gather → exchange → forward → backward → optimize``, at
    every shard count and in both modes.  It executes the exact kernels the
    pre-refactor loops ran, in the exact order — pinned by the
    differential suite in ``tests/runtime/test_engine.py``.
    """
    sharded = trainer.sharded
    return StepStages(
        draw=DrawStage(trainer.stream, batch, rng),
        cast=CastStage(sharded),
        compute=(
            GatherStage(trainer.model, sharded, collector),
            ExchangeStage(sharded, collector),
            ForwardStage(trainer.model, collector),
            BackwardStage(trainer.model, sharded, collector),
            OptimizeStage(
                trainer.model, sharded, trainer.optimizer, collector
            ),
        ),
        mode=mode,
        num_shards=sharded.num_shards,
        tracer=collector.tracer,
    )
