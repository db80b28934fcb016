"""The training engine: one step loop, one step body.

:meth:`TrainingEngine.execute` is the **only** step loop, and every step
runs the same body in both backward modes:

``draw``
    pull the next mini-batch from the :class:`~repro.data.source.BatchSource`
    and bring its dense features to the model's dtype — the data → model
    seam, crossed once per batch, so the step never holds the source's
    float64 array beside a float32 model's copy of it;
``cast`` (:meth:`TrainingEngine._cast`)
    (casted mode) Tensor Casting (Algorithm 2), table by table
    (:meth:`~repro.model.embedding.EmbeddingBag.precompute_cast`).  It
    depends only on index data, so with ``lookahead=1`` it runs on a
    :class:`CastAheadWorker` while the previous batch computes — the
    paper's Section IV-B overlap;
``forward`` (:meth:`TrainingEngine._forward`)
    each table's gather-reduce
    (:meth:`~repro.model.embedding.EmbeddingBag.forward`), the dense
    forward and the loss;
``backward`` / ``update`` (:meth:`TrainingEngine._backward`)
    dense backpropagation, then table by table: the table's coalesced
    gradient (:meth:`~repro.model.embedding.EmbeddingBag.backward` — the
    casted gather-reduce over its cast, or the baseline expand-coalesce),
    timed as ``backward``, applied at once by the optimizer's sparse row
    update, timed as ``update`` — so one table's ``(u, dim)`` gradient is
    alive at a time, never every table's; the dense optimizer step runs
    last.  Tables and dense parameters are disjoint, so the order moves no
    bit.

A forward-only run (``infer()``) skips the last phase and drops what the
forward saved for it (:meth:`~repro.model.dlrm.DLRM.release_activations`);
a training step releases each bag's index after that table's update, so
no step keeps anything of its batch into the next draw.  The embedding
phases call the bags' own methods — the ones
:meth:`~repro.model.dlrm.DLRM.train_step` calls — so there is one
embedding call path.

A step that fails is **atomic or torn**.  A failure before the step's
first parameter write (in the draw, the cast, the forward, the dense
backward or the first table's reduction) leaves the parameters and
optimizer state of the last completed step untouched, and the same
trainer may go on.  A failure after it marks the trainer torn at that
global step (:attr:`~repro.runtime.trainer.FunctionalTrainer.torn_step`)
and still propagates the original exception; until
:func:`~repro.runtime.checkpoint.restore_trainer` clears the mark,
``train()``, ``infer()`` and ``save_checkpoint`` refuse the trainer with a
``RuntimeError`` naming the step.

:class:`TrainingEngine` also owns the run: argument checks, source
fast-forward for resumed jobs (``start_step``), the cast-ahead worker's
lifetime, the timing collector
(:class:`~repro.runtime.stages.StageTimingCollector`), report assembly
(:class:`~repro.runtime.stages.TrainingReport`, or
:class:`~repro.runtime.stages.InferenceReport` for forward-only runs), and
the **callback protocol** (:class:`TrainingCallback`: ``on_step_end`` /
``on_run_end``) that funds checkpointing (:mod:`repro.runtime.checkpoint`)
and metrics logging (:class:`MetricsLogger`) without touching the loop.

Batches are always drawn on the step loop's thread, in step order, so a
cast-ahead run consumes the source and the RNG exactly as the inline run
does — the root of the bit-identity the differential suites pin
(``tests/runtime/test_policy.py`` over look-ahead × mode × {train,
infer}, against the frozen pre-refactor loops in
``tests/runtime/_legacy_trainer.py``).
"""

from __future__ import annotations

import time
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, replace
from typing import (
    Any,
    Callable,
    Deque,
    Iterator,
    List,
    Optional,
    Sequence,
    TextIO,
    Tuple,
    TYPE_CHECKING,
)

import numpy as np

from ..core.observe import observe_kernels
from ..data.source import SourceExhausted, non_negative_int, positive_int
from ..model.embedding import _BACKWARD_MODES
from ..model.loss import bce_with_logits
from ..obs.metrics import Gauge, MetricRegistry
from .stages import (
    InferenceReport,
    StageTimingCollector,
    StepContext,
    TrainingReport,
)

if TYPE_CHECKING:  # runtime import would cycle through the trainer facade
    from ..obs.session import Observability
    from .trainer import FunctionalTrainer

__all__ = [
    "CastAheadWorker",
    "MetricsLogger",
    "RunEvent",
    "StepEvent",
    "TrainingCallback",
    "TrainingEngine",
]


class CastAheadWorker:
    """A one-thread worker queue for cast-ahead (prefetch) jobs.

    Thin wrapper over :class:`concurrent.futures.ThreadPoolExecutor` with a
    single worker thread — the functional stand-in for the accelerator that
    runs the casting stage in the paper's runtime (the GPU in Figure 9(b)).

    Usable as a context manager; exiting shuts the worker down and waits
    for in-flight jobs.
    """

    def __init__(self) -> None:
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="cast-ahead"
        )

    def submit(self, fn: Callable[..., Any], *args: Any) -> "Future[Any]":
        """Queue ``fn(*args)``; the future resolves to its result."""
        return self._executor.submit(fn, *args)

    def shutdown(self) -> None:
        """Stop accepting work and wait for any in-flight job."""
        self._executor.shutdown(wait=True)

    def __enter__(self) -> "CastAheadWorker":
        return self

    def __exit__(self, *exc_info: Any) -> bool:
        self.shutdown()
        return False


# ----------------------------------------------------------------------
# Callback protocol
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class StepEvent:
    """Fired after each completed training step.

    ``step`` is the *global* step count — completed steps of this run plus
    the ``start_step`` offset of a resumed job — so a checkpointer names
    files consistently across interruptions.  ``trainer`` is the trainer
    driving the run (checkpointers reach its model/optimizer through it).
    """

    step: int
    loss: float
    trainer: Any


@dataclass(frozen=True)
class RunEvent:
    """Fired once when a run ends, with the final report attached."""

    step: int
    report: TrainingReport
    trainer: Any


class TrainingCallback:
    """Hook points the engine fires during a run (all optional no-ops).

    Subclass and override; exceptions propagate and abort the run (a
    checkpointer that cannot write must not fail silently).
    """

    def on_step_end(self, event: StepEvent) -> None:
        """Called after every completed step (post-``optimize``)."""

    def on_run_end(self, event: RunEvent) -> None:
        """Called once after the run's report is assembled."""


class MetricsLogger(TrainingCallback):
    """Collect (step, loss) history; optionally stream progress lines.

    The minimal useful callback — and the protocol's reference
    implementation.  The loss curve is stored as a ``train.loss`` gauge in
    a :class:`~repro.obs.metrics.MetricRegistry` (pass ``registry=`` to
    share one — e.g. an :class:`~repro.obs.session.Observability`'s — or
    let the logger own a private one); :attr:`history` stays the public
    ``(global_step, loss)`` view it always was.  With a ``stream`` (e.g.
    ``sys.stdout``) a progress line is printed every ``every`` steps plus a
    final summary.
    """

    def __init__(self, every: int = 1, stream: Optional[TextIO] = None,
                 registry: Optional[MetricRegistry] = None) -> None:
        if every <= 0:
            raise ValueError(f"every must be positive, got {every}")
        self.every = int(every)
        self.stream = stream
        self.registry = registry if registry is not None else MetricRegistry()
        self._series: Gauge = self.registry.gauge("train.loss")

    @property
    def history(self) -> list[tuple[int, float]]:
        """Every ``(global_step, loss)`` pair seen so far, in step order."""
        return [(int(at), value) for at, value in self._series.samples]

    def on_step_end(self, event: StepEvent) -> None:
        self._series.set(event.loss, at=event.step)
        if self.stream is not None and event.step % self.every == 0:
            print(f"step {event.step}: loss {event.loss:.6f}", file=self.stream)

    def on_run_end(self, event: RunEvent) -> None:
        if self.stream is not None:
            report = event.report
            print(
                f"run ended at step {event.step}: {report.steps} steps, "
                f"final loss {report.final_loss:.6f}",
                file=self.stream,
            )


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------

class TrainingEngine:
    """Drive one run of a trainer through the step loop.

    Owns the per-run machinery: the argument checks, the timing collector,
    the cast-ahead worker's lifetime, source fast-forward for resumed jobs,
    callback dispatch, and report assembly (wall clock included).
    Constructed per ``train()`` / ``infer()`` call by the trainer; usable
    directly.

    ``obs`` (an :class:`~repro.obs.session.Observability`, default
    ``None``) turns on the observability plane for the run: the collector
    emits one trace span per phase per step (plus a ``step`` envelope
    span), every kernel launch is counted, each completed step lands in
    the JSONL step stream, and run-level facts (mode, steps) are
    published when the report is built.
    With ``obs=None`` none of those paths execute and the run is
    bit-identical to the uninstrumented engine.
    """

    def __init__(self, trainer: "FunctionalTrainer",
                 obs: "Observability | None" = None) -> None:
        self.trainer = trainer
        self.obs = obs
        self.collector: StageTimingCollector = StageTimingCollector()
        self.callbacks: Tuple[TrainingCallback, ...] = ()
        self.start_step = 0
        self.mode = "casted"
        self.forward_only = False
        self.logits: List[np.ndarray] = []

    def run(
        self,
        batch: int,
        steps: int,
        rng: np.random.Generator,
        mode: str,
        callbacks: Sequence[TrainingCallback] = (),
        start_step: int = 0,
        forward_only: bool = False,
    ) -> TrainingReport:
        """Execute ``steps`` iterations of the trainer.

        The arguments are checked before anything is drawn, so a rejected
        run consumes neither the source nor ``rng``: ``mode`` must be
        ``"casted"`` or ``"baseline"``, ``batch`` and ``steps`` positive
        integers and ``start_step`` a non-negative one.  The trainer's
        ``lookahead`` decides whether each cast runs inline or ahead.

        ``start_step`` fast-forwards the batch source by drawing and
        discarding that many steps' batches before training — consuming the source
        and ``rng`` exactly as the skipped steps would have — so a resumed
        run (parameters and optimizer state restored from a checkpoint)
        continues the stream where the interrupted run left off and stays
        bit-identical to an uninterrupted one.  Callbacks see global step
        numbers offset by ``start_step``.

        A ``forward_only`` run never backpropagates or updates, and returns
        an :class:`~repro.runtime.stages.InferenceReport` carrying each
        step's raw forward outputs; everything else about the run is the
        same.
        """
        if mode not in _BACKWARD_MODES:
            raise ValueError(
                f"mode must be one of {_BACKWARD_MODES}, got {mode!r}"
            )
        positive_int("batch", batch)
        positive_int("steps", steps)
        non_negative_int("start_step", start_step)
        trainer = self.trainer
        trainer.ensure_intact("infer" if forward_only else "train")
        self.callbacks = tuple(callbacks)
        self.start_step = int(start_step)
        self.mode = mode
        self.forward_only = forward_only
        self.logits = []
        self.collector = StageTimingCollector(
            tracer=self.obs.tracer if self.obs is not None else None,
        )
        for _ in range(self.start_step):
            try:
                trainer.stream.next_batch(batch, rng)
            except SourceExhausted:
                break
        # The clock starts after the fast-forward: wall_seconds (and so
        # steps_per_second) measure the steps that actually trained, not
        # the replay of already-trained ones.  The cast-ahead worker's
        # start-up and join are inside it.
        wall_start = time.perf_counter()
        with ExitStack() as stack:
            if self.obs is not None:
                stack.enter_context(observe_kernels(self.obs.metrics))
            worker = (
                stack.enter_context(CastAheadWorker())
                if trainer.lookahead
                else None
            )
            self.execute(batch, steps, rng, worker)
        if not self.collector.losses:
            raise ValueError(
                "the batch source was exhausted before the first step"
            )
        fields = dict(
            self.collector.report_fields(),
            mode=mode,
            wall_seconds=time.perf_counter() - wall_start,
        )
        report = (
            InferenceReport(logits=self.logits, **fields)
            if forward_only
            else TrainingReport(**fields)
        )
        if self.obs is not None:
            self._publish_run(report, mode)
        if self.callbacks:
            event = RunEvent(
                step=self.start_step + report.steps,
                report=report,
                trainer=trainer,
            )
            for callback in self.callbacks:
                callback.on_run_end(event)
        return report

    def execute(
        self,
        batch: int,
        steps: int,
        rng: np.random.Generator,
        worker: Optional[CastAheadWorker] = None,
    ) -> None:
        """The step loop — the only one.

        Keeps ``lookahead + 1`` drawn batches in flight.  Each is drawn on
        this thread (RNG order is step order under every look-ahead); with
        a ``worker`` its cast is queued there the moment it is drawn, so
        batch ``i+1`` casts while batch ``i`` computes, and the step only
        *waits* for the cast (``cast_wait`` — the exposed remainder of the
        casting stage; ≈0 under full overlap).  The worker touches only the
        next context's index data while this thread mutates parameters of
        the current batch; the two never share mutable state.  A source
        that exhausts stops the loop after the batches already drawn.
        """
        lookahead = self.trainer.lookahead
        inflight: Deque[Tuple[StepContext, "Optional[Future[Any]]"]] = deque()
        drawn, source_open = 0, True
        for _ in range(steps):
            while (source_open and drawn < steps
                   and len(inflight) <= lookahead):
                ctx = self._draw(batch, rng)
                if ctx is None:
                    source_open = False
                    break
                drawn += 1
                inflight.append((
                    ctx,
                    worker.submit(self._cast, ctx)
                    if worker is not None else None,
                ))
            if not inflight:
                break
            ctx, future = inflight.popleft()
            with self.step_scope():
                if future is None:
                    self._cast(ctx)
                else:
                    with self.collector.timed("cast_wait"):
                        future.result()
                self.collector.absorb(ctx.cast)
                self._forward(ctx)
                if not self.forward_only:
                    self._backward(ctx)
                self.complete_step(ctx)
            # Release the finished step before the next draw, so its
            # activations and gradients never coexist with a new batch.
            del ctx, future

    def _draw(
        self, batch: int, rng: np.random.Generator
    ) -> Optional[StepContext]:
        """Draw one step's batch into a fresh context.

        The single draw site, timed as ``draw``; ``None`` once the source
        is exhausted.  The batch's ``dense`` is brought to the model's
        dtype here, in a new :class:`~repro.data.source.CTRBatch` (the
        source may still hold its own arrays, so none is written): a
        float32 model's step holds only the cast, and the source's float64
        array is freed before the cast, the forward and the backward; a
        float64 model gets the source's array itself.
        """
        with self.collector.timed("draw"):
            try:
                data = self.trainer.stream.next_batch(batch, rng)
            except SourceExhausted:
                return None
            data = replace(data, dense=np.asarray(
                data.dense, dtype=self.trainer.model.dtype))
        return StepContext(
            data=data,
            cast=StageTimingCollector(self.collector.tracer, track="cast"),
        )

    def _cast(self, ctx: StepContext) -> None:
        """(Casted mode) cast every table's index array (Algorithm 2).

        Index-only work that may run on the cast-ahead worker, so it times
        into the context's own collector.  Baseline mode has no casting
        phase: the expand-coalesce backward reads the raw pairs.
        """
        if self.mode != "casted":
            return
        with ctx.cast.timed("casting"):
            ctx.casts = [
                bag.precompute_cast(index)
                for bag, index in zip(self.trainer.model.embeddings,
                                      ctx.data.indices)
            ]

    def _forward(self, ctx: StepContext) -> None:
        """Each table's gather-reduce, the dense forward, then the loss.

        The gathers run table by table, always after the previous step's
        update — a gather must read post-update parameters — and each bag
        keeps its index for its backward; the dense model runs over the
        pooled vectors.
        """
        trainer = self.trainer
        timed = self.collector.timed
        trainer.model.zero_grad()
        with timed("forward", span="gather"):
            pooled = [
                bag.forward(index)
                for bag, index in zip(trainer.model.embeddings,
                                      ctx.data.indices)
            ]
        with timed("forward"):
            ctx.logits = trainer.model.forward_from_pooled(
                ctx.data.dense, pooled
            )
            if self.forward_only:
                trainer.model.release_activations()
        with timed("loss"):
            ctx.loss, ctx.dlogits = bce_with_logits(
                ctx.logits, ctx.data.labels
            )

    def _backward(self, ctx: StepContext) -> None:
        """Dense backprop, each table's backward→update, the dense step.

        Table by table: the table's reduction — the casted gather-reduce
        over its cast, or the baseline expand-coalesce — then its sparse
        row update, and the gradient and the bag's index are dropped before
        the next table's reduction starts.  A table without lookups has
        nothing to reduce and is not updated.  The dense optimizer step
        runs last.

        A failure once the first parameter write has begun marks the
        trainer torn at this step and propagates.
        """
        trainer = self.trainer
        optimizer = trainer.optimizer
        timed = self.collector.timed
        with timed("backward"):
            grads = trainer.model.backward_through_dense(ctx.dlogits)
        casts = ctx.casts or [None] * len(grads)
        writing = False
        try:
            for bag, index, grad, cast in zip(
                trainer.model.embeddings, ctx.data.indices, grads, casts
            ):
                if index.num_lookups:
                    with timed("backward"):
                        sparse = bag.backward(grad, self.mode, cast)
                    writing = True
                    with timed("update", span="optimize"):
                        optimizer.apply_sparse(
                            bag.table, sparse.rows, sparse.values
                        )
                    # Dropped before the next table's reduction: one
                    # table's (u, dim) gradient is alive at a time.
                    del sparse
                bag.release()
            writing = True
            with timed("update", span="optimize"):
                optimizer.step(trainer.model.dense_parameters())
        except BaseException:
            if writing:
                trainer.torn_step = (
                    self.start_step + len(self.collector.losses) + 1
                )
            raise

    def complete_step(self, ctx: StepContext) -> None:
        """Harvest a finished step and fire ``on_step_end`` callbacks."""
        self.collector.finish_step(ctx)
        if self.forward_only:
            assert ctx.logits is not None
            self.logits.append(ctx.logits)
        step = self.start_step + len(self.collector.losses)
        if self.obs is not None:
            self._observe_step(step, ctx)
        if self.callbacks:
            event = StepEvent(step=step, loss=ctx.loss, trainer=self.trainer)
            for callback in self.callbacks:
                callback.on_step_end(event)

    @contextmanager
    def step_scope(self) -> Iterator[None]:
        """A ``step`` trace span around one step's critical-path work.

        Everything from cast (or cast-wait) through :meth:`complete_step`
        runs in this scope; the step number is the global one the step will
        get when it completes.  A no-op without ``obs``.
        """
        if self.obs is None:
            yield
            return
        step = self.start_step + len(self.collector.losses) + 1
        with self.obs.tracer.span("step", track="main", args={"step": step}):
            yield

    def _observe_step(self, step: int, ctx: StepContext) -> None:
        """Record one completed step into the stream and the metric series."""
        obs = self.obs
        assert obs is not None
        obs.record_step(type="step", step=step, loss=ctx.loss)
        obs.metrics.counter("train.steps").inc()
        obs.metrics.gauge("train.loss").set(float(ctx.loss), at=step)

    def _publish_run(self, report: TrainingReport, mode: str) -> None:
        """Annotate the run manifest once the report exists."""
        obs = self.obs
        assert obs is not None
        obs.annotate(mode=mode, steps=report.steps)
