"""The stage-graph training engine: one step loop, one policy record, one plan.

* :mod:`repro.runtime.stages` decomposes every step — one shard or many,
  either backward mode — into the same plan of named stages bound to a
  shared :class:`~repro.runtime.stages.StepContext`;
* :meth:`TrainingEngine.execute` is the **only** step loop: draw a batch,
  cast it (inline, or ahead on a :class:`CastAheadWorker` while the
  previous batch computes — the paper's Section IV-B overlap), run the
  compute stages, complete the step.  What varies between "serial",
  "pipelined" and "inference" is a field of the frozen
  :class:`~repro.runtime.policy.SchedulePolicy` the loop reads —
  look-ahead depth, stage subset — never a second loop, so the axes
  compose by construction;
* :class:`TrainingEngine` owns the run: source fast-forward for resumed
  jobs (``start_step``), the cast-ahead worker's lifetime, the timing
  collector, report assembly
  (:class:`~repro.runtime.stages.TrainingReport`, or
  :class:`~repro.runtime.stages.InferenceReport` for forward-only runs),
  and the **callback protocol** (:class:`TrainingCallback`: ``on_step_end``
  / ``on_run_end``) that funds checkpointing
  (:mod:`repro.runtime.checkpoint`) and metrics logging
  (:class:`MetricsLogger`) without touching the loop.

Batches are always drawn on the step loop's thread, in step order, so every
policy consumes the source and the RNG exactly as the plain serial run does
— the root of the bit-identity the differential suites pin
(``tests/runtime/test_policy.py`` over the policy product, against the
frozen pre-refactor loops in ``tests/runtime/_legacy_trainer.py``).
"""

from __future__ import annotations

import time
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
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

from ..backends.dispatch import observe_kernels
from ..data.source import SourceExhausted
from ..obs.metrics import Gauge, MetricRegistry
from .policy import SchedulePolicy
from .stages import (
    InferenceReport,
    StageTimingCollector,
    StepContext,
    StepStages,
    TrainingReport,
    build_step_stages,
)

if TYPE_CHECKING:  # runtime import would cycle through the trainer facade
    from ..obs.session import Observability
    from .trainer import FunctionalTrainer

__all__ = [
    "CastAheadWorker",
    "INFERENCE_STAGES",
    "MetricsLogger",
    "RunEvent",
    "StepEvent",
    "TrainingCallback",
    "TrainingEngine",
]

#: Compute-stage names a forward-only run executes (the forward prefix).
#: ``backward`` and ``optimize`` are never invoked, so the frozen-parameter
#: guarantee of ``infer()`` is structural.
INFERENCE_STAGES = ("gather", "exchange", "forward")


class CastAheadWorker:
    """A one-thread worker queue for cast-ahead (prefetch) jobs.

    Thin wrapper over :class:`concurrent.futures.ThreadPoolExecutor` with a
    single worker thread — the functional stand-in for the accelerator that
    runs the casting stage in the paper's runtime (the GPU in Figure 9(b)).
    Jobs are timed on the worker, so callers can split "how long the hidden
    work took" (the returned seconds) from "how long the critical path
    waited for it" (their own clock around ``Future.result()``).

    Usable as a context manager; exiting shuts the worker down and waits
    for in-flight jobs.
    """

    def __init__(self) -> None:
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="cast-ahead"
        )

    def submit(
        self, fn: Callable[..., Any], *args: Any
    ) -> "Future[Tuple[Any, float]]":
        """Queue ``fn(*args)``; the future resolves to ``(result, seconds)``."""

        def timed() -> Tuple[Any, float]:
            start = time.perf_counter()
            result = fn(*args)
            return result, time.perf_counter() - start

        return self._executor.submit(timed)

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

    Owns the per-run machinery: the stage plan, the timing collector, the
    cast-ahead worker's lifetime, source fast-forward for
    resumed jobs, callback dispatch, and report assembly (wall clock
    included).  Constructed per ``train()`` /
    ``infer()`` call by the trainer; usable directly.

    ``obs`` (an :class:`~repro.obs.session.Observability`, default
    ``None``) turns on the observability plane for the run: the collector
    emits one trace span per stage per step (plus a ``step`` envelope
    span), every dispatched kernel is counted, each completed step lands in
    the JSONL step stream, and run-level facts (backend, mode, tuning
    decisions) are published when the report is built.
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
        self.policy = SchedulePolicy()
        self.logits: List[np.ndarray] = []

    def run(
        self,
        batch: int,
        steps: int,
        rng: np.random.Generator,
        mode: str,
        policy: SchedulePolicy = SchedulePolicy(),
        callbacks: Sequence[TrainingCallback] = (),
        start_step: int = 0,
    ) -> TrainingReport:
        """Execute ``steps`` iterations of the trainer under ``policy``.

        ``start_step`` fast-forwards the batch source by drawing and
        discarding that many steps' batches before training — consuming the source
        and ``rng`` exactly as the skipped steps would have — so a resumed
        run (parameters and optimizer state restored from a checkpoint)
        continues the stream where the interrupted run left off and stays
        bit-identical to an uninterrupted one.  Callbacks see global step
        numbers offset by ``start_step``.

        A ``forward_only`` policy returns an
        :class:`~repro.runtime.stages.InferenceReport` carrying each step's
        raw forward outputs; everything else about the run is the same.
        """
        trainer = self.trainer
        self.callbacks = tuple(callbacks)
        self.start_step = int(start_step)
        self.policy = policy
        self.logits = []
        self.collector = StageTimingCollector(
            trainer.sharded.num_shards,
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
                if policy.lookahead
                else None
            )
            stages = build_step_stages(
                trainer, self.collector, batch, rng, mode
            )
            self.execute(stages, steps, worker)
        if not self.collector.losses:
            raise ValueError(
                "the batch source was exhausted before the first step"
            )
        fields = dict(
            self.collector.report_fields(),
            mode=mode,
            backend=trainer.backend.name,
            wall_seconds=time.perf_counter() - wall_start,
        )
        report = (
            InferenceReport(logits=self.logits, **fields)
            if policy.forward_only
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
        stages: StepStages,
        steps: int,
        worker: Optional[CastAheadWorker] = None,
    ) -> None:
        """The step loop — the only one.

        Keeps ``lookahead + 1`` drawn batches in flight.  Each is drawn on
        this thread (RNG order is step order under every policy); with a
        ``worker`` its ``cast`` stage is queued there the moment it is
        drawn, so batch ``i+1`` casts while batch ``i`` computes, and the
        step only *waits* for the cast (``cast_wait`` — the exposed
        remainder of the casting stage; ≈0 under full overlap).  The worker
        touches only the next context's index data while this thread
        mutates parameters of the current batch; the two never share
        mutable state.  A source that exhausts stops the loop after the
        batches already drawn.
        """
        policy = self.policy
        compute = tuple(
            stage for stage in stages.compute
            if not policy.forward_only or stage.name in INFERENCE_STAGES
        )
        inflight: Deque[
            Tuple[StepContext, "Optional[Future[Tuple[Any, float]]]"]
        ] = deque()
        drawn, source_open = 0, True
        for _ in range(steps):
            while (source_open and drawn < steps
                   and len(inflight) <= policy.lookahead):
                ctx, source_open = self._draw(stages)
                if ctx.data is None:
                    break
                drawn += 1
                inflight.append((
                    ctx,
                    worker.submit(stages.cast.run, ctx)
                    if worker is not None else None,
                ))
            if not inflight:
                break
            ctx, future = inflight.popleft()
            with self.step_scope():
                if future is None:
                    stages.cast.run(ctx)
                else:
                    with self.collector.timed("cast_wait"):
                        future.result()
                self.collector.absorb_cast(ctx)
                for stage in compute:
                    stage.run(ctx)
                self.complete_step(ctx)
            # Release the finished step before the next draw, so its
            # activations and gradients never coexist with a new batch.
            del ctx, future

    def _draw(self, stages: StepStages) -> Tuple[StepContext, bool]:
        """Draw one step's batch; ``(context, source still open)``.

        The single draw site, timed as ``draw`` under every policy;
        ``ctx.data`` is ``None`` once the source is exhausted.
        """
        ctx = stages.new_context()
        with self.collector.timed("draw"):
            stages.draw.run(ctx)
        return ctx, ctx.data is not None

    def complete_step(self, ctx: StepContext) -> None:
        """Harvest a finished step and fire ``on_step_end`` callbacks."""
        self.collector.finish_step(ctx)
        if self.policy.forward_only:
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
        """Manifest + run-level metrics once the report exists."""
        obs = self.obs
        assert obs is not None
        obs.annotate(
            backend=report.backend,
            mode=mode,
            steps=report.steps,
            num_shards=report.num_shards,
        )
        tuner = getattr(self.trainer.backend, "tuner", None)
        if tuner is not None and hasattr(tuner, "publish_metrics"):
            tuner.publish_metrics(obs.metrics)
