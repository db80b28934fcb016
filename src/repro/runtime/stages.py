"""The step's working state and its wall-clock accounting.

One training step is a fixed sequence — draw, cast, gather, exchange,
dense forward, loss, backward, update — run by
:meth:`repro.runtime.engine.TrainingEngine.execute`.  This module holds
what that sequence carries and what it measures:

* :class:`StepContext` — one batch's working state, from its draw to its
  completion;
* :class:`StageTimingCollector` — the one timing scope
  (:meth:`~StageTimingCollector.timed`) that every phase records through,
  and the run's :class:`PhaseTimings`, losses and exchange bytes;
* :class:`TrainingReport` / :class:`InferenceReport` — what a run returns.

The cast is index-only work, so under look-ahead it runs on the cast-ahead
worker while the previous batch computes (the paper's Section IV-B
overlap).  It therefore times into its context's own collector on the
``cast`` track, which buffers its spans; the step loop merges it into the
run's collector (:meth:`~StageTimingCollector.absorb`) on its own thread
once the cast is known complete.  When the collector carries a
:class:`~repro.obs.tracer.Tracer`, the *same* clock reads that feed the
phase totals also become trace spans — one span per phase per step,
shards on their own tracks — which is why the exported trace reconciles
with the report exactly rather than approximately.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, TYPE_CHECKING

import numpy as np

from ..data.source import CTRBatch
from ..model.sharded import ShardedStepPlan

if TYPE_CHECKING:
    from ..obs.tracer import SpanRecord, Tracer

__all__ = [
    "PhaseTimings",
    "TrainingReport",
    "InferenceReport",
    "StepContext",
    "StageTimingCollector",
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
    evaluation pass; the loss is *observed*, never backpropagated (neither
    the backward nor the update runs, so parameters and optimizer state are
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


class StageTimingCollector:
    """Run-level accountant: phase timings, losses, exchange bytes, report.

    One instance per training run, plus one per step context for its cast.
    Every phase records wall-clock through the :meth:`timed` scope into
    :attr:`timings` / :attr:`shard_timings`; :meth:`absorb` merges a
    context's cast collector into the run's.  :meth:`finish_step` harvests
    the per-step products (loss, the sharded plan's all-to-all byte
    counters); :meth:`report_fields` hands the engine everything the
    report needs from here.

    With a ``tracer``, every :meth:`timed` scope additionally records one
    trace span from the *same* pair of clock reads that feeds the phase
    total — trace and report cannot drift apart.  Spans land on the
    ``main`` track, or on ``shard<N>`` for per-shard work; a collector
    given a ``track`` puts every span there and buffers it in
    :attr:`spans` until :meth:`absorb` hands it to the tracer.  Without a
    tracer (the default), timing uses :func:`time.perf_counter`.
    """

    def __init__(self, num_shards: int = 1,
                 tracer: Optional["Tracer"] = None,
                 track: Optional[str] = None) -> None:
        self.timings = PhaseTimings()
        self.shard_timings = [PhaseTimings() for _ in range(num_shards)]
        self.tracer = tracer
        self.track = track
        self.spans: List["SpanRecord"] = []
        self.losses: List[float] = []
        self.samples = 0
        self.forward_exchange_bytes = 0
        self.backward_exchange_bytes = 0

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
        (default: the shard phase, else the phase), with a ``shard``
        argument for per-shard work.
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
                    track=self.track or (
                        "main" if shard is None else f"shard{shard}"
                    ),
                    start_s=start,
                    end_s=end,
                    args=None if shard is None else {"shard": shard},
                    sink=None if self.track is None else self.spans,
                )
            if shard is not None:
                self.shard_timings[shard].add(shard_phase or phase, end - start)
            self.timings.add(phase, end - start)

    def absorb(self, other: "StageTimingCollector") -> None:
        """Merge another collector's timings and buffered spans into this one."""
        self.timings.merge(other.timings)
        for mine, theirs in zip(self.shard_timings, other.shard_timings):
            mine.merge(theirs)
        if self.tracer is not None and other.spans:
            self.tracer.absorb(other.spans)
            other.spans = []

    def finish_step(self, ctx: "StepContext") -> None:
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


@dataclass
class StepContext:
    """Mutable working state of one batch, from its draw to its completion.

    A fresh context per step, so two in-flight contexts (look-ahead keeps
    two) never share mutable state.  ``cast`` is the context's own
    collector for the same reason: the cast may run on the cast-ahead
    worker, and what it records reaches the run's collector only through
    :meth:`StageTimingCollector.absorb`, on the step loop's thread.
    """

    data: CTRBatch
    cast: StageTimingCollector
    plan: Optional[ShardedStepPlan] = None
    loss: Optional[float] = None
    logits: Optional[np.ndarray] = None
    dlogits: Optional[np.ndarray] = None
