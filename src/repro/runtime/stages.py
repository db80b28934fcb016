"""The step's working state and its wall-clock accounting.

One training step is a fixed sequence — draw, cast, gather, dense
forward, loss, backward, update — run by
:meth:`repro.runtime.engine.TrainingEngine.execute`.  This module holds
what that sequence carries and what it measures:

* :class:`StepContext` — one batch's working state, from its draw to its
  completion;
* :class:`StageTimingCollector` — the one timing scope
  (:meth:`~StageTimingCollector.timed`) that every phase records through,
  and the run's :class:`PhaseTimings` and losses;
* :class:`TrainingReport` / :class:`InferenceReport` — what a run returns.

Every phase, the cast included, runs on the step loop's thread and times
into the run's one collector.  When the collector carries a
:class:`~repro.obs.tracer.Tracer`, the *same* clock reads that feed the
phase totals also become trace spans on the ``main`` track — one span per
phase per step — which is why the exported trace reconciles with the
report exactly rather than approximately.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, TYPE_CHECKING

import numpy as np

from ..core.casting import CastedIndex
from ..data.source import CTRBatch
from ..model.loss import sigmoid

if TYPE_CHECKING:
    from ..obs.tracer import Tracer

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

    ``wall_seconds`` is the end-to-end wall-clock of the whole
    :meth:`~repro.runtime.trainer.FunctionalTrainer.train` call — the
    denominator of :attr:`steps_per_second`.

    ``steps`` is the number of iterations that *actually* trained — less
    than requested when a finite batch source exhausted mid-run.
    """

    losses: List[float]
    timings: PhaseTimings
    mode: str
    steps: int
    wall_seconds: float = 0.0
    samples: int = 0

    @property
    def final_loss(self) -> float:
        return self.losses[-1]

    @property
    def initial_loss(self) -> float:
        return self.losses[0]

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
    to what the training path's forward computes for the same batch
    (pinned by ``tests/runtime/test_infer.py``).
    :attr:`predictions` is the sigmoid view (click probabilities).
    ``losses`` records the per-batch BCE against the batch's labels —
    inference batches still carry labels, so the run doubles as an
    evaluation pass; the loss is *observed*, never backpropagated (neither
    the backward nor the update runs, so parameters and optimizer state are
    untouched — the frozen-parameter guarantee).

    ``timings`` breaks the run into the forward-side phases (``draw``,
    ``casting``, ``forward``, ``loss``); ``samples`` counts every scored
    sample.
    """

    logits: List[np.ndarray] = field(default_factory=list)

    @property
    def predictions(self) -> List[np.ndarray]:
        """Per-step click probabilities (sigmoid of :attr:`logits`)."""
        return [sigmoid(logits) for logits in self.logits]

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
    """Run-level accountant: phase timings, losses, report.

    One instance per training run.  Every phase records wall-clock through
    the :meth:`timed` scope into :attr:`timings`; :meth:`finish_step`
    harvests the per-step products (loss, samples); :meth:`report_fields`
    hands the engine everything the report needs from here.

    With a ``tracer``, every :meth:`timed` scope additionally records one
    trace span on the ``main`` track from the *same* pair of clock reads
    that feeds the phase total — trace and report cannot drift apart.
    Without a tracer (the default), timing uses :func:`time.perf_counter`.
    """

    def __init__(self, tracer: Optional["Tracer"] = None) -> None:
        self.timings = PhaseTimings()
        self.tracer = tracer
        self.losses: List[float] = []
        self.samples = 0

    @contextmanager
    def timed(self, phase: str, span: Optional[str] = None) -> Iterator[None]:
        """Time a region into ``phase``.

        In traced runs the region also becomes a span named ``span``
        (default: the phase).
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
                    span or phase, track="main", start_s=start, end_s=end
                )
            self.timings.add(phase, end - start)

    def finish_step(self, ctx: "StepContext") -> None:
        """Record a completed step's loss and samples."""
        self.losses.append(ctx.loss)
        self.samples += ctx.data.size

    def report_fields(self) -> Dict[str, Any]:
        """The report fields this collector owns (the engine adds the rest)."""
        return {
            "losses": self.losses,
            "timings": self.timings,
            "steps": len(self.losses),
            "samples": self.samples,
        }


@dataclass
class StepContext:
    """Mutable working state of one batch, from its draw to its completion.

    A fresh context per step, released before the next draw.  ``casts``
    holds one :class:`~repro.core.casting.CastedIndex` per table once a
    casted-mode cast has run, and stays ``None`` in baseline mode.
    """

    data: CTRBatch
    casts: Optional[List[CastedIndex]] = None
    loss: Optional[float] = None
    logits: Optional[np.ndarray] = None
    dlogits: Optional[np.ndarray] = None
