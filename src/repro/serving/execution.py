"""Batch executors: run coalesced serving batches and report their cost.

Two implementations of the one-method executor surface the simulator
drives (``execute(data) -> ExecutionResult``):

* :class:`EngineExecutor` — the real thing.  Owns a
  :class:`~repro.runtime.trainer.FunctionalTrainer` over an internal
  single-batch playback source and scores every coalesced batch through
  the engine's forward-only
  :meth:`~repro.runtime.trainer.FunctionalTrainer.infer` — the same step body
  and kernels the training path uses, with the frozen-parameter
  guarantee.  Execution cost is the *measured*
  ``wall_seconds`` of the inference run, which the harness charges to the
  simulation clock.
* :class:`FixedLatencyExecutor` — a deterministic service-time model
  (``base_s + per_sample_s × samples``), no numerics.  The property tests
  use it so latency percentiles are exactly reproducible; it also makes
  "what if the engine were N× faster" exploration free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Protocol

import numpy as np

from ..data.source import BatchSource, CTRBatch, SourceExhausted
from ..model.dlrm import DLRM
from ..model.optim import Optimizer, SGD
from ..runtime.stages import InferenceReport, PhaseTimings
from ..runtime.trainer import FunctionalTrainer

__all__ = [
    "ExecutionResult",
    "EngineExecutor",
    "Executor",
    "FixedLatencyExecutor",
]


@dataclass(frozen=True)
class ExecutionResult:
    """One executed batch: its service seconds and (optionally) its outputs."""

    seconds: float
    logits: Optional[np.ndarray] = None
    report: Optional[InferenceReport] = None


class _PlaybackSource(BatchSource):
    """One-slot source: the executor loads a coalesced batch, the engine draws it."""

    def __init__(
        self, num_tables: int, rows_per_table: List[int], dense_features: int
    ) -> None:
        self.num_tables = int(num_tables)
        self.rows_per_table = [int(rows) for rows in rows_per_table]
        self.dense_features = int(dense_features)
        self._pending: Optional[CTRBatch] = None

    def load(self, data: CTRBatch) -> None:
        self._pending = data

    def next_batch(self, batch: int, rng: np.random.Generator) -> CTRBatch:
        if self._pending is None:
            raise SourceExhausted("no batch loaded for playback")
        data, self._pending = self._pending, None
        return data


class Executor(Protocol):
    """What the serving loop needs from a model: score one coalesced batch.

    Implementations report the batch's service seconds (and optionally its
    logits) in an :class:`ExecutionResult`; the simulator charges those
    seconds on its injected clock.
    """

    def execute(self, data: CTRBatch) -> ExecutionResult: ...


class FixedLatencyExecutor:
    """Deterministic affine service model: ``base_s + per_sample_s × samples``."""

    def __init__(self, base_s: float, per_sample_s: float = 0.0) -> None:
        if base_s < 0 or per_sample_s < 0:
            raise ValueError(
                f"service times must be non-negative, got base_s={base_s}, "
                f"per_sample_s={per_sample_s}"
            )
        self.base_s = float(base_s)
        self.per_sample_s = float(per_sample_s)

    def execute(self, data: CTRBatch) -> ExecutionResult:
        return ExecutionResult(
            seconds=self.base_s + self.per_sample_s * data.size
        )


class EngineExecutor:
    """Score coalesced batches through the engine's forward-only run.

    Builds its own :class:`~repro.runtime.trainer.FunctionalTrainer` around
    ``model`` (the optimizer is never stepped — inference runs no
    update — but checkpoint restoration validates against it,
    so pass the training run's optimizer to serve a restored checkpoint via
    :func:`repro.runtime.checkpoint.restore_trainer` on :attr:`trainer`).
    The sharding knobs mirror the trainer's.

    Cross-batch aggregates: :attr:`timings` (per-stage seconds summed over
    every executed batch) and :attr:`batches`/:attr:`samples`.
    :meth:`reset_metrics` zeroes them (e.g. after a warm-up batch).
    """

    def __init__(
        self,
        model: DLRM,
        optimizer: Optional[Optimizer] = None,
        mode: str = "casted",
        num_shards: int = 1,
        policy: str = "row",
    ) -> None:
        self._playback = _PlaybackSource(
            num_tables=len(model.embeddings),
            rows_per_table=[bag.table.shape[0] for bag in model.embeddings],
            dense_features=model.config.dense_features,
        )
        self.trainer = FunctionalTrainer(
            model,
            self._playback,
            # Placeholder when serving without a checkpoint: inference never
            # runs the optimize stage, so the lr value is inert.
            optimizer if optimizer is not None else SGD(lr=0.1),
            num_shards=num_shards,
            policy=policy,
        )
        self.mode = mode
        self._rng = np.random.default_rng(0)
        self.timings = PhaseTimings()
        self.batches = 0
        self.samples = 0

    def execute(self, data: CTRBatch) -> ExecutionResult:
        self._playback.load(data)
        report = self.trainer.infer(data.size, 1, self._rng, mode=self.mode)
        self.timings.merge(report.timings)
        self.batches += 1
        self.samples += report.samples
        return ExecutionResult(
            seconds=report.wall_seconds,
            logits=report.logits[0],
            report=report,
        )

    def reset_metrics(self) -> None:
        """Zero the cross-batch aggregates."""
        self.timings = PhaseTimings()
        self.batches = 0
        self.samples = 0
