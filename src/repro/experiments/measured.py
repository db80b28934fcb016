"""One measured run: how the executed sweeps build and time a training job.

The experiment that runs a real model — ``overlap`` (Section IV-B: how
much of the step the cast is, and what hiding it would buy) — measures a
seeded float32 DLRM driven by a
:class:`~repro.runtime.trainer.FunctionalTrainer` over a fresh source,
timed best-of-k.  ``cache`` draws from the same sources and builds no
model.  This module is the one place that decides how:

* :func:`scaled_distribution` — a dataset profile's locality shape at the
  functional table height;
* :func:`synthetic_source` — the seeded stream of a cell;
* :func:`best_of` — builds each run's
  :class:`~repro.runtime.trainer.FunctionalTrainer` from a model seeded
  like every other run of the cell (identical seeds give identical start
  states, so every run is the same computation), trains one untimed
  warm-up step, then ``repeats`` fresh runs (each optionally resumed from
  a checkpoint), keeps the fastest, and checks every repeat against the
  first;
* :func:`runs_bit_identical` — that exact comparison, behind every
  ``Bitwise`` column;
* :func:`read_trace` — a recorded trace as a cell: the model geometry it
  implies, its first batch, and the steps left to replay after a resume.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Optional, TYPE_CHECKING

import numpy as np

from ..data.datasets import get_dataset
from ..data.distributions import (
    LookupDistribution,
    UniformDistribution,
    ZipfDistribution,
)
from ..data.generator import SyntheticCTRStream
from ..data.source import BatchSource, CTRBatch, positive_int
from ..data.trace import TraceReplaySource
from ..model.configs import ModelConfig
from ..model.dlrm import DLRM
from ..model.optim import make_optimizer
from ..runtime.checkpoint import Checkpoint, restore_trainer, save_checkpoint
from ..runtime.trainer import FunctionalTrainer, TrainingReport

if TYPE_CHECKING:
    from ..obs.session import Observability

__all__ = [
    "MeasuredRun",
    "TraceCell",
    "best_of",
    "read_trace",
    "runs_bit_identical",
    "scaled_distribution",
    "synthetic_source",
]


def scaled_distribution(dataset: str, num_rows: int) -> LookupDistribution:
    """A named profile's popularity *shape* rescaled to ``num_rows``.

    The measured sweeps train down-scaled models, so the calibrated catalog
    sizes of :mod:`repro.data.datasets` cannot be used directly — but the
    locality shape (uniform vs. Zipf exponent/shift) can.  The same
    rescaled distribution feeds both the measured stream and the analytic
    workload, keeping measured/analytic comparisons apples-to-apples for
    every dataset.
    """
    if dataset == "random":
        return UniformDistribution(num_rows)
    profile_dist = get_dataset(dataset).distribution()
    if isinstance(profile_dist, ZipfDistribution):
        return ZipfDistribution(
            num_rows, exponent=profile_dist.exponent, shift=profile_dist.shift
        )
    if isinstance(profile_dist, UniformDistribution):
        return UniformDistribution(num_rows)
    raise ValueError(
        f"dataset {dataset!r} uses a {type(profile_dist).__name__}, which the "
        "measured sweeps cannot rescale to the functional table height"
    )


def synthetic_source(
    config: ModelConfig, distribution: LookupDistribution, seed: int
) -> SyntheticCTRStream:
    """The seeded synthetic stream for ``config``, every table drawing from
    ``distribution``."""
    return SyntheticCTRStream(
        num_tables=config.num_tables,
        num_rows=config.rows_per_table,
        lookups_per_sample=config.gathers_per_table,
        dense_features=config.dense_features,
        distributions=[distribution] * config.num_tables,
        seed=seed,
    )


@dataclass(frozen=True)
class MeasuredRun:
    """The fastest of a cell's runs: its trainer (trained state) and report."""

    trainer: FunctionalTrainer
    report: TrainingReport
    #: Global step the run resumed from (0 without a checkpoint).
    start_step: int = 0
    #: Whether every repeat matched the first exactly (losses and every
    #: parameter); ``False`` means the repeats were not one computation.
    bit_identical: bool = True

    def save(self, path: "str | Path") -> None:
        """Checkpoint the trained state at the run's final global step."""
        save_checkpoint(path, self.trainer, self.start_step + self.report.steps)


def best_of(
    config: ModelConfig,
    make_source: Callable[[], BatchSource],
    batch: int,
    steps: int,
    repeats: int = 1,
    *,
    seed: int = 0,
    optimizer: str = "sgd",
    lr: float = 0.1,
    resume: Optional[Checkpoint] = None,
    obs: "Observability | None" = None,
) -> MeasuredRun:
    """Train ``repeats`` fresh identically-seeded runs; keep the fastest.

    One untraced single-step run goes first, so no measured repeat absorbs
    first-touch warm-up.  Best-of-k then strips scheduler noise: every
    repeat should be numerically identical (fresh model and source, same
    seeds), so the minimum is a legitimate sample of the same computation.
    That claim is checked, not assumed: each repeat is compared with the
    first by :func:`runs_bit_identical`, and the result records whether
    all of them matched (:attr:`MeasuredRun.bit_identical`) — a
    ``make_source`` that reseeds per call shows up there.  With ``resume``
    set (a :class:`Checkpoint` loaded once per sweep), every repeat restores
    parameters and optimizer state and fast-forwards its source past the
    checkpointed steps.  The *whole*
    report of the fastest run is kept, so its wall clock and phase timings
    stay mutually consistent.
    """
    positive_int("steps", steps)
    positive_int("repeats", repeats)

    def build() -> FunctionalTrainer:
        return FunctionalTrainer(
            DLRM(config, rng=np.random.default_rng(seed), dtype=np.float32),
            make_source(),
            make_optimizer(optimizer, lr=lr),
        )

    warmup = build()
    warmup.train(batch, 1, np.random.default_rng(seed))
    warmup.stream.close()
    first: Optional[MeasuredRun] = None
    best: Optional[MeasuredRun] = None
    identical = True
    for _ in range(repeats):
        trainer = build()
        start_step = restore_trainer(trainer, resume) if resume is not None else 0
        report = trainer.train(
            batch, steps, np.random.default_rng(seed + 1),
            start_step=start_step, obs=obs,
        )
        trainer.stream.close()
        run = MeasuredRun(trainer, report, start_step)
        if first is None:
            first = run
        else:
            identical = identical and runs_bit_identical(first, run)
        if best is None or report.wall_seconds < best.report.wall_seconds:
            best = run
    assert best is not None
    return replace(best, bit_identical=identical)


def runs_bit_identical(first: MeasuredRun, second: MeasuredRun) -> bool:
    """Exact (not approximate) agreement of losses and every parameter."""
    if first.report.losses != second.report.losses:
        return False
    return all(
        np.array_equal(a, b)
        for a, b in zip(
            first.trainer.model.all_parameters(),
            second.trainer.model.all_parameters(),
        )
    )


@dataclass(frozen=True)
class TraceCell:
    """A recorded batch trace read as one measured cell."""

    path: Path
    #: The sweep's base config reshaped to the trace's geometry.
    config: ModelConfig
    first: CTRBatch
    #: Steps to replay: the requested count clamped to what the trace
    #: holds after the resume step.
    steps: int

    @property
    def label(self) -> str:
        return f"trace:{self.path.name}"

    def source(self) -> TraceReplaySource:
        """A fresh replay from the top (one per run: traces exhaust)."""
        return TraceReplaySource(self.path)


def read_trace(
    trace: "str | Path", base: ModelConfig, steps: int, resume_step: int = 0
) -> TraceCell:
    """Read a trace's header and first step into a :class:`TraceCell`.

    The model is ``base`` with the trace's table count, tallest table
    (shorter tables simply leave rows untrained), dense width and mean
    gathers per table; everything else — MLP widths, embedding dim — stays
    ``base``'s.
    """
    with TraceReplaySource(trace) as probe:
        available = probe.num_steps
        if resume_step >= available:
            raise ValueError(
                f"checkpoint resumes at step {resume_step} but {trace} holds "
                f"only {available} steps — nothing left to replay"
            )
        first = probe.next_batch(None)
        lookups = sum(index.num_lookups for index in first.indices)
        config = base.with_overrides(
            num_tables=probe.num_tables,
            rows_per_table=max(probe.rows_per_table),
            gathers_per_table=max(
                1, round(lookups / (first.size * probe.num_tables))
            ),
            bottom_mlp=(probe.dense_features, *base.bottom_mlp[1:]),
        )
    return TraceCell(
        Path(trace), config, first, min(steps, available - resume_step)
    )
