"""Whole-step autotuning sweep: fixed engines vs the step-level policy.

The kernel-level autotuner (``backend="auto"``) picks an engine per *kernel*
shape class; the :class:`~repro.backends.autotune.StepAutotuner` picks one
per *training-step* shape class by probing real engine steps — batch,
pooling factor, embedding dim, table count, and shard count all folded into
one decision, cached across processes through ``--autotune-cache``.  This
sweep measures what that buys: every available fixed candidate engine
(``vectorized``, ``blocked``, ``numba`` when importable) crossed with
gradient-accumulation factors, next to the whole-step policy's pick — so
one table shows both the engine ranking at each shape and the optimizer
amortization gradient accumulation buys (the per-sample ``update`` cost
should fall roughly ``accum_steps``-fold).  Every cell is timed by the
measured-run harness (:func:`repro.experiments.measured.best_of`).

``python -m repro stepshape`` regenerates the table;
``benchmarks/bench_step_autotune.py`` pins the two acceptance claims (the
whole-step pick keeps up with the best fixed engine; accumulation amortizes
the optimizer) into ``BENCH_step.json``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import List, Sequence, TYPE_CHECKING

from ..backends import available_backends, get_backend
from ..backends.autotune import StepAutotuner, StepShapeClass
from ..model.configs import ModelConfig, RM1
from ..runtime.trainer import TrainingReport
from .measured import best_of, scaled_distribution, synthetic_source
from .report import format_table

if TYPE_CHECKING:
    from pathlib import Path

    from ..obs.session import Observability

__all__ = [
    "STEPSHAPE_ACCUM",
    "STEPSHAPE_BATCHES",
    "STEPSHAPE_CONFIG",
    "StepShapeRow",
    "format_stepshape",
    "stepshape_backends",
    "stepshape_sweep",
]

#: Down-scaled functional model: big enough that the engines separate,
#: small enough that the full sweep stays interactive.
STEPSHAPE_CONFIG = RM1.with_overrides(
    num_tables=2,
    gathers_per_table=8,
    rows_per_table=2_000,
    embedding_dim=16,
    bottom_mlp=(16, 16),
    top_mlp=(16, 1),
)

STEPSHAPE_BATCHES = (256,)
STEPSHAPE_ACCUM = (1, 4, 16)

#: Row label for the whole-step policy (vs a fixed engine name).
STEP_AUTO_LABEL = "step-auto"


@dataclass(frozen=True)
class StepShapeRow:
    """One (batch, accum, engine) cell of the whole-step sweep.

    ``engine`` is a fixed backend name or :data:`STEP_AUTO_LABEL`;
    ``chosen`` is the engine that actually ran (the autotuner's pick for
    the policy row, ``engine`` itself for fixed rows).
    """

    batch: int
    accum_steps: int
    engine: str
    chosen: str
    steps: int
    samples: int
    step_seconds: float
    samples_per_s: float
    optimize_us_per_sample: float
    #: Wall seconds the policy spent probing (0 for fixed rows and for
    #: cache hits — the whole point of ``--autotune-cache``).
    probe_seconds: float = 0.0


def stepshape_backends() -> List[str]:
    """The fixed candidate engines: available autotune candidates."""
    return [
        name
        for name in available_backends()
        if type(get_backend(name)).autotune_candidate
    ]


def _row_from(
    engine: str,
    chosen: str,
    batch: int,
    accum_steps: int,
    report: TrainingReport,
    probe_seconds: float = 0.0,
) -> StepShapeRow:
    wall = report.wall_seconds
    return StepShapeRow(
        batch=batch,
        accum_steps=accum_steps,
        engine=engine,
        chosen=chosen,
        steps=report.steps,
        samples=report.samples,
        step_seconds=wall / report.steps if report.steps else 0.0,
        samples_per_s=report.samples / wall if wall > 0 else 0.0,
        optimize_us_per_sample=report.optimize_seconds_per_sample * 1e6,
        probe_seconds=probe_seconds,
    )


def stepshape_sweep(
    batches: Sequence[int] = STEPSHAPE_BATCHES,
    steps: int = 3,
    accum: Sequence[int] = STEPSHAPE_ACCUM,
    dataset: str = "random",
    config: ModelConfig = STEPSHAPE_CONFIG,
    backends: Sequence[str] | None = None,
    repeats: int = 2,
    seed: int = 0,
    autotune_cache: "str | Path | None" = None,
    optimizer: str = "sgd",
    lr: float = 0.1,
    obs: "Observability | None" = None,
) -> List[StepShapeRow]:
    """Sweep batch × accumulation × engine, plus the whole-step policy.

    For every batch size, each fixed candidate engine (default:
    :func:`stepshape_backends`) is trained for ``steps`` engine steps at
    each gradient-accumulation factor (best wall-clock of ``repeats``
    identically-seeded runs), then the :class:`StepAutotuner` classifies
    the shape, probes (or reads ``autotune_cache``), and its pick runs the
    same cells under the :data:`STEP_AUTO_LABEL` rows.  ``autotune_cache``
    persists the step-level decisions as JSON across processes — a second
    sweep against the same cache skips the probes entirely (the policy
    rows' ``probe_seconds`` drop to zero).  With ``obs`` attached, each
    decision also lands on the ``autotune.decision`` metric series.
    """
    if not batches:
        raise ValueError("batches must be non-empty")
    if not accum:
        raise ValueError("accum must be non-empty")
    if any(a <= 0 for a in accum):
        raise ValueError(
            f"accumulation factors must be positive, got {list(accum)}"
        )
    candidates = list(backends) if backends is not None else stepshape_backends()
    if not candidates:
        raise ValueError("no candidate backends available to sweep")
    for name in candidates:
        get_backend(name)  # unknown/unavailable names raise with candidates
    distribution = scaled_distribution(dataset, config.rows_per_table)
    make_source = partial(synthetic_source, config, distribution, seed)

    def measure(backend: str, batch: int, accum_steps: int) -> TrainingReport:
        return best_of(
            config, make_source, batch, steps, repeats, seed=seed,
            optimizer=optimizer, lr=lr, obs=obs, backend=backend,
            accum_steps=accum_steps,
        ).report

    tuner = StepAutotuner(
        candidates=candidates, seed=seed, cache_path=autotune_cache
    )
    if obs is not None:
        obs.annotate(
            experiment="stepshape", seed=seed, batches=list(batches),
            accum=list(accum), candidates=candidates,
        )
    rows: List[StepShapeRow] = []
    for batch in batches:
        for accum_steps in accum:
            for name in candidates:
                report = measure(name, batch, accum_steps)
                rows.append(_row_from(name, name, batch, accum_steps, report))
            shape = StepShapeClass.classify(
                batch,
                config.gathers_per_table * config.num_tables,
                config.embedding_dim,
                config.num_tables,
            )
            # A shape already decided (earlier accum cell, or loaded from
            # the cache file) probes for free; otherwise backend_for pays
            # the probes, whose per-candidate costs the tuner records.
            already_decided = shape in tuner.decisions()
            chosen = tuner.backend_for(shape)
            probe_seconds = (
                0.0
                if already_decided
                else sum(tuner.timings().get(shape, {}).values())
            )
            report = measure(chosen, batch, accum_steps)
            rows.append(
                _row_from(
                    STEP_AUTO_LABEL, chosen, batch, accum_steps, report,
                    probe_seconds=probe_seconds,
                )
            )
    if obs is not None:
        tuner.publish_metrics(obs.metrics)
    return rows


def format_stepshape(rows: Sequence[StepShapeRow]) -> str:
    """Render the sweep: engine ranking + optimizer amortization per shape."""
    if not rows:
        return "(no rows)"
    headers = [
        "Batch", "Accum", "Engine", "Chosen", "Steps", "Samples",
        "Step ms", "Samples/s", "Update us/sample", "Probe s",
    ]
    table_rows = []
    for row in rows:
        table_rows.append(
            [
                row.batch,
                row.accum_steps,
                row.engine,
                row.chosen if row.engine == STEP_AUTO_LABEL else "-",
                row.steps,
                f"{row.samples:,}",
                f"{row.step_seconds * 1e3:.2f}",
                f"{row.samples_per_s:,.0f}",
                f"{row.optimize_us_per_sample:.2f}",
                f"{row.probe_seconds:.2f}" if row.probe_seconds else "-",
            ]
        )
    return format_table(headers, table_rows) + (
        "\nFixed rows sweep each candidate engine; 'step-auto' rows run the "
        "whole-step autotuner's\npick for the shape class (probe cost in "
        "'Probe s'; cached decisions probe for free —\npersist them with "
        "--autotune-cache PATH).  'Update us/sample' is the optimizer stage "
        "per\ntrained sample: gradient accumulation (--accum-steps) merges "
        "micro-batches so one\noptimizer step covers accum x batch samples, "
        "amortizing sparse-update overhead without\nchanging SGD numerics "
        "(bit-identical to the equivalent large batch — pinned by test)."
    )
