"""The cast's measured share of the step beside the analytic overlap bound.

The paper's Section IV-B runtime hides Tensor Casting under forward
propagation by running it on a device that is otherwise idle (Figure 9(b)).
The trainer runs every phase on one thread, so this experiment shows that
overlap as a number rather than a schedule.  It sweeps batch size and, for
each cell, trains a down-scaled DLRM through
:func:`repro.experiments.measured.best_of` (best wall clock of ``repeats``
serial runs) and reports:

* **measured throughput** (steps/s);
* **the measured cast**: the ``casting`` phase in ms per step and its share
  of the step;
* **the measured hiding bound** ``step / (step - cast)``: the speedup a
  perfectly hidden cast would buy on this host, given a spare device to
  run it on;
* **the analytic bound** from the ``Ours(NMP)`` timeline: the makespan with
  the casting stage forced onto the critical path over the makespan with
  it overlapped (:func:`analytic_overlap_speedup`);
* a **bit-identical** flag: every repeat is compared exactly (losses and
  every parameter) with the first, so the timed minimum is known to be a
  sample of one computation.

Everything trains a deliberately small model: the point is the cast's
share of the step, not the model scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, List, Sequence, TYPE_CHECKING

from ..data.distributions import LookupDistribution
from ..data.source import BatchSource
from ..data.trace import distribution_from_trace
from ..model.configs import ModelConfig, RM1
from ..runtime.checkpoint import load_checkpoint
from ..runtime.systems import (
    NMPSystem,
    OP_CASTING,
    SystemHardware,
    compute_workload,
)
from .measured import (
    best_of,
    read_trace,
    scaled_distribution,
    synthetic_source,
)
from .report import format_table

if TYPE_CHECKING:
    from ..obs.session import Observability

__all__ = [
    "OVERLAP_BATCHES",
    "OVERLAP_CONFIG",
    "OverlapRow",
    "analytic_overlap_speedup",
    "overlap_sweep",
    "format_overlap",
]

#: Down-scaled RM1 the functional overlap measurement trains (small tables,
#: narrow MLPs — big enough for the casting stage to be worth hiding).
OVERLAP_CONFIG: ModelConfig = RM1.with_overrides(
    num_tables=4,
    gathers_per_table=16,
    rows_per_table=20_000,
    bottom_mlp=(32, 16),
    top_mlp=(16, 1),
    embedding_dim=16,
)

#: Default sweep axis.
OVERLAP_BATCHES = (512, 2048)


@dataclass(frozen=True)
class OverlapRow:
    """One batch-size cell of the overlap sweep."""

    model: str
    batch: int
    steps: int
    steps_per_s: float
    #: Measured ``casting`` milliseconds per step.
    cast_ms: float
    #: ``cast_ms`` over the measured step.
    cast_share: float
    #: ``step / (step - cast)``: the most a perfectly hidden cast could buy.
    measured_bound: float
    #: The ``Ours(NMP)`` timeline's bound (:func:`analytic_overlap_speedup`).
    analytic_speedup: float
    #: Every repeat matched the first exactly (losses and parameters).
    bit_identical: bool


def analytic_overlap_speedup(
    config: ModelConfig,
    batch: int,
    hardware: SystemHardware | None = None,
    dataset: "str | LookupDistribution" = "random",
) -> float:
    """Predicted speedup when only the cast is overlapped.

    Runs the casting-enabled analytic timeline (``Ours(NMP)``), in which
    the casting stage is already hidden, and compares its makespan against the
    same schedule with the casting stage serialized onto the critical path
    — i.e. ``(makespan + t_cast) / makespan``: the benefit of moving the
    cast off the critical path and nothing else, the analytic twin of the
    measured ``step / (step - cast)``.
    """
    hardware = hardware or SystemHardware()
    stats = compute_workload(config, batch, dataset=dataset)
    result = NMPSystem(hardware, casting=True).run_iteration(stats)
    cast_seconds = result.breakdown.get(OP_CASTING, 0.0)
    return (result.total + cast_seconds) / result.total


def overlap_sweep(
    batches: Sequence[int] = OVERLAP_BATCHES,
    steps: int = 8,
    config: ModelConfig = OVERLAP_CONFIG,
    dataset: str = "random",
    hardware: SystemHardware | None = None,
    seed: int = 0,
    repeats: int = 3,
    trace: "str | Path | None" = None,
    optimizer: str = "sgd",
    lr: float = 0.1,
    checkpoint_dir: "str | Path | None" = None,
    resume: "str | Path | None" = None,
    obs: "Observability | None" = None,
) -> List[OverlapRow]:
    """Sweep batch size, measuring the cast's share of a training step.

    Each cell trains ``steps`` iterations (best wall clock of ``repeats``
    runs, every repeat checked bit for bit against the first) and pairs
    the measured hiding bound with the analytic cast-overlap bound for the
    same geometry.

    ``trace`` switches the source from synthetic generation to replaying a
    recorded batch trace: a single cell whose geometry (batch size,
    table count/heights, dense width, available steps) comes from the
    trace itself (:func:`~repro.experiments.measured.read_trace` reshapes
    ``config``), with a fresh replay per run so every repeat consumes the
    identical stream.  The analytic bound uses the trace's own measured
    table-0 popularity.  ``batches`` is ignored in trace mode.

    ``optimizer``/``lr`` pick the update rule from the registry (default
    plain SGD at 0.1).  ``resume`` warm-starts every measured run from a
    checkpoint (:mod:`repro.runtime.checkpoint`): parameters and optimizer
    state are restored and each fresh source is fast-forwarded past the
    checkpointed steps, so the repeats stay bit-comparable.
    ``checkpoint_dir`` saves each cell's final trained state as
    ``overlap-b{batch}.npz`` (``overlap-trace.npz`` in trace mode).

    ``obs`` traces every *measured* run (warm-up steps stay untraced):
    each cell's repeats land back-to-back on the ``main`` track, where
    every ``casting`` span sits inside its ``step`` span — the share the
    table summarizes.
    """
    hardware = hardware or SystemHardware()
    checkpoint = load_checkpoint(resume) if resume is not None else None
    distribution: LookupDistribution
    make_source: Callable[[], BatchSource]
    if trace is not None:
        cell = read_trace(
            trace, config, steps, checkpoint.step if checkpoint else 0
        )
        config, steps, label = cell.config, cell.steps, cell.label
        batches = (cell.first.size,)
        distribution = distribution_from_trace(cell.first.indices, table=0)
        make_source = cell.source
    else:
        label = config.name
        # The same rescaled locality profile drives the measured streams
        # and the analytic workload — apples-to-apples for every --dataset.
        distribution = scaled_distribution(dataset, config.rows_per_table)
        make_source = partial(synthetic_source, config, distribution, seed)
    if obs is not None:
        obs.annotate(
            experiment="overlap",
            source=dataset if trace is None else label, seed=seed,
            batches=list(batches), repeats=repeats,
        )
    rows: List[OverlapRow] = []
    for batch in batches:
        run = best_of(
            config, make_source, batch, steps, repeats, seed=seed,
            optimizer=optimizer, lr=lr, resume=checkpoint, obs=obs,
        )
        if checkpoint_dir is not None:
            name = (
                "overlap-trace.npz" if trace is not None
                else f"overlap-b{batch}.npz"
            )
            run.save(Path(checkpoint_dir) / name)
        report = run.report
        step = report.wall_seconds / report.steps
        cast = report.timings.totals.get("casting", 0.0) / report.steps
        rows.append(
            OverlapRow(
                model=label,
                batch=batch,
                steps=report.steps,
                steps_per_s=report.steps_per_second,
                cast_ms=cast * 1e3,
                cast_share=cast / step,
                measured_bound=step / (step - cast),
                analytic_speedup=analytic_overlap_speedup(
                    config, batch, hardware, distribution
                ),
                bit_identical=run.bit_identical,
            )
        )
    return rows


def format_overlap(rows: Sequence[OverlapRow]) -> str:
    """Render the sweep: throughput, the cast's share, both bounds."""
    if not rows:
        return "(no rows)"
    headers = [
        "Model", "Batch", "Steps/s", "Cast (ms)", "Cast share",
        "Measured bound", "Analytic", "Bitwise",
    ]
    table_rows = [
        [
            row.model,
            row.batch,
            f"{row.steps_per_s:.2f}",
            f"{row.cast_ms:.2f}",
            f"{row.cast_share:.1%}",
            f"{row.measured_bound:.2f}x",
            f"{row.analytic_speedup:.2f}x",
            "OK" if row.bit_identical else "DIVERGED",
        ]
        for row in rows
    ]
    return format_table(headers, table_rows) + (
        "\nCast = measured casting time per step and its share of the step."
        "\nMeasured bound = step / (step - cast): the speedup a perfectly "
        "hidden cast would\nbuy, given a spare device to run it on.  "
        "Analytic = the same bound from the\nOurs(NMP) timeline, "
        "(makespan + t_cast) / makespan.  Every phase runs on one\n"
        "thread here, so nothing is hidden.  Bitwise OK means every "
        "repeat's losses and\nparameters match the first repeat's exactly."
    )
