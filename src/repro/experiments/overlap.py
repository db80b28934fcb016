"""Measured vs. analytic cast-ahead overlap: the "overlap" experiment.

The paper's Section IV-B runtime hides Tensor Casting under forward
propagation; the trainer's ``lookahead=1`` schedule executes that overlap
on the host.  This experiment sweeps batch size and, for each cell, trains
the same down-scaled DLRM twice through
:func:`repro.experiments.measured.best_of` — once casting inline
(``lookahead=0``), once casting ahead (``lookahead=1``) — and reports:

* **measured throughput** of both runs (steps/s) and their ratio, the
  measured overlap speedup;
* **the analytic prediction** from the ``Ours(NMP)`` timeline: the ratio
  of the makespan with the casting stage forced onto the critical path to
  the makespan with it overlapped — the most speedup cast-ahead alone can
  buy;
* **the overlap ratio** (measured / analytic) — how much of the modeled
  benefit the host pipeline realizes (NumPy's lock-step threading typically
  keeps this below 1);
* a **bit-identical** flag: losses and every parameter tensor of the two
  runs are compared exactly, so a throughput win can never come from
  numerical drift.

Measured overlap is bounded by the host's parallelism: the pipeline takes
the cast off the critical *path*, but a core must still execute it, so on a
single-core host the speedup degenerates to parity and the scheduling win
shows up only in the timing split (``cast_wait`` ≈ 0 while ``casting``
stays full-size).  The formatter prints the host core count next to the
ratios so the reader can calibrate.

Everything trains a deliberately small model: the point is the *schedule*,
not the model scale.
"""

from __future__ import annotations

import os
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
    runs_bit_identical,
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
    serial_steps_per_s: float
    pipelined_steps_per_s: float
    measured_speedup: float
    analytic_speedup: float
    overlap_ratio: float
    bit_identical: bool
    #: Worker-side casting seconds of the pipelined run (the hidden work).
    cast_seconds: float = 0.0
    #: Seconds the pipelined step loop blocked on the cast-ahead future (the
    #: exposed remainder; ≈0 when the schedule fully hides the cast).
    cast_wait_seconds: float = 0.0


def analytic_overlap_speedup(
    config: ModelConfig,
    batch: int,
    hardware: SystemHardware | None = None,
    dataset: "str | LookupDistribution" = "random",
) -> float:
    """Predicted serial/pipelined ratio when only the cast is overlapped.

    Runs the casting-enabled analytic timeline (``Ours(NMP)``), in which
    the casting stage is already hidden, and compares its makespan against the
    same schedule with the casting stage serialized onto the critical path
    — i.e. ``(makespan + t_cast) / makespan``.  This is exactly the benefit
    the functional pipeline chases: it moves the cast off the critical path
    and nothing else.
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
    """Sweep batch size, measuring inline vs. cast-ahead training.

    Each cell trains ``steps`` iterations at ``lookahead=0`` and at
    ``lookahead=1`` (best wall-clock of ``repeats`` runs each), verifies
    bitwise agreement, and pairs the measured speedup with the analytic
    cast-overlap prediction for the same geometry.

    ``trace`` switches the source from synthetic generation to replaying a
    recorded batch trace: a single cell whose geometry (batch size,
    table count/heights, dense width, available steps) comes from the
    trace itself (:func:`~repro.experiments.measured.read_trace` reshapes
    ``config``), with a fresh replay per run so both schedules consume the
    identical stream.  The analytic bound uses the trace's own measured
    table-0 popularity.  ``batches`` is ignored in trace mode.

    ``optimizer``/``lr`` pick the update rule from the registry (default
    plain SGD at 0.1).  ``resume`` warm-starts every measured run from a
    checkpoint (:mod:`repro.runtime.checkpoint`): parameters and optimizer
    state are restored and each fresh source is fast-forwarded past the
    checkpointed steps, so both schedules stay bit-comparable.
    ``checkpoint_dir`` saves each cell's final trained state as
    ``overlap-b{batch}.npz`` (``overlap-trace.npz`` in trace mode).

    ``obs`` traces every *measured* run (warm-up steps stay untraced):
    each cell's inline repeats, then its cast-ahead repeats, land
    back-to-back on the shared ``main``/``cast`` tracks —
    the trace shows the cast-ahead overlap the table's ratios summarize.
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
        serial, pipelined = (
            best_of(
                config, make_source, batch, steps, repeats, seed=seed,
                optimizer=optimizer, lr=lr, resume=checkpoint, obs=obs,
                lookahead=lookahead,
            )
            for lookahead in (0, 1)
        )
        if checkpoint_dir is not None:
            name = (
                "overlap-trace.npz" if trace is not None
                else f"overlap-b{batch}.npz"
            )
            pipelined.save(Path(checkpoint_dir) / name)
        wall = pipelined.report.wall_seconds
        measured = serial.report.wall_seconds / wall if wall > 0 else 0.0
        analytic = analytic_overlap_speedup(
            config, batch, hardware, distribution
        )
        totals = pipelined.report.timings.totals
        rows.append(
            OverlapRow(
                model=label,
                batch=batch,
                steps=serial.report.steps,
                serial_steps_per_s=serial.report.steps_per_second,
                pipelined_steps_per_s=pipelined.report.steps_per_second,
                measured_speedup=measured,
                analytic_speedup=analytic,
                overlap_ratio=measured / analytic if analytic > 0 else 0.0,
                bit_identical=runs_bit_identical(serial, pipelined),
                cast_seconds=totals.get("casting", 0.0),
                cast_wait_seconds=totals.get("cast_wait", 0.0),
            )
        )
    return rows


def format_overlap(rows: Sequence[OverlapRow]) -> str:
    """Render the sweep: throughputs, measured vs. analytic, the cast split."""
    if not rows:
        return "(no rows)"
    headers = [
        "Model", "Batch", "Serial (it/s)", "Pipelined (it/s)",
        "Speedup", "Analytic", "Overlap", "Cast (ms)", "Wait (ms)",
        "Bitwise",
    ]
    table_rows = []
    for row in rows:
        table_rows.append(
            [
                row.model,
                row.batch,
                f"{row.serial_steps_per_s:.2f}",
                f"{row.pipelined_steps_per_s:.2f}",
                f"{row.measured_speedup:.2f}x",
                f"{row.analytic_speedup:.2f}x",
                f"{row.overlap_ratio:.2f}",
                f"{row.cast_seconds * 1e3:.1f}",
                f"{row.cast_wait_seconds * 1e3:.1f}",
                "OK" if row.bit_identical else "DIVERGED",
            ]
        )
    cores = os.cpu_count() or 1
    return format_table(headers, table_rows) + (
        "\nSpeedup = measured serial/pipelined wall-clock ratio; Analytic = "
        "the cast-overlap bound\n(makespan + t_cast) / makespan from the "
        "Ours(NMP) timeline; Overlap = measured/analytic.\nBitwise OK means "
        "the pipelined run's losses and parameters match the serial run "
        "exactly.\nCast = worker-side casting time of the pipelined run "
        "(the hidden work); Wait = how long the\nstep loop actually blocked "
        "on it (≈0 means the schedule fully hides the cast).\n"
        f"Host cores: {cores} — measured overlap needs a spare core to run "
        "the hidden cast on;\non a single-core host expect parity here and "
        "see the trainer's casting-vs-cast_wait split\nfor the scheduling "
        "proof."
    )
