"""End-to-end wall-clock training benchmark: baseline vs casted backward.

Trains the same down-scaled DLRM with both backward strategies through the
training engine and reports per-phase wall-clock — the functional
analogue of the paper's real-system prototype measurements.  One target
drives the engine directly (explicit :class:`TrainingEngine`, inline
cast) to benchmark the engine surface itself, and a
non-benchmark smoke asserts the checkpoint-resume roundtrip stays
bit-identical at these shapes.

Set ``BENCH_SMOKE=1`` to shrink every shape to a seconds-long smoke run
(used by the CI benchmarks job to catch bit-rot without paying full size).
"""

import os

import numpy as np
import pytest

from repro.data.generator import SyntheticCTRStream
from repro.model import DLRM, SGD, get_model
from repro.runtime.checkpoint import CheckpointCallback, restore_trainer
from repro.runtime.engine import TrainingEngine
from repro.runtime.trainer import FunctionalTrainer

_SMOKE = os.environ.get("BENCH_SMOKE") == "1"
BATCH, STEPS = (64, 2) if _SMOKE else (512, 4)
CONFIG = get_model("RM1").with_overrides(
    num_tables=4,
    gathers_per_table=8 if _SMOKE else 16,
    rows_per_table=2_000 if _SMOKE else 50_000,
)


def make_trainer():
    model = DLRM(CONFIG, rng=np.random.default_rng(0), dtype=np.float32)
    stream = SyntheticCTRStream(
        num_tables=CONFIG.num_tables,
        num_rows=CONFIG.rows_per_table,
        lookups_per_sample=CONFIG.gathers_per_table,
        dense_features=CONFIG.dense_features,
        seed=0,
    )
    return FunctionalTrainer(model, stream, SGD(lr=0.1))


@pytest.mark.parametrize("mode", ["baseline", "casted"])
def test_training_step_wallclock(benchmark, mode):
    trainer = make_trainer()
    rng = np.random.default_rng(1)

    def step():
        return trainer.train(BATCH, 1, rng, mode=mode)

    report = benchmark(step)
    assert report.steps == 1


def test_engine_run_wallclock(benchmark):
    """The engine surface itself: TrainingEngine.run, inline cast."""
    trainer = make_trainer()
    rng = np.random.default_rng(1)

    def run():
        return TrainingEngine(trainer).run(BATCH, 1, rng, "casted")

    report = benchmark(run)
    assert report.steps == 1
    assert report.backend == trainer.backend.name


def test_training_timings():
    """Both backward modes' throughput + phase split, printed."""
    rows = []
    for mode in ("baseline", "casted"):
        trainer = make_trainer()
        report = trainer.train(BATCH, STEPS, np.random.default_rng(1),
                               mode=mode)
        row = {
            "mode": mode,
            "steps": report.steps,
            "steps_per_second": report.steps_per_second,
            "wall_s": report.wall_seconds,
        }
        for phase, seconds in sorted(report.timings.totals.items()):
            row[f"phase_{phase}_s"] = seconds
        rows.append(row)
        print(f"\n[training] {mode}: {row['steps_per_second']:.2f} steps/s, "
              + ", ".join(f"{phase} {seconds * 1e3:.1f} ms"
                          for phase, seconds
                          in sorted(report.timings.totals.items())))
    assert all(row["steps_per_second"] > 0 for row in rows)


def test_checkpoint_resume_roundtrip_bit_identical(tmp_path):
    """Train → checkpoint → resume equals an uninterrupted run (smoke)."""
    full_trainer = make_trainer()
    full_trainer.train(BATCH, STEPS, np.random.default_rng(7))

    interrupted = make_trainer()
    callback = CheckpointCallback(tmp_path / "ckpts", every=1)
    interrupted.train(
        BATCH, STEPS // 2, np.random.default_rng(7), callbacks=[callback]
    )
    resumed = make_trainer()
    step = restore_trainer(resumed, callback.last_path)
    resumed.train(
        BATCH, STEPS - step, np.random.default_rng(7), start_step=step
    )
    for full_param, resumed_param in zip(
        full_trainer.model.all_parameters(), resumed.model.all_parameters()
    ):
        assert np.array_equal(full_param, resumed_param)
