"""Tests for cast-ahead training: ``FunctionalTrainer(lookahead=1)``."""

import numpy as np
import pytest

from repro.data.generator import SyntheticCTRStream
from repro.model.configs import RM1
from repro.model.dlrm import DLRM
from repro.model.optim import SGD, Adagrad
from repro.runtime.engine import CastAheadWorker
from repro.runtime.trainer import FunctionalTrainer

CONFIG = RM1.with_overrides(
    num_tables=3, gathers_per_table=4, rows_per_table=60,
    bottom_mlp=(8, 4), top_mlp=(4, 1), embedding_dim=4,
)


def make_trainer(lookahead, optimizer_cls=SGD, seed=0):
    model = DLRM(CONFIG, rng=np.random.default_rng(seed))
    stream = SyntheticCTRStream(
        num_tables=3, num_rows=60, lookups_per_sample=4,
        dense_features=8, seed=seed,
    )
    trainer = FunctionalTrainer(
        model, stream, optimizer_cls(lr=0.3), lookahead=lookahead,
    )
    return model, trainer


def all_params(model):
    return model.all_parameters()


def train_pair(optimizer_cls=SGD, batch=16, steps=4):
    serial_model, serial = make_trainer(0, optimizer_cls)
    serial_report = serial.train(batch, steps, np.random.default_rng(1))
    pipelined_model, pipelined = make_trainer(1, optimizer_cls)
    pipelined_report = pipelined.train(batch, steps, np.random.default_rng(1))
    return (serial_model, serial_report), (pipelined_model, pipelined_report)


class TestBitIdentity:
    """The pipeline reorders *when* phases run, never *what* they compute."""

    def test_losses_and_params_bit_identical(self):
        (serial_model, serial_report), (pipelined_model, pipelined_report) = (
            train_pair()
        )
        assert serial_report.losses == pipelined_report.losses
        for got, want in zip(all_params(pipelined_model), all_params(serial_model)):
            assert np.array_equal(got, want)

    def test_stateful_optimizer_bit_identical(self):
        (serial_model, _), (pipelined_model, _) = train_pair(
            optimizer_cls=Adagrad, steps=3)
        for got, want in zip(all_params(pipelined_model), all_params(serial_model)):
            assert np.array_equal(got, want)

    def test_single_step_pipeline(self):
        """steps=1 has nothing to overlap but must still train correctly."""
        (_, serial_report), (_, pipelined_report) = train_pair(steps=1)
        assert serial_report.losses == pipelined_report.losses


class TestReport:
    def test_pipeline_phase_timings_present(self):
        _, trainer = make_trainer(1)
        report = trainer.train(16, 3, np.random.default_rng(1))
        for phase in ("draw", "cast_wait", "casting", "forward",
                      "loss", "backward", "update"):
            assert phase in report.timings.totals

    def test_wall_seconds_and_throughput(self):
        _, trainer = make_trainer(1)
        report = trainer.train(16, 3, np.random.default_rng(1))
        assert report.wall_seconds > 0
        assert report.steps_per_second == pytest.approx(
            report.steps / report.wall_seconds
        )


class TestValidation:
    def test_baseline_mode_is_bit_identical_to_serial(self):
        """Used to be rejected.  The baseline backward has no cast to hide
        (its cast stage does nothing), so look-ahead changes nothing —
        including the absence of a ``casting`` phase."""
        serial_model, serial = make_trainer(0)
        serial_report = serial.train(
            16, 3, np.random.default_rng(1), mode="baseline")
        pipelined_model, pipelined = make_trainer(1)
        pipelined_report = pipelined.train(
            16, 3, np.random.default_rng(1), mode="baseline")
        assert serial_report.losses == pipelined_report.losses
        for got, want in zip(all_params(pipelined_model),
                             all_params(serial_model)):
            assert np.array_equal(got, want)
        assert "casting" not in pipelined_report.timings.totals

    def test_rejects_nonpositive_steps(self):
        _, trainer = make_trainer(1)
        with pytest.raises(ValueError, match="steps"):
            trainer.train(16, 0, np.random.default_rng(1))

    @pytest.mark.parametrize("batch", [0, -1, 3.5, True])
    def test_rejects_invalid_batch(self, batch):
        """Regression: batch used to reach the prefetch loop unvalidated."""
        _, trainer = make_trainer(1)
        with pytest.raises(ValueError, match="batch must be a positive"):
            trainer.train(batch, 2, np.random.default_rng(1))


class TestCastAheadWorker:
    def test_result_is_the_plain_return_value(self):
        with CastAheadWorker() as worker:
            assert worker.submit(sum, [1, 2, 3]).result() == 6

    def test_jobs_execute_in_submission_order(self):
        seen = []
        with CastAheadWorker() as worker:
            futures = [worker.submit(seen.append, i) for i in range(5)]
            for future in futures:
                future.result()
        assert seen == [0, 1, 2, 3, 4]

    def test_exception_propagates_on_result(self):
        def boom():
            raise RuntimeError("cast failed")

        with CastAheadWorker() as worker:
            future = worker.submit(boom)
            with pytest.raises(RuntimeError, match="cast failed"):
                future.result()
