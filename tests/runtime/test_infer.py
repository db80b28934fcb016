"""Differential suite for the forward-only inference path (``infer()``).

The forward-only run's contract, pinned bit-exactly: ``infer()`` must
produce the *same forward outputs the training path computes* for the same
batch, while leaving parameters and optimizer state untouched.
The training-side oracle is the engine itself — a recording engine captures
``ctx.logits`` as the training run's forward computes them — so
the comparison holds on any platform/BLAS without committed binaries.
"""

import warnings

import numpy as np
import pytest

from repro.data.generator import SyntheticCTRStream
from repro.data.source import TakeSource
from repro.model.configs import RM1
from repro.model.dlrm import DLRM
from repro.model.embedding import EmbeddingBag
from repro.model.optim import SGD, Adam, Optimizer
from repro.runtime.checkpoint import restore_trainer, save_checkpoint
from repro.runtime.engine import TrainingEngine
from repro.runtime.stages import InferenceReport, PhaseTimings
from repro.runtime.trainer import FunctionalTrainer

CONFIG = RM1.with_overrides(
    num_tables=3, gathers_per_table=4, rows_per_table=64,
    bottom_mlp=(8, 4), top_mlp=(4, 1), embedding_dim=4,
)


def make_stream(seed=0):
    return SyntheticCTRStream(
        num_tables=CONFIG.num_tables, num_rows=CONFIG.rows_per_table,
        lookups_per_sample=CONFIG.gathers_per_table,
        dense_features=CONFIG.dense_features, seed=seed,
    )


def make_model(seed=0, dtype=np.float64):
    return DLRM(CONFIG, rng=np.random.default_rng(seed), dtype=dtype)


def assert_params_equal(model_a, model_b):
    for a, b in zip(model_a.all_parameters(), model_b.all_parameters()):
        assert np.array_equal(a, b)


class _ForwardRecordingEngine(TrainingEngine):
    """Training engine that records each step's forward logits verbatim."""

    def __init__(self, trainer):
        super().__init__(trainer)
        self.recorded_logits = []

    def complete_step(self, ctx):
        self.recorded_logits.append(np.copy(ctx.logits))
        super().complete_step(ctx)


def train_with_recorded_logits(trainer, batch, steps, rng, mode="casted"):
    """Run the real training path (same plumbing as ``train()``), keeping logits."""
    engine = _ForwardRecordingEngine(trainer)
    report = engine.run(batch, steps, rng, mode)
    return report, engine.recorded_logits


# The dtypes the identity must hold across.
IDENTITY_CASES = [
    pytest.param(np.float64, id="float64"),
    pytest.param(np.float32, id="float32"),
]


def _make_trainer(dtype, seed=0):
    return FunctionalTrainer(
        make_model(seed=seed, dtype=dtype), make_stream(), SGD(lr=0.2),
    )


class TestInferMatchesTrainingForward:
    """infer() forward outputs == the training path's forward, bit for bit."""

    @pytest.mark.parametrize("dtype", IDENTITY_CASES)
    def test_first_step_logits_bit_identical(self, dtype):
        training = _make_trainer(dtype)
        report, logits = train_with_recorded_logits(
            training, 8, 1, np.random.default_rng(1)
        )
        serving = _make_trainer(dtype)
        inference = serving.infer(8, 1, np.random.default_rng(1))
        assert np.array_equal(inference.logits[0], logits[0])
        assert inference.losses == report.losses[:1]

    @pytest.mark.parametrize("dtype", IDENTITY_CASES)
    def test_multi_step_infer_is_deterministic(self, dtype):
        runs = []
        for _ in range(2):
            trainer = _make_trainer(dtype)
            runs.append(trainer.infer(8, 3, np.random.default_rng(1)))
        first, second = runs
        assert first.steps == second.steps == 3
        assert first.losses == second.losses
        for a, b in zip(first.logits, second.logits):
            assert np.array_equal(a, b)

    def test_baseline_mode_forward_matches_casted(self):
        casted = _make_trainer(np.float64).infer(
            8, 2, np.random.default_rng(1), mode="casted")
        baseline = _make_trainer(np.float64).infer(
            8, 2, np.random.default_rng(1), mode="baseline")
        for a, b in zip(casted.logits, baseline.logits):
            assert np.array_equal(a, b)

    def test_lookahead_infer_matches_inline(self):
        functional = FunctionalTrainer(
            make_model(), make_stream(), SGD(lr=0.2)
        ).infer(8, 2, np.random.default_rng(1))
        pipelined = FunctionalTrainer(
            make_model(), make_stream(), SGD(lr=0.2), lookahead=1
        ).infer(8, 2, np.random.default_rng(1))
        for a, b in zip(functional.logits, pipelined.logits):
            assert np.array_equal(a, b)
        assert functional.losses == pipelined.losses


#: Every call that backpropagates or updates, by owning class.
BACKWARD_AND_UPDATE_CALLS = [
    (DLRM, "backward_through_dense"),
    (EmbeddingBag, "backward"),
    (Optimizer, "step"),
    (Optimizer, "apply_sparse"),
]


class TestFrozenParameters:
    """No backward or update runs: parameters and state stay untouched."""

    @pytest.mark.parametrize("entry", ["train", "infer"])
    @pytest.mark.parametrize("mode", ["casted", "baseline"])
    @pytest.mark.parametrize("lookahead", [0, 1])
    def test_only_training_backpropagates_and_updates(
            self, lookahead, mode, entry, monkeypatch):
        calls = []
        for owner, name in BACKWARD_AND_UPDATE_CALLS:
            real = getattr(owner, name)

            def spy(*args, _real=real, _name=name, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)
            monkeypatch.setattr(owner, name, spy)
        trainer = FunctionalTrainer(
            make_model(), make_stream(), SGD(lr=0.2), lookahead=lookahead,
        )
        getattr(trainer, entry)(8, 2, np.random.default_rng(1), mode=mode)
        if entry == "infer":
            assert calls == []
        else:
            assert set(calls) == {
                name for _, name in BACKWARD_AND_UPDATE_CALLS
            }

    def test_params_and_optimizer_state_untouched(self):
        trainer = FunctionalTrainer(
            make_model(), make_stream(), Adam(lr=0.1)
        )
        trainer.train(8, 2, np.random.default_rng(1))
        params_before = [
            np.copy(p) for p in trainer.model.all_parameters()
        ]
        state_before = trainer.optimizer.export_state(
            trainer.named_parameters()
        )
        trainer.infer(8, 3, np.random.default_rng(2))
        for before, after in zip(
            params_before, trainer.model.all_parameters()
        ):
            assert np.array_equal(before, after)
        state_after = trainer.optimizer.export_state(
            trainer.named_parameters()
        )
        assert set(state_before) == set(state_after)
        for key in state_before:
            assert np.array_equal(state_before[key], state_after[key])

    def test_no_backward_or_update_phase_in_timings(self):
        inference = FunctionalTrainer(
            make_model(), make_stream(), SGD(lr=0.2)
        ).infer(8, 2, np.random.default_rng(1))
        assert "backward" not in inference.timings.totals
        assert "update" not in inference.timings.totals
        assert "forward" in inference.timings.totals


class TestInferenceReport:
    def test_report_shape_and_properties(self):
        inference = FunctionalTrainer(
            make_model(), make_stream(), SGD(lr=0.2)
        ).infer(8, 3, np.random.default_rng(1))
        assert isinstance(inference, InferenceReport)
        assert inference.steps == 3
        assert len(inference.logits) == 3
        assert all(l.shape == (8,) for l in inference.logits)
        assert inference.samples == 24
        assert len(inference.predictions) == 3
        for pred in inference.predictions:
            assert np.all((pred > 0.0) & (pred < 1.0))
        assert inference.mean_loss == pytest.approx(
            float(np.mean(inference.losses))
        )
        assert inference.samples_per_second > 0

    def test_predictions_of_extreme_float32_logits_do_not_overflow(self):
        """``exp(100)`` overflows float32: the predictions are the stable
        float64 sigmoid, with no warning."""
        logits = np.array([-100.0, 0.0, 100.0], dtype=np.float32)
        report = InferenceReport(losses=[0.0], timings=PhaseTimings(),
                                 mode="casted", steps=1, logits=[logits])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (pred,) = report.predictions
        assert pred.dtype == np.float64
        assert pred[1] == 0.5
        assert 0.0 < pred[0] < 1e-40 and pred[2] == 1.0

    def test_exhausted_source_raises_canonical_error(self):
        trainer = FunctionalTrainer(
            make_model(), TakeSource(make_stream(), 1), SGD(lr=0.2)
        )
        with pytest.raises(
            ValueError, match="exhausted before the first step"
        ):
            trainer.infer(8, 1, np.random.default_rng(1), start_step=1)


class TestCheckpointThenServe:
    """restore_trainer → infer == the uninterrupted trainer's forward."""

    def test_restored_inference_bit_identical(self, tmp_path):
        trained = FunctionalTrainer(
            make_model(), make_stream(), Adam(lr=0.1)
        )
        rng = np.random.default_rng(1)
        trained.train(8, 3, rng)
        path = save_checkpoint(tmp_path / "serve.npz", trained, 3)
        # The uninterrupted run keeps drawing from the same generator.
        uninterrupted = trained.infer(8, 2, rng)

        restored = FunctionalTrainer(
            make_model(), make_stream(), Adam(lr=0.1)
        )
        assert restore_trainer(restored, path) == 3
        resumed = restored.infer(
            8, 2, np.random.default_rng(1), start_step=3
        )
        assert uninterrupted.losses == resumed.losses
        for a, b in zip(uninterrupted.logits, resumed.logits):
            assert np.array_equal(a, b)
        assert_params_equal(trained.model, restored.model)
