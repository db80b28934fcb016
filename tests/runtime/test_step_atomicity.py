"""A failed step is atomic or torn; the step loop's run contracts.

A kernel failure in any phase of a step before its first parameter write
— cast, gather, the first table's backward — must propagate to the caller
unchanged, leave no thread behind (the step loop starts none), and leave
the parameters and optimizer state of the last
completed step untouched, so the same trainer resumes cleanly.  A failure
after it (the second table's backward, once the first table's update has
written) propagates the same way and leaves the trainer torn: training,
scoring and saving refuse it, naming the step, until a checkpoint is
restored — after which the resumed run is the uninterrupted one.
Alongside: a run resumes from a checkpoint bit for
bit, and the report carries every phase's timings.
"""

import threading

import numpy as np
import pytest

from repro.data.generator import SyntheticCTRStream
from repro.model.configs import RM1
from repro.model import embedding
from repro.model.dlrm import DLRM
from repro.model.optim import SGD, Adagrad
from repro.runtime.checkpoint import (
    CheckpointCallback,
    latest_checkpoint,
    load_checkpoint,
    restore_trainer,
    save_checkpoint,
)
from repro.runtime.engine import TrainingCallback
from repro.runtime.trainer import FunctionalTrainer

CONFIG = RM1.with_overrides(
    num_tables=3, gathers_per_table=4, rows_per_table=60,
    bottom_mlp=(8, 4), top_mlp=(4, 1), embedding_dim=4,
)


#: Step phase -> the core kernel that phase launches.
PHASE_KERNELS = {
    "cast": "tensor_casting",
    "gather": "gather_reduce",
    "backward": "casted_gather_reduce",
}


class ExplodingKernel:
    """Stand-in for ``phase``'s kernel in :mod:`repro.model.embedding` that
    blows up while armed and runs the real kernel otherwise."""

    def __init__(self, monkeypatch, phase):
        self.armed = False
        name = PHASE_KERNELS[phase]
        self._healthy = getattr(embedding, name)
        monkeypatch.setattr(embedding, name, self)

    def __call__(self, *args, **kwargs):
        if self.armed:
            raise RuntimeError("boom: injected kernel failure")
        return self._healthy(*args, **kwargs)


def make_trainer(optimizer_cls=SGD, seed=0):
    model = DLRM(CONFIG, rng=np.random.default_rng(seed))
    stream = SyntheticCTRStream(
        num_tables=3, num_rows=60, lookups_per_sample=4,
        dense_features=8, seed=seed,
    )
    trainer = FunctionalTrainer(model, stream, optimizer_cls(lr=0.3))
    return model, trainer


def lingering_threads():
    return [t.name for t in threading.enumerate()
            if t is not threading.main_thread()]


def trainer_state(trainer):
    """Copies of every parameter and every optimizer-state array, by name."""
    named = trainer.named_parameters()
    state = {name: param.copy() for name, param in named}
    state.update(
        (key, tensor.copy())
        for key, tensor in trainer.optimizer.export_state(named).items()
    )
    return state


def assert_same_state(got, want):
    assert got.keys() == want.keys()
    for name in want:
        assert np.array_equal(got[name], want[name]), name


class ArmAfterFirstStep(TrainingCallback):
    """Snapshot the state after every completed step; arm after the first.

    The last snapshot is therefore the failing step's pre-step state,
    whichever step the armed kernel is first reached in.
    """

    def __init__(self, trainer, kernel):
        self.snapshots = [trainer_state(trainer)]
        self.kernel = kernel

    def on_step_end(self, event):
        self.snapshots.append(trainer_state(event.trainer))
        self.kernel.armed = True


class TestFailedStep:
    @pytest.mark.parametrize("phase", sorted(PHASE_KERNELS))
    def test_a_failed_step_is_atomic(self, phase, monkeypatch):
        """A kernel failure in any phase leaves the last good step intact.

        Adagrad, so there is optimizer state to tear.
        """
        batch, steps = 16, 4
        _, reference = make_trainer(optimizer_cls=Adagrad)
        reference_report = reference.train(
            batch, steps, np.random.default_rng(1))

        kernel = ExplodingKernel(monkeypatch, phase)
        _, trainer = make_trainer(optimizer_cls=Adagrad)
        recorder = ArmAfterFirstStep(trainer, kernel)
        with pytest.raises(RuntimeError, match="boom") as failure:
            trainer.train(batch, steps, np.random.default_rng(1),
                          callbacks=[recorder])
        # The original exception, not a wrapper or a shutdown error.
        assert failure.type is RuntimeError
        assert lingering_threads() == []
        completed = len(recorder.snapshots) - 1
        assert 1 <= completed < steps
        assert_same_state(trainer_state(trainer), recorder.snapshots[-1])

        # Same trainer, healthy kernel: redo the failed step and finish.
        kernel.armed = False
        resumed = trainer.train(
            batch, steps - completed, np.random.default_rng(1),
            start_step=completed)
        assert resumed.losses == reference_report.losses[completed:]
        assert_same_state(trainer_state(trainer), trainer_state(reference))
        assert lingering_threads() == []


class ExplodingOnSecondCall(ExplodingKernel):
    """Once armed, lets one call through and blows up on the next: for the
    backward kernel, the second table's reduction, after the first table's
    update has written."""

    def __init__(self, monkeypatch, phase):
        super().__init__(monkeypatch, phase)
        self.armed_calls = 0

    def __call__(self, *args, **kwargs):
        if self.armed:
            self.armed_calls += 1
            if self.armed_calls == 2:
                raise RuntimeError("boom: injected kernel failure")
        return self._healthy(*args, **kwargs)


class TestTornStep:
    def test_a_failure_after_the_first_write_tears_the_trainer(
            self, monkeypatch, tmp_path):
        batch, steps = 16, 4
        _, reference = make_trainer(optimizer_cls=Adagrad)
        reference_report = reference.train(
            batch, steps, np.random.default_rng(1))

        kernel = ExplodingOnSecondCall(monkeypatch, "backward")
        _, trainer = make_trainer(optimizer_cls=Adagrad)
        recorder = ArmAfterFirstStep(trainer, kernel)
        with pytest.raises(RuntimeError, match="boom") as failure:
            trainer.train(batch, steps, np.random.default_rng(1),
                          callbacks=[CheckpointCallback(tmp_path), recorder])
        assert failure.type is RuntimeError
        assert lingering_threads() == []
        assert len(recorder.snapshots) == 2
        assert trainer.torn_step == 2
        assert trainer_state(trainer)["table_0"].tobytes() != (
            recorder.snapshots[-1]["table_0"].tobytes())

        kernel.armed = False
        for entry in ("train", "infer"):
            with pytest.raises(RuntimeError, match="step 2 failed"):
                getattr(trainer, entry)(batch, 1, np.random.default_rng(1))
        torn = tmp_path / "torn.npz"
        with pytest.raises(RuntimeError, match="step 2 failed"):
            save_checkpoint(torn, trainer, 2)
        assert not torn.exists()

        assert restore_trainer(trainer, latest_checkpoint(tmp_path)) == 1
        assert trainer.torn_step is None
        resumed = trainer.train(
            batch, steps - 1, np.random.default_rng(1), start_step=1)
        assert resumed.losses == reference_report.losses[1:]
        assert_same_state(trainer_state(trainer), trainer_state(reference))


class TestRun:
    def test_resume_matches_the_uninterrupted_run(self, tmp_path):
        whole_model, whole = make_trainer()
        whole_report = whole.train(16, 4, np.random.default_rng(1))
        _, warm = make_trainer()
        warm.train(16, 2, np.random.default_rng(1))
        save_checkpoint(tmp_path / "ck.npz", warm, 2)
        model, trainer = make_trainer()
        start = restore_trainer(trainer, load_checkpoint(tmp_path / "ck.npz"))
        assert start == 2
        report = trainer.train(
            16, 2, np.random.default_rng(1), start_step=start)
        assert report.losses == whole_report.losses[start:]
        for got, want in zip(model.all_parameters(),
                             whole_model.all_parameters()):
            assert np.array_equal(got, want)

    def test_checkpoint_restores_the_saved_parameters(self, tmp_path):
        saved_model, saved = make_trainer()
        saved.train(16, 2, np.random.default_rng(1))
        save_checkpoint(tmp_path / "ck.npz", saved, 2)
        checkpoint = load_checkpoint(tmp_path / "ck.npz")
        model, trainer = make_trainer()
        assert restore_trainer(trainer, checkpoint) == 2
        for got, want in zip(model.all_parameters(),
                             saved_model.all_parameters()):
            assert np.array_equal(got, want)

    def test_report_carries_every_phases_timings(self):
        _, trainer = make_trainer()
        report = trainer.train(16, 4, np.random.default_rng(1))
        assert "sync" not in report.timings.totals
        assert not {"partition", "exchange"} & set(report.timings.totals)
        for phase in ("draw", "casting", "forward", "loss", "backward",
                      "update"):
            assert report.timings.totals.get(phase, 0.0) > 0.0
