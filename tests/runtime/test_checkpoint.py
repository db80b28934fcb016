"""Checkpoint/resume: the interrupted run must equal the uninterrupted one.

The headline acceptance criterion of PR 5's checkpoint subsystem: train N
steps on a recorded trace, interrupt at step k with a checkpoint, restore
into a *fresh* trainer, resume with ``start_step=k`` — and end with
parameters bit-identical to a run that never stopped.  Plus the format /
validation / callback contracts around it.
"""

import numpy as np
import pytest

from repro.data.generator import SyntheticCTRStream
from repro.data.trace import TraceReplaySource, record_trace
from repro.model.configs import RM1
from repro.model.dlrm import DLRM
from repro.model.optim import SGD, Adagrad, Adam, Momentum
from repro.runtime.checkpoint import (
    CheckpointCallback,
    latest_checkpoint,
    load_checkpoint,
    restore_trainer,
    save_checkpoint,
)
from repro.runtime.trainer import FunctionalTrainer

CONFIG = RM1.with_overrides(
    num_tables=3, gathers_per_table=4, rows_per_table=60,
    bottom_mlp=(8, 4), top_mlp=(4, 1), embedding_dim=4,
)


def make_stream(seed=0):
    return SyntheticCTRStream(
        num_tables=CONFIG.num_tables, num_rows=CONFIG.rows_per_table,
        lookups_per_sample=CONFIG.gathers_per_table,
        dense_features=CONFIG.dense_features, seed=seed,
    )


def make_model(seed=0):
    return DLRM(CONFIG, rng=np.random.default_rng(seed))


def assert_params_equal(model_a, model_b):
    for a, b in zip(model_a.all_parameters(), model_b.all_parameters()):
        assert np.array_equal(a, b)


def exported_state(trainer):
    return trainer.optimizer.export_state(trainer.named_parameters())


def assert_state_equal(trainer_a, trainer_b):
    state_a, state_b = exported_state(trainer_a), exported_state(trainer_b)
    assert state_a.keys() == state_b.keys() and state_a
    for key, tensor in state_a.items():
        assert np.array_equal(tensor, state_b[key]), key


@pytest.fixture
def trace(tmp_path):
    return record_trace(
        make_stream(), tmp_path / "trace.npz", 8, 6, np.random.default_rng(1)
    )


class TestResumeEqualsUninterrupted:
    """Checkpoint at step k + resume == never interrupted (bit-identical)."""

    @pytest.mark.parametrize("optimizer_cls", [SGD, Momentum, Adagrad, Adam])
    def test_trace_replay_resume(self, trace, tmp_path, optimizer_cls):
        full_model = make_model()
        full = FunctionalTrainer(
            full_model, TraceReplaySource(trace), optimizer_cls(lr=0.05)
        ).train(8, 6, np.random.default_rng(9))

        interrupted_model = make_model()
        callback = CheckpointCallback(tmp_path / "ckpts", every=1)
        FunctionalTrainer(
            interrupted_model, TraceReplaySource(trace), optimizer_cls(lr=0.05)
        ).train(8, 3, np.random.default_rng(9), callbacks=[callback])

        # Fresh trainer, *different* model init and rng seed — everything
        # that matters is restored from the checkpoint; the trace ignores
        # the rng and start_step=3 fast-forwards past the trained steps.
        resumed_model = DLRM(CONFIG, rng=np.random.default_rng(123))
        resumed_trainer = FunctionalTrainer(
            resumed_model, TraceReplaySource(trace), optimizer_cls(lr=0.05)
        )
        step = restore_trainer(
            resumed_trainer, latest_checkpoint(tmp_path / "ckpts")
        )
        assert step == 3
        resumed = resumed_trainer.train(
            8, 6 - step, np.random.default_rng(777), start_step=step
        )
        assert resumed.steps == 3
        assert resumed.losses == full.losses[step:]
        assert_params_equal(full_model, resumed_model)

    def test_synthetic_stream_resume(self, tmp_path):
        """start_step's draw-and-discard replays the synthetic RNG stream too."""
        full_model = make_model()
        FunctionalTrainer(full_model, make_stream(), Adagrad(lr=0.1)).train(
            8, 5, np.random.default_rng(5)
        )
        part_model = make_model()
        callback = CheckpointCallback(tmp_path / "ck", every=2)
        FunctionalTrainer(part_model, make_stream(), Adagrad(lr=0.1)).train(
            8, 2, np.random.default_rng(5), callbacks=[callback]
        )
        resumed_model = make_model()
        trainer = FunctionalTrainer(resumed_model, make_stream(), Adagrad(lr=0.1))
        step = restore_trainer(trainer, latest_checkpoint(tmp_path / "ck"))
        trainer.train(8, 5 - step, np.random.default_rng(5), start_step=step)
        assert_params_equal(full_model, resumed_model)

    def test_resume_through_pipelined_trainer(self, trace, tmp_path):
        """Checkpoints are schedule-agnostic: save serial, resume pipelined."""
        full_model = make_model()
        FunctionalTrainer(
            full_model, TraceReplaySource(trace), SGD(lr=0.05)
        ).train(8, 6, np.random.default_rng(9))
        callback = CheckpointCallback(tmp_path / "ck", every=4)
        FunctionalTrainer(
            make_model(), TraceReplaySource(trace), SGD(lr=0.05)
        ).train(8, 4, np.random.default_rng(9), callbacks=[callback])
        resumed_model = make_model()
        trainer = FunctionalTrainer(
            resumed_model, TraceReplaySource(trace), SGD(lr=0.05), lookahead=1
        )
        step = restore_trainer(trainer, callback.last_path)
        trainer.train(8, 6 - step, np.random.default_rng(1), start_step=step)
        assert_params_equal(full_model, resumed_model)

    def test_resume_with_per_row_optimizer_state(self, tmp_path):
        full_model = make_model()
        FunctionalTrainer(
            full_model, make_stream(), Adam(lr=0.05)
        ).train(8, 5, np.random.default_rng(5))
        callback = CheckpointCallback(tmp_path / "ck", every=2)
        FunctionalTrainer(
            make_model(), make_stream(), Adam(lr=0.05)
        ).train(8, 2, np.random.default_rng(5), callbacks=[callback])
        resumed_model = DLRM(CONFIG, rng=np.random.default_rng(321))
        trainer = FunctionalTrainer(
            resumed_model, make_stream(), Adam(lr=0.05)
        )
        step = restore_trainer(trainer, callback.last_path)
        trainer.train(8, 5 - step, np.random.default_rng(5), start_step=step)
        assert_params_equal(full_model, resumed_model)

    @pytest.mark.parametrize("optimizer_cls", [Adagrad, Adam])
    def test_a_resumed_run_carries_losses_parameters_and_state_on(
        self, trace, tmp_path, optimizer_cls
    ):
        """A fresh trainer restored from the checkpoint carries the run on
        — losses, parameters and per-row state."""
        full_model = make_model()
        full_trainer = FunctionalTrainer(
            full_model, TraceReplaySource(trace), optimizer_cls(lr=0.05)
        )
        full = full_trainer.train(8, 6, np.random.default_rng(9))
        callback = CheckpointCallback(tmp_path / "ck", every=3)
        FunctionalTrainer(
            make_model(), TraceReplaySource(trace), optimizer_cls(lr=0.05)
        ).train(8, 3, np.random.default_rng(9), callbacks=[callback])
        resumed_model = DLRM(CONFIG, rng=np.random.default_rng(321))
        trainer = FunctionalTrainer(
            resumed_model, TraceReplaySource(trace), optimizer_cls(lr=0.05),
        )
        step = restore_trainer(trainer, callback.last_path)
        resumed = trainer.train(
            8, 6 - step, np.random.default_rng(4), start_step=step
        )
        assert resumed.losses == full.losses[step:]
        assert_params_equal(full_model, resumed_model)
        assert_state_equal(trainer, full_trainer)


class TestFormat:
    def test_roundtrip_preserves_step_params_and_state(self, tmp_path):
        model = make_model()
        trainer = FunctionalTrainer(model, make_stream(), Momentum(lr=0.1))
        trainer.train(8, 2, np.random.default_rng(1))
        path = save_checkpoint(tmp_path / "ck", trainer, step=2)
        assert path.name == "ck.npz"  # np.savez's suffixing is mirrored
        checkpoint = load_checkpoint(path)
        assert checkpoint.step == 2
        assert checkpoint.optimizer_class == "Momentum"
        assert checkpoint.hyperparameters == {"lr": 0.1, "momentum": 0.9}
        named = dict(trainer.named_parameters())
        assert set(checkpoint.params) == set(named)
        for name, saved in checkpoint.params.items():
            assert np.array_equal(saved, named[name])
        # Momentum keeps one velocity tensor per trained parameter.
        assert any(key.endswith(".velocity") for key in checkpoint.state)

    def test_rejects_non_checkpoint_npz(self, tmp_path):
        bogus = tmp_path / "bogus.npz"
        np.savez(bogus, stuff=np.arange(3))
        with pytest.raises(ValueError, match="not a repro training checkpoint"):
            load_checkpoint(bogus)

    def test_rejects_negative_step(self, tmp_path):
        trainer = FunctionalTrainer(make_model(), make_stream(), SGD(lr=0.1))
        with pytest.raises(ValueError, match="step"):
            save_checkpoint(tmp_path / "ck.npz", trainer, step=-1)

    def test_state_is_keyed_by_table(self, tmp_path):
        trainer = FunctionalTrainer(
            make_model(), make_stream(), Adagrad(lr=0.1)
        )
        trainer.train(8, 2, np.random.default_rng(1))
        state = load_checkpoint(
            save_checkpoint(tmp_path / "ck", trainer, step=2)
        ).state
        tables = {key for key in state if key.startswith("table_")}
        assert tables == {f"table_{t}.accumulator" for t in range(3)}

    def test_a_failed_write_keeps_the_old_file_and_leaves_no_litter(
        self, tmp_path, monkeypatch
    ):
        trainer = FunctionalTrainer(make_model(), make_stream(), SGD(lr=0.1))
        path = save_checkpoint(tmp_path / "ck.npz", trainer, step=1)
        before = path.read_bytes()
        trainer.train(8, 1, np.random.default_rng(1))

        def dies_mid_write(stream, **payload):
            stream.write(b"half an archive")
            raise OSError("disk full")

        monkeypatch.setattr(
            "repro.runtime.checkpoint.np.savez_compressed", dies_mid_write
        )
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(path, trainer, step=2)
        assert path.read_bytes() == before
        assert [entry.name for entry in tmp_path.iterdir()] == ["ck.npz"]

    def test_a_save_leaves_another_writers_temporary_alone(self, tmp_path):
        """Two writers of one path never share a temporary: a file at the
        guessable ``<name>.tmp`` belongs to whoever made it."""
        other = tmp_path / "ck.npz.tmp"
        other.write_bytes(b"another writer, mid-save")
        trainer = FunctionalTrainer(make_model(), make_stream(), SGD(lr=0.1))
        path = save_checkpoint(tmp_path / "ck.npz", trainer, step=1)
        assert other.read_bytes() == b"another writer, mid-save"
        assert load_checkpoint(path).step == 1


class TestRestoreValidation:
    @pytest.fixture
    def checkpoint_path(self, tmp_path):
        trainer = FunctionalTrainer(make_model(), make_stream(), Adam(lr=0.05))
        trainer.train(8, 2, np.random.default_rng(1))
        return save_checkpoint(tmp_path / "ck.npz", trainer, step=2)

    def test_optimizer_class_mismatch_rejected(self, checkpoint_path):
        trainer = FunctionalTrainer(make_model(), make_stream(), SGD(lr=0.05))
        with pytest.raises(ValueError, match="Adam"):
            restore_trainer(trainer, checkpoint_path)

    def test_hyperparameter_mismatch_rejected(self, checkpoint_path):
        trainer = FunctionalTrainer(make_model(), make_stream(), Adam(lr=0.01))
        with pytest.raises(ValueError, match="hyperparameters"):
            restore_trainer(trainer, checkpoint_path)

    def test_geometry_mismatch_rejected(self, checkpoint_path):
        other = RM1.with_overrides(
            num_tables=2, gathers_per_table=4, rows_per_table=60,
            bottom_mlp=(8, 4), top_mlp=(4, 1), embedding_dim=4,
        )
        model = DLRM(other, rng=np.random.default_rng(0))
        stream = SyntheticCTRStream(
            num_tables=2, num_rows=60, lookups_per_sample=4, dense_features=8,
        )
        trainer = FunctionalTrainer(model, stream, Adam(lr=0.05))
        with pytest.raises(ValueError, match="parameter set"):
            restore_trainer(trainer, checkpoint_path)

    def test_per_shard_state_key_rejected_and_trainer_untouched(
        self, tmp_path
    ):
        """An archive from when state was keyed per shard view names a
        parameter no trainer has: refused by name, nothing half-applied."""
        source = FunctionalTrainer(
            make_model(), make_stream(), Adagrad(lr=0.1)
        )
        source.train(8, 2, np.random.default_rng(1))
        good = save_checkpoint(tmp_path / "good.npz", source, step=2)
        with np.load(good) as archive:
            members = {key: archive[key] for key in archive.files}
        members["state/table_0_shard_1.accumulator"] = members.pop(
            "state/table_0.accumulator"
        )[1::2]
        old = tmp_path / "old.npz"
        np.savez(old, **members)
        target = FunctionalTrainer(
            make_model(5), make_stream(), Adagrad(lr=0.1)
        )
        before = [param.copy() for param in target.model.all_parameters()]
        with pytest.raises(ValueError, match=r"table_0_shard_1\.accumulator"):
            restore_trainer(target, old)
        for param, snapshot in zip(target.model.all_parameters(), before):
            assert np.array_equal(param, snapshot)
        assert not any(tensor.any() for tensor in exported_state(target).values())

    def test_restore_accepts_preloaded_checkpoint(self, tmp_path):
        trainer = FunctionalTrainer(make_model(), make_stream(), SGD(lr=0.1))
        trainer.train(8, 2, np.random.default_rng(1))
        path = save_checkpoint(tmp_path / "ck.npz", trainer, step=2)
        loaded = load_checkpoint(path)
        fresh = FunctionalTrainer(make_model(7), make_stream(), SGD(lr=0.1))
        assert restore_trainer(fresh, loaded) == 2
        assert_params_equal(trainer.model, fresh.model)


class TestCheckpointCallback:
    def test_every_n_plus_final(self, tmp_path):
        callback = CheckpointCallback(tmp_path / "ck", every=2)
        FunctionalTrainer(make_model(), make_stream(), SGD(lr=0.1)).train(
            8, 5, np.random.default_rng(1), callbacks=[callback]
        )
        names = [path.name for path in callback.saved]
        assert names == [
            "checkpoint-00000002.npz",
            "checkpoint-00000004.npz",
            "checkpoint-00000005.npz",  # run-end save of the odd final step
        ]

    def test_no_double_save_when_final_step_aligns(self, tmp_path):
        callback = CheckpointCallback(tmp_path / "ck", every=2)
        FunctionalTrainer(make_model(), make_stream(), SGD(lr=0.1)).train(
            8, 4, np.random.default_rng(1), callbacks=[callback]
        )
        assert [p.name for p in callback.saved] == [
            "checkpoint-00000002.npz", "checkpoint-00000004.npz",
        ]

    def test_resumed_run_extends_the_step_sequence(self, tmp_path):
        callback = CheckpointCallback(tmp_path / "ck", every=1)
        FunctionalTrainer(make_model(), make_stream(), SGD(lr=0.1)).train(
            8, 2, np.random.default_rng(1), callbacks=[callback]
        )
        trainer = FunctionalTrainer(make_model(), make_stream(), SGD(lr=0.1))
        step = restore_trainer(trainer, callback.last_path)
        resumed_callback = CheckpointCallback(tmp_path / "ck", every=1)
        trainer.train(
            8, 2, np.random.default_rng(1), callbacks=[resumed_callback],
            start_step=step,
        )
        latest = latest_checkpoint(tmp_path / "ck")
        assert latest.name == "checkpoint-00000004.npz"

    def test_rejects_nonpositive_every(self, tmp_path):
        with pytest.raises(ValueError, match="every"):
            CheckpointCallback(tmp_path, every=0)


class TestLatestCheckpoint:
    def test_missing_directory_returns_none(self, tmp_path):
        assert latest_checkpoint(tmp_path / "nowhere") is None

    def test_ignores_unrelated_files(self, tmp_path):
        (tmp_path / "notes.txt").write_text("hello")
        (tmp_path / "checkpoint-00000003.npz").write_bytes(b"x")
        (tmp_path / "checkpoint-00000011.npz").write_bytes(b"x")
        assert latest_checkpoint(tmp_path).name == "checkpoint-00000011.npz"
