"""Differential suite for the parallel shard runtime.

The thread shard executor (``schedule="parallel"``) promises exactly one
thing beyond the inline one: the same numbers, faster when cores exist.
These tests pin the "same numbers" half across shard counts × backends ×
partition policies × worker counts, through checkpoint/resume, and across
worker crashes in each of the three per-shard phases (which must propagate
to the caller, join every thread, and leave the parameters and optimizer
state of the last completed step untouched).
"""

import threading

import numpy as np
import pytest

from repro.backends.numba_backend import NumbaParallelBackend
from repro.backends.vectorized import VectorizedBackend
from repro.data.generator import SyntheticCTRStream
from repro.model.configs import RM1
from repro.model.dlrm import DLRM
from repro.model.optim import SGD, Adagrad
from repro.obs.session import Observability
from repro.runtime.checkpoint import (
    load_checkpoint,
    restore_trainer,
    save_checkpoint,
)
from repro.runtime.engine import TrainingCallback
from repro.runtime.pipeline import PipelinedTrainer
from repro.runtime.policy import SchedulePolicy
from repro.runtime.trainer import FunctionalTrainer

CONFIG = RM1.with_overrides(
    num_tables=3, gathers_per_table=4, rows_per_table=60,
    bottom_mlp=(8, 4), top_mlp=(4, 1), embedding_dim=4,
)

#: Backends every bit-identity case runs under: the production vectorized
#: engine and the numba-parallel engine's uncompiled Python bodies (an
#: instance passes straight through resolve_backend, so the nogil/prange
#: kernel *logic* is exercised with or without numba installed).
BACKENDS = ["vectorized", NumbaParallelBackend()]


#: Per-shard phase -> the backend kernel that phase runs on a worker.
PHASE_KERNELS = {
    "cast": "cast_indices",
    "gather": "gather_reduce",
    "backward": "casted_gather_reduce",
}


class ExplodingBackend(VectorizedBackend):
    """Unregistered backend whose ``phase`` kernel blows up while armed."""

    name = "exploding"

    def __init__(self, phase="gather", armed=True):
        super().__init__()
        self.armed = armed
        healthy = getattr(self, PHASE_KERNELS[phase])

        def kernel(*args, **kwargs):
            if self.armed:
                raise RuntimeError("boom: injected shard-worker failure")
            return healthy(*args, **kwargs)

        setattr(self, PHASE_KERNELS[phase], kernel)


def make_trainer(num_shards=2, policy="row", backend="vectorized",
                 schedule="serial", workers=None,
                 optimizer_cls=SGD, seed=0, lookahead=0):
    model = DLRM(CONFIG, rng=np.random.default_rng(seed))
    stream = SyntheticCTRStream(
        num_tables=3, num_rows=60, lookups_per_sample=4,
        dense_features=8, seed=seed,
    )
    trainer = FunctionalTrainer(
        model, stream, optimizer_cls(lr=0.3),
        num_shards=num_shards, policy=policy, backend=backend,
        schedule=schedule, workers=workers, lookahead=lookahead,
    )
    return model, trainer


def train_pair(num_shards=2, policy="row", backend="vectorized",
               workers=None, optimizer_cls=SGD,
               batch=16, steps=4, obs=None):
    serial_model, serial = make_trainer(
        num_shards, policy, backend, "serial", optimizer_cls=optimizer_cls)
    serial_report = serial.train(batch, steps, np.random.default_rng(1))
    parallel_model, parallel = make_trainer(
        num_shards, policy, backend, "parallel", workers, optimizer_cls)
    parallel_report = parallel.train(
        batch, steps, np.random.default_rng(1), obs=obs)
    return (serial_model, serial_report), (parallel_model, parallel_report)


def assert_bit_identical(serial_model, serial_report, parallel_model,
                         parallel_report):
    assert serial_report.losses == parallel_report.losses
    for got, want in zip(parallel_model.all_parameters(),
                         serial_model.all_parameters()):
        assert np.array_equal(got, want)


class TestBitIdentity:
    """Shard-index-order reduction makes parallel == serial, bit for bit."""

    @pytest.mark.parametrize("backend", BACKENDS, ids=["vectorized", "numba-parallel"])
    @pytest.mark.parametrize("policy", ["row", "table"])
    @pytest.mark.parametrize("num_shards", [1, 2, 3])
    def test_thread_mode(self, num_shards, policy, backend):
        (sm, sr), (pm, pr) = train_pair(num_shards, policy, backend)
        assert_bit_identical(sm, sr, pm, pr)

    def test_fewer_workers_than_shards(self):
        (sm, sr), (pm, pr) = train_pair(num_shards=3, workers=1)
        assert_bit_identical(sm, sr, pm, pr)

    def test_stateful_optimizer_updates_through_shared_views(self):
        # Adagrad hangs accumulator state off id(param) of the shard views;
        # the pool must scatter-update through the very same views.
        (sm, sr), (pm, pr) = train_pair(optimizer_cls=Adagrad)
        assert_bit_identical(sm, sr, pm, pr)

    def test_exchange_byte_accounting_matches_serial(self):
        (_, sr), (_, pr) = train_pair()
        assert pr.forward_exchange_bytes == sr.forward_exchange_bytes
        assert pr.backward_exchange_bytes == sr.backward_exchange_bytes


class TestCheckpointResume:
    def test_resume_is_schedule_agnostic(self, tmp_path):
        _, warm = make_trainer(schedule="serial")
        warm.train(16, 2, np.random.default_rng(1))
        save_checkpoint(tmp_path / "ck.npz", warm, 2)
        checkpoint = load_checkpoint(tmp_path / "ck.npz")
        outcomes = []
        for schedule in ("serial", "parallel"):
            model, trainer = make_trainer(schedule=schedule)
            start = restore_trainer(trainer, checkpoint)
            assert start == 2
            report = trainer.train(
                16, 2, np.random.default_rng(1), start_step=start)
            outcomes.append((model, report))
        (serial_model, serial_report) = outcomes[0]
        for model, report in outcomes[1:]:
            assert_bit_identical(serial_model, serial_report, model, report)

    def test_checkpoint_saved_from_parallel_run_restores_serially(
            self, tmp_path):
        parallel_model, parallel = make_trainer(schedule="parallel")
        parallel.train(16, 2, np.random.default_rng(1))
        save_checkpoint(tmp_path / "ck.npz", parallel, 2)
        checkpoint = load_checkpoint(tmp_path / "ck.npz")
        model, trainer = make_trainer(schedule="serial")
        assert restore_trainer(trainer, checkpoint) == 2
        for got, want in zip(model.all_parameters(),
                             parallel_model.all_parameters()):
            assert np.array_equal(got, want)


def lingering_threads():
    return [t.name for t in threading.enumerate()
            if t.name.startswith(("shard-worker", "cast-ahead"))]


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
    whichever step the armed kernel is first reached in (under look-ahead
    the cast of the next batch is already in flight when a step ends).
    """

    def __init__(self, trainer):
        self.snapshots = [trainer_state(trainer)]

    def on_step_end(self, event):
        self.snapshots.append(trainer_state(event.trainer))
        event.trainer.backend.armed = True


class TestCrashPropagation:
    def test_thread_worker_crash_reraises_and_joins(self):
        _, trainer = make_trainer(
            backend=ExplodingBackend(), schedule="parallel")
        with pytest.raises(RuntimeError, match="boom"):
            trainer.train(16, 1, np.random.default_rng(1))
        # The with-block around the pool must have joined every worker.
        assert lingering_threads() == []

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("lookahead", [0, 1])
    @pytest.mark.parametrize("phase", sorted(PHASE_KERNELS))
    def test_a_failed_step_is_atomic(self, phase, lookahead, workers):
        """A worker failure in any phase leaves the last good step intact.

        Two shards, so the worker counts are below, equal to and above the
        shard count.  Adagrad, so there is optimizer state to tear.
        """
        batch, steps = 16, 4
        _, reference = make_trainer(
            schedule="parallel", workers=workers, optimizer_cls=Adagrad,
            lookahead=lookahead)
        reference_report = reference.train(
            batch, steps, np.random.default_rng(1))

        _, trainer = make_trainer(
            backend=ExplodingBackend(phase, armed=False),
            schedule="parallel", workers=workers, optimizer_cls=Adagrad,
            lookahead=lookahead)
        recorder = ArmAfterFirstStep(trainer)
        with pytest.raises(RuntimeError, match="boom") as failure:
            trainer.train(batch, steps, np.random.default_rng(1),
                          callbacks=[recorder])
        # The original exception, not a wrapper or a pool-shutdown error.
        assert failure.type is RuntimeError
        assert lingering_threads() == []
        completed = len(recorder.snapshots) - 1
        assert 1 <= completed < steps
        assert_same_state(trainer_state(trainer), recorder.snapshots[-1])

        # Same trainer, healthy backend: redo the failed step and finish.
        trainer.backend.armed = False
        resumed = trainer.train(
            batch, steps - completed, np.random.default_rng(1),
            start_step=completed)
        assert resumed.losses == reference_report.losses[completed:]
        assert_same_state(trainer_state(trainer), trainer_state(reference))
        assert lingering_threads() == []


class TestConstruction:
    @pytest.mark.parametrize("schedule", ["serial", "parallel"])
    def test_more_shards_than_rows_leaves_the_extra_shards_empty(
            self, schedule):
        # Shards name parent rows, so a shard that owns none is only ever
        # an empty shard: over 60-row tables row r lives on shard r under
        # both counts, the 61st shard never receives a lookup, and the two
        # runs are the same run.
        exact_model, exact = make_trainer(num_shards=60, schedule=schedule)
        spare_model, spare = make_trainer(num_shards=61, schedule=schedule)
        exact_report = exact.train(16, 3, np.random.default_rng(1))
        spare_report = spare.train(16, 3, np.random.default_rng(1))
        assert spare_report.losses == exact_report.losses
        for a, b in zip(exact_model.all_parameters(),
                        spare_model.all_parameters()):
            assert np.array_equal(a, b)
        assert len(spare_report.shard_timings) == 61

    def test_unknown_schedule_rejected(self):
        with pytest.raises(ValueError, match="schedule"):
            make_trainer(schedule="warp")

    def test_workers_require_parallel_schedule(self):
        with pytest.raises(ValueError, match="workers"):
            make_trainer(schedule="serial", workers=2)

    def test_nonpositive_workers_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            make_trainer(schedule="parallel", workers=0)

    def test_parallel_requires_sharding(self):
        with pytest.raises(ValueError, match="num_shards"):
            make_trainer(num_shards=None, schedule="parallel")

    def test_pipelined_trainer_composes_with_a_pool(self):
        # Used to be rejected; look-ahead and the shard executor are
        # orthogonal axes of one policy now.
        serial_model, serial = make_trainer()
        serial_report = serial.train(16, 4, np.random.default_rng(1))
        model = DLRM(CONFIG, rng=np.random.default_rng(0))
        stream = SyntheticCTRStream(
            num_tables=3, num_rows=60, lookups_per_sample=4,
            dense_features=8, seed=0,
        )
        pipelined = PipelinedTrainer(
            model, stream, SGD(lr=0.3), num_shards=2, backend="vectorized",
            schedule="parallel",
        )
        assert pipelined.policy == SchedulePolicy(
            lookahead=1, executor="thread")
        report = pipelined.train(16, 4, np.random.default_rng(1))
        assert_bit_identical(serial_model, serial_report, model, report)
        assert {"cast_wait", "sync"} <= set(report.timings.totals)

    def test_policy_record_validates_its_knobs(self):
        for removed_or_unknown in ("process", "fiber"):
            with pytest.raises(ValueError, match="executor"):
                SchedulePolicy(executor=removed_or_unknown)
        with pytest.raises(ValueError, match="workers"):
            SchedulePolicy(workers=-1)


class TestObservability:
    def test_parallel_report_carries_barrier_and_shard_timings(self):
        (_, _), (_, pr) = train_pair()
        assert "sync" in pr.timings.totals
        assert pr.shard_timings is not None and len(pr.shard_timings) == 2
        for shard in pr.shard_timings:
            for phase in ("casting", "gather", "backward"):
                assert shard.totals.get(phase, 0.0) > 0.0

    def test_worker_spans_land_on_worker_tracks(self):
        obs = Observability()
        train_pair(obs=obs)
        records = obs.tracer.records
        tracks = {record.track for record in records}
        assert {"worker0", "worker1"} <= tracks
        names = {record.name for record in records}
        assert {"cast_barrier", "forward_barrier", "backward_barrier"} <= names
        # Workers read the tracer's clock, so their spans sit inside the
        # run's own time axis (not offset by the clock's epoch).
        steps = [r for r in records if r.name == "step"]
        lo = min(r.start_s for r in steps)
        hi = max(r.end_s for r in steps)
        for record in records:
            if record.track.startswith("worker"):
                assert lo <= record.start_s <= record.end_s <= hi

    def test_trainer_owns_no_resource(self):
        # The pool lives inside one train()/infer() call; nothing to close.
        _, trainer = make_trainer(schedule="parallel")
        trainer.train(16, 1, np.random.default_rng(1))
        for gone in ("close", "__enter__", "__exit__", "_arena"):
            assert not hasattr(trainer, gone)
        assert lingering_threads() == []
