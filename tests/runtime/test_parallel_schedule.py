"""Differential suite for the parallel shard runtime.

A pooled shard executor (``schedule="parallel"``) promises exactly one thing
beyond the inline one: the same numbers, faster when cores exist.  These
tests pin the "same numbers" half across shard counts × backends × partition policies × worker flavors
(thread pool vs. forked processes over shared-memory tables), through
checkpoint/resume, and across worker crashes (which must propagate to the
caller and still join the pool cleanly).
"""

import gc
import threading
from multiprocessing import get_all_start_methods, shared_memory

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
from repro.runtime.pipeline import PipelinedTrainer
from repro.runtime.policy import SchedulePolicy
from repro.runtime.trainer import FunctionalTrainer

CONFIG = RM1.with_overrides(
    num_tables=3, gathers_per_table=4, rows_per_table=60,
    bottom_mlp=(8, 4), top_mlp=(4, 1), embedding_dim=4,
)

HAVE_FORK = "fork" in get_all_start_methods()

#: Backends every bit-identity case runs under: the production vectorized
#: engine and the numba-parallel engine's uncompiled Python bodies (an
#: instance passes straight through resolve_backend, so the nogil/prange
#: kernel *logic* is exercised with or without numba installed).
BACKENDS = ["vectorized", NumbaParallelBackend()]


class ExplodingBackend(VectorizedBackend):
    """Unregistered backend whose forward gather blows up on demand."""

    name = "exploding"

    def gather_reduce(self, *args, **kwargs):
        raise RuntimeError("boom: injected shard-worker failure")


def make_trainer(num_shards=2, policy="row", backend="vectorized",
                 schedule="serial", workers=None, mode="thread",
                 optimizer_cls=SGD, seed=0):
    model = DLRM(CONFIG, rng=np.random.default_rng(seed))
    stream = SyntheticCTRStream(
        num_tables=3, num_rows=60, lookups_per_sample=4,
        dense_features=8, seed=seed,
    )
    trainer = FunctionalTrainer(
        model, stream, optimizer_cls(lr=0.3),
        num_shards=num_shards, policy=policy, backend=backend,
        schedule=schedule, workers=workers, parallel_mode=mode,
    )
    return model, trainer


def train_pair(num_shards=2, policy="row", backend="vectorized",
               mode="thread", workers=None, optimizer_cls=SGD,
               batch=16, steps=4, obs=None):
    serial_model, serial = make_trainer(
        num_shards, policy, backend, "serial", optimizer_cls=optimizer_cls)
    serial_report = serial.train(batch, steps, np.random.default_rng(1))
    parallel_model, parallel = make_trainer(
        num_shards, policy, backend, "parallel", workers, mode,
        optimizer_cls)
    with parallel:
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

    @pytest.mark.parametrize("policy", ["row", "table"])
    @pytest.mark.parametrize("num_shards", [1, 2])
    def test_process_mode(self, num_shards, policy):
        (sm, sr), (pm, pr) = train_pair(num_shards, policy, mode="process")
        assert_bit_identical(sm, sr, pm, pr)

    def test_fewer_workers_than_shards(self):
        (sm, sr), (pm, pr) = train_pair(num_shards=3, workers=1)
        assert_bit_identical(sm, sr, pm, pr)

    def test_stateful_optimizer_updates_through_shared_views(self):
        # Adagrad hangs accumulator state off id(param); for process mode
        # those params must alias the shared-memory pages or the updates
        # would silently diverge from the serial run.
        for mode in ("thread", "process"):
            (sm, sr), (pm, pr) = train_pair(
                optimizer_cls=Adagrad, mode=mode)
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
        for schedule, mode in (("serial", "thread"), ("parallel", "thread"),
                               ("parallel", "process")):
            model, trainer = make_trainer(schedule=schedule, mode=mode)
            with trainer:
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
        parallel_model, parallel = make_trainer(
            schedule="parallel", mode="process")
        with parallel:
            parallel.train(16, 2, np.random.default_rng(1))
            save_checkpoint(tmp_path / "ck.npz", parallel, 2)
        checkpoint = load_checkpoint(tmp_path / "ck.npz")
        model, trainer = make_trainer(schedule="serial")
        assert restore_trainer(trainer, checkpoint) == 2
        for got, want in zip(model.all_parameters(),
                             parallel_model.all_parameters()):
            assert np.array_equal(got, want)


class TestCrashPropagation:
    def test_thread_worker_crash_reraises_and_joins(self):
        _, trainer = make_trainer(
            backend=ExplodingBackend(), schedule="parallel")
        with pytest.raises(RuntimeError, match="boom"):
            trainer.train(16, 1, np.random.default_rng(1))
        # The with-block around the pool must have joined every worker.
        lingering = [t.name for t in threading.enumerate()
                     if t.name.startswith("shard-worker")]
        assert lingering == []

    @pytest.mark.skipif(not HAVE_FORK, reason="needs fork start method to "
                        "ship an unregistered backend instance to workers")
    def test_process_worker_crash_reraises(self):
        _, trainer = make_trainer(
            backend=ExplodingBackend(), schedule="parallel", mode="process")
        with trainer:
            with pytest.raises(RuntimeError, match="boom"):
                trainer.train(16, 1, np.random.default_rng(1))


class TestConstruction:
    def test_num_shards_capped_by_smallest_table(self):
        # Satellite regression: 61 shards over 60-row tables used to fail
        # deep inside partitioning; now it is a construction-time error.
        with pytest.raises(ValueError, match="smallest embedding table"):
            make_trainer(num_shards=61)

    def test_num_shards_equal_to_smallest_table_allowed(self):
        _, trainer = make_trainer(num_shards=60)
        assert trainer.sharded is not None

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

    def test_process_mode_rejects_auto_backend(self):
        with pytest.raises(ValueError, match="auto"):
            make_trainer(backend="auto", schedule="parallel", mode="process")

    @pytest.mark.parametrize("mode", ["thread", "process"])
    def test_pipelined_trainer_composes_with_a_pool(self, mode):
        # Used to be rejected; look-ahead and the shard executor are
        # orthogonal axes of one policy now.
        serial_model, serial = make_trainer()
        serial_report = serial.train(16, 4, np.random.default_rng(1))
        model = DLRM(CONFIG, rng=np.random.default_rng(0))
        stream = SyntheticCTRStream(
            num_tables=3, num_rows=60, lookups_per_sample=4,
            dense_features=8, seed=0,
        )
        with PipelinedTrainer(
            model, stream, SGD(lr=0.3), num_shards=2, backend="vectorized",
            schedule="parallel", parallel_mode=mode,
        ) as pipelined:
            assert pipelined.policy == SchedulePolicy(
                lookahead=1, executor=mode)
            report = pipelined.train(16, 4, np.random.default_rng(1))
        assert_bit_identical(serial_model, serial_report, model, report)
        assert {"cast_wait", "sync"} <= set(report.timings.totals)

    def test_policy_record_validates_its_knobs(self):
        with pytest.raises(ValueError, match="executor"):
            SchedulePolicy(executor="fiber")
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
        tracks = {record.track for record in obs.tracer.records}
        assert any(track.startswith("worker") for track in tracks)
        names = {record.name for record in obs.tracer.records}
        assert {"forward_barrier", "backward_barrier"} <= names


class TestSharedMemoryLifetime:
    def test_close_unlinks_segments_but_parameters_stay_readable(self):
        model, trainer = make_trainer(schedule="parallel", mode="process")
        with trainer:
            trainer.train(16, 2, np.random.default_rng(1))
            names = [name for name, _, _ in trainer._arena.descriptors]
        assert trainer._arena.closed
        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)
        # The model outlives the trainer: its tables are views into the
        # (unlinked) mapping, which must stay valid until the last view
        # drops — copying them out must not crash or read garbage.
        snapshot = [np.array(p, copy=True) for p in model.all_parameters()]
        del trainer
        gc.collect()
        for got, want in zip(model.all_parameters(), snapshot):
            assert np.array_equal(got, want)

    def test_close_is_idempotent(self):
        _, trainer = make_trainer(schedule="parallel", mode="process")
        trainer.close()
        trainer.close()
        assert trainer._arena.closed
