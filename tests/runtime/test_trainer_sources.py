"""Trainers × the data plane: bit-identity, exhaustion, prefetch composition.

The acceptance bar of the streaming refactor: a trainer fed a *replayed
trace* of the synthetic stream must match the direct synthetic run
step-for-step (losses and every parameter tensor, exactly), and finite
sources must end runs cleanly.
"""

import numpy as np
import pytest

from repro.data.generator import SyntheticCTRStream
from repro.data.source import PrefetchingSource, TakeSource
from repro.data.trace import TraceReplaySource, record_trace
from repro.model.configs import RM1
from repro.model.dlrm import DLRM
from repro.model.optim import SGD
from repro.runtime.trainer import FunctionalTrainer

CONFIG = RM1.with_overrides(
    num_tables=2,
    gathers_per_table=4,
    rows_per_table=300,
    bottom_mlp=(6, 8),
    top_mlp=(8, 1),
    embedding_dim=8,
)


def make_stream(seed=0):
    return SyntheticCTRStream(
        num_tables=CONFIG.num_tables,
        num_rows=CONFIG.rows_per_table,
        lookups_per_sample=CONFIG.gathers_per_table,
        dense_features=CONFIG.dense_features,
        seed=seed,
    )


def make_model(seed=0):
    return DLRM(CONFIG, rng=np.random.default_rng(seed))


def train(model, source, batch=8, steps=4, seed=1, **kwargs):
    trainer = FunctionalTrainer(model, source, SGD(lr=0.05), **kwargs)
    return trainer.train(batch, steps, np.random.default_rng(seed))


def assert_identical(model_a, report_a, model_b, report_b):
    assert report_a.losses == report_b.losses
    for a, b in zip(model_a.all_parameters(), model_b.all_parameters()):
        assert np.array_equal(a, b)


class TestTraceReplayBitIdentity:
    def test_replayed_trace_matches_direct_run(self, tmp_path):
        """The headline acceptance criterion: record the synthetic stream,
        replay it, and the training trajectory is bit-for-bit the same."""
        path = record_trace(
            make_stream(), tmp_path / "trace.npz", 8, 4,
            np.random.default_rng(1),
        )
        direct_model = make_model()
        direct = train(direct_model, make_stream(), seed=1)
        replay_model = make_model()
        # A totally different rng seed: replay must not depend on it.
        replayed = train(replay_model, TraceReplaySource(path), seed=999)
        assert_identical(direct_model, direct, replay_model, replayed)
        assert replayed.steps == 4

    def test_pipelined_replay_matches_serial_replay(self, tmp_path):
        path = record_trace(
            make_stream(), tmp_path / "trace.npz", 8, 4,
            np.random.default_rng(1),
        )
        serial_model = make_model()
        serial = train(serial_model, TraceReplaySource(path), seed=0)
        pipelined_model = make_model()
        pipelined = train(
            pipelined_model, TraceReplaySource(path), seed=0,
            lookahead=1,
        )
        assert_identical(serial_model, serial, pipelined_model, pipelined)

    def test_prefetched_stream_is_bit_identical(self):
        plain_model = make_model()
        plain = train(plain_model, make_stream(), seed=1)
        prefetched_model = make_model()
        prefetched_source = PrefetchingSource(make_stream(), depth=2)
        prefetched = train(prefetched_model, prefetched_source, seed=1)
        prefetched_source.close()
        assert_identical(plain_model, plain, prefetched_model, prefetched)


class TestFiniteSources:
    def test_serial_trainer_stops_cleanly_at_exhaustion(self):
        report = train(make_model(), TakeSource(make_stream(), 3), steps=10)
        assert report.steps == 3
        assert len(report.losses) == 3

    def test_exhausted_steps_match_direct_prefix(self):
        """Early-stopped training equals the same steps of the full run."""
        short_model = make_model()
        short = train(short_model, TakeSource(make_stream(), 3), steps=10, seed=1)
        full_model = make_model()
        full = train(full_model, make_stream(), steps=3, seed=1)
        assert_identical(short_model, short, full_model, full)

    def test_pipelined_trainer_stops_cleanly_at_exhaustion(self):
        report = train(
            make_model(), TakeSource(make_stream(), 3), steps=10,
            lookahead=1,
        )
        assert report.steps == 3

    def test_pipelined_exhaustion_matches_serial(self):
        serial_model = make_model()
        serial = train(serial_model, TakeSource(make_stream(), 3), steps=10,
                       seed=1)
        pipelined_model = make_model()
        pipelined = train(
            pipelined_model, TakeSource(make_stream(), 3), steps=10, seed=1,
            lookahead=1,
        )
        assert_identical(serial_model, serial, pipelined_model, pipelined)

    @pytest.mark.parametrize("lookahead", [0, 1], ids=["serial", "lookahead"])
    def test_empty_source_raises(self, lookahead, tmp_path):
        source = TakeSource(make_stream(), 1)
        source.next_batch(8, np.random.default_rng(0))  # drain it
        with pytest.raises(ValueError, match="exhausted before the first"):
            train(make_model(), source, steps=2, lookahead=lookahead)

    def test_steps_per_second_uses_actual_steps(self):
        report = train(make_model(), TakeSource(make_stream(), 2), steps=50)
        assert report.steps == 2
        assert report.steps_per_second > 0


class TestGeometryValidation:
    def test_table_count_mismatch_rejected(self):
        bad = SyntheticCTRStream(
            num_tables=3, num_rows=CONFIG.rows_per_table,
            lookups_per_sample=2, dense_features=CONFIG.dense_features,
        )
        with pytest.raises(ValueError, match="tables"):
            FunctionalTrainer(make_model(), bad, SGD(lr=0.05))
