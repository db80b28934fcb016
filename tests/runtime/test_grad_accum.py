"""Gradient accumulation: bit-identity with the equivalent large batch.

The ``accum_steps`` axis of the schedule policy (ISSUE 10):
an ``accum_steps=N`` step over micro-batches ``b_1..b_N`` produces
bit-identical parameters to one serial step over their concatenation —
the merge preserves sample order and lookup order exactly, and the merged
batch then flows through the very same compute stages.  These tests pin
that contract end to end (serial and cast-ahead trainers), the merge
primitive itself, the partial-exhaustion semantics, the report's
amortization accounting, and every validation path.
"""

import numpy as np
import pytest

from repro.core.indexing import IndexArray
from repro.data.generator import SyntheticCTRStream
from repro.data.source import BatchSource, CTRBatch, SourceExhausted
from repro.model.configs import RM1
from repro.model.dlrm import DLRM
from repro.model.optim import SGD, make_optimizer, optimizer_names
from repro.runtime.engine import _merge_micro_batches
from repro.runtime.pipeline import PipelinedTrainer
from repro.runtime.policy import SchedulePolicy
from repro.runtime.trainer import FunctionalTrainer

CONFIG = RM1.with_overrides(
    num_tables=2,
    gathers_per_table=3,
    rows_per_table=100,
    bottom_mlp=(8, 4),
    top_mlp=(4, 1),
    embedding_dim=4,
)

MICRO = 8


def make_stream(seed=0):
    return SyntheticCTRStream(
        num_tables=CONFIG.num_tables,
        num_rows=CONFIG.rows_per_table,
        lookups_per_sample=CONFIG.gathers_per_table * CONFIG.num_tables,
        dense_features=CONFIG.dense_features,
        seed=seed,
    )


def make_model(seed=0):
    return DLRM(CONFIG, rng=np.random.default_rng(seed))


def slice_batch(batch, start, stop):
    """Samples ``[start, stop)`` of a batch, lookup order preserved."""
    parts = []
    for part in batch.indices:
        mask = (part.dst >= start) & (part.dst < stop)
        parts.append(IndexArray(
            part.src[mask], part.dst[mask] - start,
            num_rows=part.num_rows, num_outputs=stop - start,
        ))
    return CTRBatch(
        dense=batch.dense[start:stop],
        indices=parts,
        labels=batch.labels[start:stop],
    )


class FixedSource(BatchSource):
    """Serves a pre-built list of batches, then exhausts.

    Replaying the *same* samples as micro-batches on one trainer and as
    their concatenation on another is what makes the accumulation-vs-
    large-batch comparison exact rather than distribution-level.
    """

    def __init__(self, stream, batches):
        self.num_tables = stream.num_tables
        self.rows_per_table = list(stream.rows_per_table)
        self.dense_features = stream.dense_features
        self._batches = list(batches)
        self._i = 0

    def next_batch(self, batch, rng):
        if self._i >= len(self._batches):
            raise SourceExhausted()
        out = self._batches[self._i]
        self._i += 1
        return out


@pytest.fixture()
def micros_and_big():
    """One 32-sample batch and its four 8-sample micro slices."""
    stream = make_stream()
    big = stream.make_batch(4 * MICRO, np.random.default_rng(42))
    micros = [
        slice_batch(big, i * MICRO, (i + 1) * MICRO) for i in range(4)
    ]
    return stream, micros, big


def assert_params_equal(model_a, model_b):
    for a, b in zip(model_a.all_parameters(), model_b.all_parameters()):
        assert np.array_equal(a, b), "parameter tensors diverged"


class TestMergeMicroBatches:
    def test_single_micro_passes_through_unmerged(self, micros_and_big):
        _, micros, _ = micros_and_big
        assert _merge_micro_batches([micros[0]]) is micros[0]

    def test_merge_reconstructs_the_sliced_batch(self, micros_and_big):
        """slice -> merge is the identity: dense, labels, and every
        table's (src, dst) stream round-trip exactly."""
        _, micros, big = micros_and_big
        merged = _merge_micro_batches(micros)
        assert merged.size == big.size
        assert np.array_equal(merged.dense, big.dense)
        assert np.array_equal(merged.labels, big.labels)
        for got, want in zip(merged.indices, big.indices):
            assert got.num_outputs == want.num_outputs
            assert np.array_equal(got.src, want.src)
            assert np.array_equal(got.dst, want.dst)

    def test_dst_offsets_by_running_sample_count(self, micros_and_big):
        _, micros, _ = micros_and_big
        merged = _merge_micro_batches(micros[:2])
        for table, (first, second) in enumerate(
            zip(micros[0].indices, micros[1].indices)
        ):
            part = merged.indices[table]
            assert np.array_equal(part.dst[: first.dst.size], first.dst)
            assert np.array_equal(
                part.dst[first.dst.size:], second.dst + MICRO
            )

    def test_merge_handles_uneven_micro_sizes(self, micros_and_big):
        _, _, big = micros_and_big
        uneven = [slice_batch(big, 0, 5), slice_batch(big, 5, 32)]
        merged = _merge_micro_batches(uneven)
        assert merged.size == 32
        for got, want in zip(merged.indices, big.indices):
            assert np.array_equal(got.src, want.src)
            assert np.array_equal(got.dst, want.dst)


class TestBitIdentity:
    def test_serial_accum_matches_large_batch(self, micros_and_big):
        """The headline invariant: accum_steps=4 over 8-sample micros ==
        one 32-sample step, every parameter tensor bit for bit."""
        stream, micros, big = micros_and_big
        accum_model = make_model()
        accum = FunctionalTrainer(
            accum_model, FixedSource(stream, micros), SGD(lr=0.3),
            backend="vectorized", accum_steps=4,
        )
        accum_report = accum.train(MICRO, 1, np.random.default_rng(0))
        big_model = make_model()
        large = FunctionalTrainer(
            big_model, FixedSource(stream, [big]), SGD(lr=0.3),
            backend="vectorized",
        )
        large_report = large.train(4 * MICRO, 1, np.random.default_rng(0))
        assert_params_equal(accum_model, big_model)
        assert accum_report.losses == large_report.losses
        assert accum_report.samples == large_report.samples == 32

    def test_cast_ahead_accum_matches_large_batch(self, micros_and_big):
        """Accumulation composes with the cast-ahead overlap (the merged
        group's cast runs on the background worker) without perturbing
        the numbers."""
        stream, micros, big = micros_and_big
        accum_model = make_model()
        accum = PipelinedTrainer(
            accum_model, FixedSource(stream, micros), SGD(lr=0.3),
            backend="vectorized", accum_steps=4,
        )
        accum.train(MICRO, 1, np.random.default_rng(0))
        big_model = make_model()
        large = FunctionalTrainer(
            big_model, FixedSource(stream, [big]), SGD(lr=0.3),
            backend="vectorized",
        )
        large.train(4 * MICRO, 1, np.random.default_rng(0))
        assert_params_equal(accum_model, big_model)

    def test_multi_step_accum_matches_large_batch_run(self, micros_and_big):
        """Two accumulated steps track two large-batch steps — the group
        boundary lands exactly every ``accum_steps`` micros."""
        stream, micros, _ = micros_and_big
        second = make_stream().make_batch(
            4 * MICRO, np.random.default_rng(43))
        second_micros = [
            slice_batch(second, i * MICRO, (i + 1) * MICRO) for i in range(4)
        ]
        accum_model = make_model()
        accum = FunctionalTrainer(
            accum_model, FixedSource(stream, micros + second_micros),
            SGD(lr=0.3), backend="vectorized", accum_steps=4,
        )
        report = accum.train(MICRO, 2, np.random.default_rng(0))
        big_model = make_model()
        big_first = _merge_micro_batches(micros)
        large = FunctionalTrainer(
            big_model, FixedSource(stream, [big_first, second]),
            SGD(lr=0.3), backend="vectorized",
        )
        large.train(4 * MICRO, 2, np.random.default_rng(0))
        assert_params_equal(accum_model, big_model)
        assert report.steps == 2
        assert report.samples == 64

    @pytest.mark.parametrize("lookahead", [0, 1])
    @pytest.mark.parametrize("accum_steps", [2, 4])
    @pytest.mark.parametrize("mode", ["casted", "baseline"])
    @pytest.mark.parametrize("optimizer", optimizer_names())
    def test_every_optimizer_accumulates_like_the_large_batch(
            self, micros_and_big, optimizer, mode, accum_steps, lookahead):
        """``FunctionalTrainer(accum_steps=)`` is accumulation's one entry
        point: under every update rule, both backward modes and with or
        without the cast-ahead worker, two accumulated steps equal two
        steps over the concatenated micro-batches (the second step reads
        the optimizer state the first one left)."""
        stream, _, first = micros_and_big
        second = make_stream().make_batch(
            4 * MICRO, np.random.default_rng(43))
        larges = [slice_batch(big, 0, accum_steps * MICRO)
                  for big in (first, second)]
        micros = [slice_batch(large, i * MICRO, (i + 1) * MICRO)
                  for large in larges for i in range(accum_steps)]
        accum_model = make_model()
        FunctionalTrainer(
            accum_model, FixedSource(stream, micros),
            make_optimizer(optimizer, lr=0.05), backend="vectorized",
            accum_steps=accum_steps, lookahead=lookahead,
        ).train(MICRO, 2, np.random.default_rng(0), mode=mode)
        big_model = make_model()
        FunctionalTrainer(
            big_model, FixedSource(stream, larges),
            make_optimizer(optimizer, lr=0.05), backend="vectorized",
        ).train(accum_steps * MICRO, 2, np.random.default_rng(0), mode=mode)
        assert_params_equal(accum_model, big_model)


class TestExhaustionAndReport:
    def test_partial_group_trains_then_stops(self, micros_and_big):
        """Six micros at accum_steps=4: one full group, one partial
        2-micro group (smaller effective batch), then a clean stop."""
        stream, micros, _ = micros_and_big
        trainer = FunctionalTrainer(
            make_model(), FixedSource(stream, micros + micros[:2]),
            SGD(lr=0.3), backend="vectorized", accum_steps=4,
        )
        report = trainer.train(MICRO, 4, np.random.default_rng(0))
        assert report.steps == 2
        assert report.samples == 6 * MICRO

    def test_exhaustion_before_first_micro_ends_run(self, micros_and_big):
        stream, micros, _ = micros_and_big
        trainer = FunctionalTrainer(
            make_model(), FixedSource(stream, micros), SGD(lr=0.3),
            backend="vectorized", accum_steps=4,
        )
        report = trainer.train(MICRO, 9, np.random.default_rng(0))
        assert report.steps == 1
        assert report.samples == 4 * MICRO

    def test_start_step_skips_whole_groups(self, micros_and_big):
        """A resumed accumulating run skips ``accum_steps`` micros per
        already-trained step (it used to skip one)."""
        stream, micros, _ = micros_and_big
        resumed_model = make_model()
        resumed = FunctionalTrainer(
            resumed_model, FixedSource(stream, micros), SGD(lr=0.3),
            backend="vectorized", accum_steps=2,
        ).train(MICRO, 1, np.random.default_rng(0), start_step=1)
        direct_model = make_model()
        direct = FunctionalTrainer(
            direct_model, FixedSource(stream, micros[2:]), SGD(lr=0.3),
            backend="vectorized", accum_steps=2,
        ).train(MICRO, 1, np.random.default_rng(0))
        assert resumed.losses == direct.losses
        assert_params_equal(resumed_model, direct_model)

    def test_report_carries_amortization_accounting(self, micros_and_big):
        stream, micros, _ = micros_and_big
        trainer = FunctionalTrainer(
            make_model(), FixedSource(stream, micros), SGD(lr=0.3),
            backend="vectorized", accum_steps=4,
        )
        report = trainer.train(MICRO, 1, np.random.default_rng(0))
        assert report.accum_steps == 4
        assert report.samples == 32
        assert report.optimize_seconds > 0
        assert report.optimize_seconds_per_step == pytest.approx(
            report.optimize_seconds / report.steps)
        assert report.optimize_seconds_per_sample == pytest.approx(
            report.optimize_seconds / report.samples)
        assert 0 < report.optimize_fraction < 1


class TestValidation:
    @pytest.mark.parametrize("bad", [0, -1, True, 1.5, "4"])
    def test_trainer_rejects_bad_accum_steps(self, bad):
        with pytest.raises((ValueError, TypeError)):
            FunctionalTrainer(
                make_model(), make_stream(), SGD(lr=0.3), accum_steps=bad,
            )

    @pytest.mark.parametrize("bad", [0, -1, True, 1.5])
    def test_policy_rejects_bad_accum_steps(self, bad):
        with pytest.raises(ValueError, match="positive integer"):
            SchedulePolicy(accum_steps=bad)

    @pytest.mark.parametrize("num_shards", [1, 2])
    def test_sharded_trainer_accumulates(self, micros_and_big, num_shards):
        """Used to be rejected.  A sharded accum-4 step over the micros is
        one sharded step over their concatenation, exchange bytes
        included; at one shard that is the unsharded large batch too."""
        stream, micros, big = micros_and_big
        accum_model = make_model()
        accum_report = FunctionalTrainer(
            accum_model, FixedSource(stream, micros), SGD(lr=0.3),
            backend="vectorized", num_shards=num_shards, accum_steps=4,
        ).train(MICRO, 1, np.random.default_rng(0))
        big_model = make_model()
        large_report = FunctionalTrainer(
            big_model, FixedSource(stream, [big]), SGD(lr=0.3),
            backend="vectorized", num_shards=num_shards,
        ).train(4 * MICRO, 1, np.random.default_rng(0))
        assert_params_equal(accum_model, big_model)
        assert accum_report.losses == large_report.losses
        assert accum_report.exchange_bytes == large_report.exchange_bytes > 0
        if num_shards == 1:
            unsharded_model = make_model()
            FunctionalTrainer(
                unsharded_model, FixedSource(stream, [big]), SGD(lr=0.3),
                backend="vectorized",
            ).train(4 * MICRO, 1, np.random.default_rng(0))
            assert_params_equal(accum_model, unsharded_model)

    def test_accum_steps_one_is_the_default_policy(self, micros_and_big):
        """``accum_steps=1`` must be indistinguishable from the default
        serial trainer, report fields included."""
        stream, micros, _ = micros_and_big
        one_model = make_model()
        one = FunctionalTrainer(
            one_model, FixedSource(stream, micros), SGD(lr=0.3),
            backend="vectorized", accum_steps=1,
        )
        one_report = one.train(MICRO, 4, np.random.default_rng(0))
        serial_model = make_model()
        serial = FunctionalTrainer(
            serial_model, FixedSource(stream, micros), SGD(lr=0.3),
            backend="vectorized",
        )
        serial_report = serial.train(MICRO, 4, np.random.default_rng(0))
        assert_params_equal(one_model, serial_model)
        assert one_report.losses == serial_report.losses
        assert one_report.accum_steps == serial_report.accum_steps == 1
