"""The trainers' ``backend=`` knob: threading, recording, bit-identity.

The headline guarantee (an ISSUE acceptance criterion): a 1-step
:class:`~repro.runtime.trainer.FunctionalTrainer` run is **bit-identical
across every backend** for the same seed — losses and every parameter
tensor — because the float64 model exercises exactly the regime where all
engines share one accumulation order.
"""

from functools import partial

import numpy as np
import pytest

from repro.backends import get_backend, registered_backends
from repro.data.generator import SyntheticCTRStream
from repro.model.configs import RM1
from repro.model.dlrm import DLRM
from repro.model.optim import SGD
from repro.runtime.trainer import FunctionalTrainer

TINY = RM1.with_overrides(
    num_tables=3,
    gathers_per_table=6,
    rows_per_table=400,
    bottom_mlp=(8, 8),
    top_mlp=(8, 1),
    embedding_dim=8,
)

#: Every registered engine, oracle included.
TRAINER_BACKENDS = list(registered_backends())


#: The trainer with the Section IV-B cast-ahead overlap switched on.
CastAheadTrainer = partial(FunctionalTrainer, lookahead=1)


def make_trainer(trainer_cls, backend, num_shards=1, seed=0):
    model = DLRM(TINY, rng=np.random.default_rng(seed))  # float64 default
    stream = SyntheticCTRStream(
        num_tables=TINY.num_tables,
        num_rows=TINY.rows_per_table,
        lookups_per_sample=TINY.gathers_per_table,
        dense_features=TINY.dense_features,
        seed=seed,
    )
    trainer = trainer_cls(
        model, stream, SGD(lr=0.1), num_shards=num_shards, backend=backend
    )
    return model, trainer


def run_one_step(trainer_cls, backend, num_shards=1, seed=0, steps=1):
    model, trainer = make_trainer(trainer_cls, backend, num_shards, seed)
    report = trainer.train(32, steps, np.random.default_rng(seed + 1))
    return model, report


class TestBackendKnob:
    def test_unknown_backend_fails_at_construction(self):
        with pytest.raises(ValueError, match="registered backends"):
            make_trainer(FunctionalTrainer, "warp-drive")

    @pytest.mark.parametrize("backend", TRAINER_BACKENDS)
    def test_report_records_resolved_backend(self, backend):
        _, report = run_one_step(FunctionalTrainer, backend)
        assert report.backend == backend

    def test_default_backend_is_auto(self):
        model, trainer = make_trainer(FunctionalTrainer, "auto")
        default_model, default_trainer = make_trainer(
            FunctionalTrainer, backend="auto"
        )
        assert trainer.backend.name == "auto"
        assert default_trainer.backend is trainer.backend  # registry singleton

    def test_backend_threaded_into_bags_and_sharded_executor(self):
        model, trainer = make_trainer(
            FunctionalTrainer, "reference", num_shards=2
        )
        resolved = get_backend("reference")
        assert trainer.backend is resolved
        assert all(bag.backend is resolved for bag in model.embeddings)
        assert trainer.sharded is not None
        assert trainer.sharded.backend is resolved

    def test_train_reasserts_routing_over_a_shared_model(self):
        """Two trainers over one model: whichever trains, its engine runs —
        construction order must not silently re-route an active trainer."""
        model, first = make_trainer(FunctionalTrainer, "reference")
        stream = SyntheticCTRStream(
            num_tables=TINY.num_tables,
            num_rows=TINY.rows_per_table,
            lookups_per_sample=TINY.gathers_per_table,
            dense_features=TINY.dense_features,
            seed=9,
        )
        FunctionalTrainer(model, stream, SGD(lr=0.1), backend="vectorized")
        # The second construction re-pointed the bags ...
        assert all(
            bag.backend is get_backend("vectorized") for bag in model.embeddings
        )
        # ... but training through the first trainer re-asserts its engine.
        report = first.train(16, 1, np.random.default_rng(0))
        assert report.backend == "reference"
        assert all(
            bag.backend is get_backend("reference") for bag in model.embeddings
        )


class TestBitIdentityAcrossBackends:
    """One seed, every engine, identical numbers."""

    def _runs(self, trainer_cls, num_shards=1, steps=1):
        return {
            backend: run_one_step(trainer_cls, backend, num_shards, steps=steps)
            for backend in TRAINER_BACKENDS
        }

    def _assert_identical(self, runs):
        baseline_name = TRAINER_BACKENDS[0]
        base_model, base_report = runs[baseline_name]
        for backend, (model, report) in runs.items():
            assert report.losses == base_report.losses, backend
            for got, want in zip(
                model.all_parameters(), base_model.all_parameters()
            ):
                assert np.array_equal(got, want), backend

    def test_one_step_functional_trainer(self):
        self._assert_identical(self._runs(FunctionalTrainer))

    def test_three_step_functional_trainer(self):
        """Divergence compounds across steps: three of them would amplify
        any single-ulp drift into a loud failure."""
        self._assert_identical(self._runs(FunctionalTrainer, steps=3))

    def test_sharded_trainer(self):
        self._assert_identical(self._runs(FunctionalTrainer, num_shards=2))

    def test_pipelined_trainer(self):
        self._assert_identical(self._runs(CastAheadTrainer, steps=2))

    def test_cross_engine_cross_schedule(self):
        """The strongest cut: oracle engine on the serial schedule vs. the
        vectorized engine on the pipelined schedule — still bit-identical."""
        serial_model, serial = run_one_step(
            FunctionalTrainer, "reference", steps=2
        )
        pipelined_model, pipelined = run_one_step(
            CastAheadTrainer, "vectorized", steps=2
        )
        assert serial.losses == pipelined.losses
        for got, want in zip(
            pipelined_model.all_parameters(), serial_model.all_parameters()
        ):
            assert np.array_equal(got, want)

    def test_sharded_matches_unsharded_across_engines(self):
        """The one-shard trainer is bit-identical to the model's own
        single-device step, across engine boundaries too."""
        sharded_model, _ = run_one_step(FunctionalTrainer, "reference")
        unsharded_model, trainer = make_trainer(FunctionalTrainer, "vectorized")
        data = trainer.stream.next_batch(32, np.random.default_rng(1))
        unsharded_model.train_step(
            data.dense, data.indices, data.labels, SGD(lr=0.1),
            precompute_casts=True,
        )
        for got, want in zip(
            sharded_model.all_parameters(), unsharded_model.all_parameters()
        ):
            assert np.array_equal(got, want)
