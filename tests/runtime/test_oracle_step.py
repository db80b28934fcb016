"""Whole training steps on the pure-Python oracles: bit-identity.

A :class:`~repro.runtime.trainer.FunctionalTrainer` run with the model's
four core kernels swapped for their ``*_reference`` oracles (the
``oracle_kernels`` fixture) is **bit-identical** to the default run for
the same seed — losses and every parameter tensor — because the float64
model exercises exactly the regime where the kernels keep the oracles'
accumulation order.
"""

from functools import partial

import numpy as np

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


#: The trainer with the Section IV-B cast-ahead overlap switched on.
CastAheadTrainer = partial(FunctionalTrainer, lookahead=1)


def make_trainer(trainer_cls, seed=0):
    model = DLRM(TINY, rng=np.random.default_rng(seed))  # float64 default
    stream = SyntheticCTRStream(
        num_tables=TINY.num_tables,
        num_rows=TINY.rows_per_table,
        lookups_per_sample=TINY.gathers_per_table,
        dense_features=TINY.dense_features,
        seed=seed,
    )
    trainer = trainer_cls(model, stream, SGD(lr=0.1))
    return model, trainer


def run_one_step(trainer_cls, seed=0, steps=1):
    model, trainer = make_trainer(trainer_cls, seed)
    report = trainer.train(32, steps, np.random.default_rng(seed + 1))
    return model, report


def assert_identical(run, want):
    (model, report), (want_model, want_report) = run, want
    assert report.losses == want_report.losses
    for got, expected in zip(
        model.all_parameters(), want_model.all_parameters()
    ):
        assert np.array_equal(got, expected)


class TestBitIdentityAcrossBackends:
    """One seed, the oracles and the kernels, identical numbers."""

    def _check(self, oracle_kernels, trainer_cls, steps=1):
        with oracle_kernels():
            oracle = run_one_step(trainer_cls, steps=steps)
        assert_identical(run_one_step(trainer_cls, steps=steps), oracle)

    def test_one_step_functional_trainer(self, oracle_kernels):
        self._check(oracle_kernels, FunctionalTrainer)

    def test_three_step_functional_trainer(self, oracle_kernels):
        """Divergence compounds across steps: three of them would amplify
        any single-ulp drift into a loud failure."""
        self._check(oracle_kernels, FunctionalTrainer, steps=3)

    def test_pipelined_trainer(self, oracle_kernels):
        self._check(oracle_kernels, CastAheadTrainer, steps=2)

    def test_cross_engine_cross_schedule(self, oracle_kernels):
        """The strongest cut: the oracles on the serial schedule vs. the
        kernels on the pipelined schedule — still bit-identical."""
        with oracle_kernels():
            serial = run_one_step(FunctionalTrainer, steps=2)
        assert_identical(run_one_step(CastAheadTrainer, steps=2), serial)

    def test_trainer_matches_train_step_across_engines(self, oracle_kernels):
        """The trainer on the oracles is bit-identical to the model's own
        ``train_step`` on the kernels."""
        with oracle_kernels():
            trained_model, _ = run_one_step(FunctionalTrainer)
        stepped_model, trainer = make_trainer(FunctionalTrainer)
        data = trainer.stream.next_batch(32, np.random.default_rng(1))
        stepped_model.train_step(
            data.dense, data.indices, data.labels, SGD(lr=0.1),
            precompute_casts=True,
        )
        for got, want in zip(
            trained_model.all_parameters(), stepped_model.all_parameters()
        ):
            assert np.array_equal(got, want)

    def test_the_swap_reaches_every_kernel(self, oracle_kernels):
        """Inside the fixture no core kernel runs: the counts stay empty."""
        from repro.core.observe import observe_kernels

        calls = []

        class Observer:
            def count_kernel(self, op):
                calls.append(op)

        with oracle_kernels(), observe_kernels(Observer()):
            for mode in ("casted", "baseline"):
                _, trainer = make_trainer(FunctionalTrainer)
                trainer.train(16, 1, np.random.default_rng(0), mode=mode)
        assert calls == []
