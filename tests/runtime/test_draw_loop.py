"""The step loop's one draw site: what a run takes from its source.

:meth:`~repro.runtime.engine.TrainingEngine.execute` draws one batch per
step at one site (``_draw``) under every policy, and
:meth:`~repro.runtime.engine.TrainingEngine.run` fast-forwards a resumed
job by drawing and discarding ``start_step`` batches.  Over the same cells
as the policy suite — backward mode × {train, infer} —
these tests pin the draw contract end to end:

* a run draws exactly the batches it runs, never one ahead of ``steps``;
* an exhausting source ends the run after one failed draw, having run
  every batch already drawn;
* a batch of any size is one step, and ``samples`` counts what was drawn;
* ``start_step=k`` skips exactly ``k`` batches, and a source that cannot
  cover the skip fails with the canonical error;
* the RNG advances as the draws of a plain serial loop advance it.
"""

import itertools

import numpy as np
import pytest

from repro.core.indexing import IndexArray
from repro.data.generator import SyntheticCTRStream
from repro.data.source import BatchSource, CTRBatch, SourceExhausted
from repro.model.configs import RM1
from repro.model.dlrm import DLRM
from repro.model.loss import bce_with_logits
from repro.model.optim import SGD
from repro.runtime.trainer import FunctionalTrainer

# Same-directory import (pytest puts this directory on sys.path).
from _legacy_trainer import legacy_train_serial

CONFIG = RM1.with_overrides(
    num_tables=2, gathers_per_table=3, rows_per_table=100,
    bottom_mlp=(8, 4), top_mlp=(4, 1), embedding_dim=4,
)
BATCH = 8


def make_stream(seed=0):
    return SyntheticCTRStream(
        num_tables=CONFIG.num_tables, num_rows=CONFIG.rows_per_table,
        lookups_per_sample=CONFIG.gathers_per_table,
        dense_features=CONFIG.dense_features, seed=seed,
    )


def make_model():
    return DLRM(CONFIG, rng=np.random.default_rng(0))


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

    ``draws`` counts every call, exhausted ones included, so a test can
    pin exactly how much of the source a run consumed.
    """

    def __init__(self, stream, batches):
        self.num_tables = stream.num_tables
        self.rows_per_table = list(stream.rows_per_table)
        self.dense_features = stream.dense_features
        self._batches = list(batches)
        self.draws = 0

    def next_batch(self, batch, rng):
        self.draws += 1
        if self.draws > len(self._batches):
            raise SourceExhausted()
        return self._batches[self.draws - 1]


def drawn_batches(count, sizes=None):
    """``count`` batches drawn once; ``sizes`` slices each to its size."""
    stream, rng = make_stream(), np.random.default_rng(7)
    batches = [stream.make_batch(BATCH, rng) for _ in range(count)]
    if sizes is not None:
        batches = [slice_batch(batch, 0, size)
                   for batch, size in zip(batches, sizes)]
    return stream, batches


def assert_params_equal(model_a, model_b):
    for a, b in zip(model_a.all_parameters(), model_b.all_parameters()):
        assert np.array_equal(a, b)


CELLS = [
    pytest.param(mode, entry, id=f"{mode}-{entry}")
    for mode, entry in itertools.product(
        ("casted", "baseline"), ("train", "infer"),
    )
]


def run_cell(source, mode, entry, steps, rng=None, model=None, **kwargs):
    trainer = FunctionalTrainer(
        model if model is not None else make_model(), source, SGD(lr=0.3),
    )
    run = trainer.train if entry == "train" else trainer.infer
    rng = rng if rng is not None else np.random.default_rng(1)
    return run(BATCH, steps, rng, mode=mode, **kwargs)


def assert_runs_equal(report_a, model_a, report_b, model_b, entry):
    assert report_a.losses == report_b.losses
    assert_params_equal(model_a, model_b)
    if entry == "infer":
        assert len(report_a.logits) == len(report_b.logits)
        for a, b in zip(report_a.logits, report_b.logits):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("mode,entry", CELLS)
def test_draws_only_the_batches_it_runs(mode, entry):
    """A run never draws a batch past ``steps``: a 3-step run over a
    6-batch source draws 3."""
    stream, batches = drawn_batches(6)
    source = FixedSource(stream, batches)
    report = run_cell(source, mode, entry, steps=3)
    assert report.steps == 3
    assert report.samples == 3 * BATCH
    assert source.draws == 3


@pytest.mark.parametrize("mode,entry", CELLS)
def test_exhaustion_ends_the_run_after_one_failed_draw(
        mode, entry):
    """Three batches for seven steps: every drawn batch runs, the source
    is asked once more, and the run is the 3-step run over them."""
    stream, batches = drawn_batches(3)
    source = FixedSource(stream, batches)
    model = make_model()
    report = run_cell(source, mode, entry, steps=7,
                      model=model)
    assert report.steps == 3
    assert report.samples == 3 * BATCH
    assert len(report.losses) == 3
    assert source.draws == 4

    exact_model = make_model()
    exact = run_cell(FixedSource(stream, batches), mode, entry,
                     steps=3, model=exact_model)
    assert_runs_equal(report, model, exact, exact_model, entry)


@pytest.mark.parametrize("mode,entry", CELLS)
def test_each_batch_is_one_step_whatever_its_size(
        mode, entry):
    """A source may serve batches smaller than asked (a file's last
    batch): each is one step, ``samples`` counts what was drawn, and the
    numbers are the frozen loops' over the same batches."""
    sizes = (5, 8, 3)
    stream, batches = drawn_batches(len(sizes), sizes)
    model = make_model()
    report = run_cell(FixedSource(stream, batches), mode, entry,
                      steps=len(sizes), model=model)
    assert report.steps == len(sizes)
    assert report.samples == sum(sizes)

    if entry == "train":
        for oracle_mode in dict.fromkeys(("casted", mode)):
            serial_model = make_model()
            assert report.losses == legacy_train_serial(
                serial_model, FixedSource(stream, batches), SGD(lr=0.3),
                BATCH, len(sizes), np.random.default_rng(1),
                mode=oracle_mode,
            )
            assert_params_equal(model, serial_model)
        return

    oracle_model = make_model()
    assert_params_equal(model, oracle_model)  # infer froze the parameters
    assert [logits.shape[0] for logits in report.logits] == list(sizes)
    for data, got, loss in zip(batches, report.logits, report.losses):
        want = oracle_model.forward(data.dense, data.indices)
        assert np.array_equal(got, want)
        assert loss == bce_with_logits(want, data.labels)[0]


@pytest.mark.parametrize("mode,entry", CELLS)
def test_start_step_skips_exactly_that_many_batches(
        mode, entry):
    """``start_step=2`` over five batches runs batches 2..4: the same run
    as a fresh one over them, and the source sees five draws."""
    stream, batches = drawn_batches(5)
    source = FixedSource(stream, batches)
    resumed_model = make_model()
    resumed = run_cell(source, mode, entry, steps=3,
                       model=resumed_model, start_step=2)
    assert resumed.steps == 3
    assert source.draws == 5

    direct_model = make_model()
    direct = run_cell(FixedSource(stream, batches[2:]),
                      mode, entry, steps=3, model=direct_model)
    assert_runs_equal(resumed, resumed_model, direct, direct_model, entry)


@pytest.mark.parametrize("mode,entry", CELLS)
def test_start_step_past_the_source_raises(mode, entry):
    """A skip that uses up the source leaves nothing to run: the run
    fails with the canonical error and the parameters are untouched."""
    stream, batches = drawn_batches(2)
    source = FixedSource(stream, batches)
    model = make_model()
    with pytest.raises(ValueError, match="exhausted before the first step"):
        run_cell(source, mode, entry, steps=2,
                 model=model, start_step=2)
    assert source.draws == 3
    assert_params_equal(model, make_model())


@pytest.mark.parametrize("mode,entry", CELLS)
def test_rng_advances_as_a_serial_draw_loop(mode, entry):
    """Every batch is drawn on the calling thread, in step order, from the
    caller's generator: after ``start_step`` skips and ``steps`` steps it
    is where ``start_step + steps`` plain draws leave it."""
    rng = np.random.default_rng(3)
    run_cell(make_stream(), mode, entry, steps=3, rng=rng,
             start_step=1)
    expected, stream = np.random.default_rng(3), make_stream()
    for _ in range(4):
        stream.next_batch(BATCH, expected)
    assert rng.bit_generator.state == expected.bit_generator.state
