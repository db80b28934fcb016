"""Differential bit-identity suite for the training engine.

The refactor's acceptance bar: every training path routed through the
engine must produce *exactly* the parameters and losses the pre-refactor
loops produced.  The goldens are executable — ``_legacy_trainer.py`` holds
verbatim numeric transcriptions of the pre-refactor step loops (frozen at
the refactor boundary, public model/core APIs only) — so the comparison is
exact on any platform/BLAS instead of depending on committed binaries.

Also covered here: the engine's entry points (the trainer's look-ahead,
``TrainingEngine.run`` used directly) and the callback protocol
(ordering, global step numbering, run-end events).
"""

from collections import Counter
from contextlib import nullcontext
from dataclasses import replace

import numpy as np
import pytest

from repro.core.indexing import IndexArray
from repro.data.distributions import ZipfDistribution
from repro.data.generator import SyntheticCTRStream
from repro.data.source import BatchSource, as_batch_source
from repro.model import embedding
from repro.model.configs import RM1
from repro.model.dlrm import DLRM
from repro.model.optim import (
    SGD,
    Adagrad,
    Adam,
    make_optimizer,
    optimizer_names,
)
from repro.obs import Observability
from repro.runtime.engine import (
    MetricsLogger,
    TrainingCallback,
    TrainingEngine,
)
from repro.runtime.trainer import FunctionalTrainer

# Same-directory import: pytest's default import mode puts each test
# module's directory on sys.path, so the frozen oracle imports flat.
from _legacy_trainer import legacy_train_serial

CONFIG = RM1.with_overrides(
    num_tables=3, gathers_per_table=4, rows_per_table=64,
    bottom_mlp=(8, 4), top_mlp=(4, 1), embedding_dim=4,
)


def make_stream(seed=0, lookups=CONFIG.gathers_per_table, zipf=None):
    distributions = None if zipf is None else [
        ZipfDistribution(CONFIG.rows_per_table, exponent=zipf)
        for _ in range(CONFIG.num_tables)
    ]
    return SyntheticCTRStream(
        num_tables=CONFIG.num_tables, num_rows=CONFIG.rows_per_table,
        lookups_per_sample=lookups, dense_features=CONFIG.dense_features,
        distributions=distributions, seed=seed,
    )


def make_model(seed=0, dtype=np.float64):
    return DLRM(CONFIG, rng=np.random.default_rng(seed), dtype=dtype)


def assert_params_equal(model_a, model_b):
    for a, b in zip(model_a.all_parameters(), model_b.all_parameters()):
        assert np.array_equal(a, b)


class TestSerialEngineMatchesLegacyGoldens:
    """Engine serial schedule == the frozen pre-refactor serial loop."""

    @pytest.mark.parametrize("mode", ["casted", "baseline"])
    def test_unsharded(self, mode):
        engine_model = make_model()
        report = FunctionalTrainer(
            engine_model, make_stream(), SGD(lr=0.2)
        ).train(8, 4, np.random.default_rng(1), mode=mode)
        legacy_model = make_model()
        legacy_losses = legacy_train_serial(
            legacy_model, make_stream(), SGD(lr=0.2), 8, 4,
            np.random.default_rng(1), mode=mode,
        )
        assert report.losses == legacy_losses
        assert_params_equal(engine_model, legacy_model)

    @pytest.mark.parametrize("optimizer_cls", [SGD, Adagrad, Adam])
    def test_stateful_optimizers(self, optimizer_cls):
        engine_model = make_model()
        report = FunctionalTrainer(
            engine_model, make_stream(), optimizer_cls(lr=0.1)
        ).train(8, 3, np.random.default_rng(1))
        legacy_model = make_model()
        legacy_losses = legacy_train_serial(
            legacy_model, make_stream(), optimizer_cls(lr=0.1), 8, 3,
            np.random.default_rng(1),
        )
        assert report.losses == legacy_losses
        assert_params_equal(engine_model, legacy_model)

    def test_float32(self):
        engine_model = make_model(dtype=np.float32)
        report = FunctionalTrainer(
            engine_model, make_stream(), SGD(lr=0.2),
        ).train(8, 3, np.random.default_rng(1))
        legacy_model = make_model(dtype=np.float32)
        legacy_losses = legacy_train_serial(
            legacy_model, make_stream(), SGD(lr=0.2), 8, 3,
            np.random.default_rng(1),
        )
        assert report.losses == legacy_losses
        assert_params_equal(engine_model, legacy_model)


def legacy_named_parameters(model):
    """``FunctionalTrainer.named_parameters`` for a model no trainer owns."""
    named = [
        (f"dense_{i}", param)
        for i, (param, _) in enumerate(model.dense_parameters())
    ]
    named += [
        (f"table_{t}", bag.table) for t, bag in enumerate(model.embeddings)
    ]
    return named


#: Batch shapes the step must reproduce the goldens over: batch size,
#: lookups per bag, and the row distribution (``None`` is uniform; a Zipf
#: exponent makes a few hot rows take most lookups, so the cast coalesces
#: long runs of one row).
STREAM_SHAPES = [
    pytest.param(8, 4, None, id="b8-l4-uniform"),
    pytest.param(1, 4, None, id="b1-l4-uniform"),
    pytest.param(5, 4, None, id="b5-l4-uniform"),
    pytest.param(8, 1, None, id="b8-l1-uniform"),
    pytest.param(8, 32, None, id="b8-l32-uniform"),
    pytest.param(8, 4, 1.2, id="b8-l4-zipf"),
    pytest.param(8, 32, 1.2, id="b8-l32-zipf"),
    pytest.param(16, 2, 1.2, id="b16-l2-zipf"),
]


class TestEveryCellMatchesLegacyGoldens:
    """The engine == the frozen serial loop, for every optimizer.

    Every cell of batch shape × optimizer × look-ahead × dtype × mode must
    reproduce the legacy loop bit for bit: losses, parameters and each
    parameter's per-row optimizer state.  The legacy loop is casted; the
    baseline backward (Algorithm 1 over the raw pairs) must land on the
    same golden.  The shapes run from one sample to every row looked up
    many times over (32 lookups a bag over 64 rows), and from uniform to
    skewed rows.
    """

    @pytest.mark.parametrize("mode", ["casted", "baseline"])
    @pytest.mark.parametrize(
        "dtype", [np.float32, np.float64], ids=lambda d: np.dtype(d).name)
    @pytest.mark.parametrize("lookahead", [0, 1])
    @pytest.mark.parametrize("optimizer", optimizer_names())
    @pytest.mark.parametrize("batch,lookups,zipf", STREAM_SHAPES)
    def test_every_cell(self, batch, lookups, zipf, optimizer, lookahead,
                        dtype, mode):
        engine_model = make_model(dtype=dtype)
        trainer = FunctionalTrainer(
            engine_model, make_stream(lookups=lookups, zipf=zipf),
            make_optimizer(optimizer, lr=0.05), lookahead=lookahead,
        )
        report = trainer.train(batch, 3, np.random.default_rng(1), mode=mode)
        assert ("casting" in report.timings.totals) == (mode == "casted")
        legacy_model = make_model(dtype=dtype)
        legacy_optimizer = make_optimizer(optimizer, lr=0.05)
        legacy_losses = legacy_train_serial(
            legacy_model, make_stream(lookups=lookups, zipf=zipf),
            legacy_optimizer, batch, 3, np.random.default_rng(1),
        )
        assert report.losses == legacy_losses
        assert_params_equal(engine_model, legacy_model)

        state = trainer.optimizer.export_state(trainer.named_parameters())
        want = legacy_optimizer.export_state(
            legacy_named_parameters(legacy_model))
        assert state.keys() == want.keys()
        assert state or optimizer == "sgd"
        for key in want:
            assert state[key].dtype == want[key].dtype, key
            assert np.array_equal(state[key], want[key]), key


#: Which bags a step leaves empty: ``(table, dst, batch) -> drop``, a
#: mask over one table's lookups.  ``mixed`` empties sample 1 in every
#: table and every third sample of table 0; the others empty a whole
#: table, every table, one end of the batch, every other sample, all
#: samples but one, or sample ``t`` of table ``t``.
EMPTY_BAGS = {
    "mixed": lambda table, dst, batch: (dst == 1) | (
        (table == 0) & (dst % 3 == 0)),
    "table0": lambda table, dst, batch: table == 0,
    "table1": lambda table, dst, batch: table == 1,
    "table2": lambda table, dst, batch: table == 2,
    "every-table": lambda table, dst, batch: True,
    "first-sample": lambda table, dst, batch: dst == 0,
    "last-sample": lambda table, dst, batch: dst == batch - 1,
    "odd-samples": lambda table, dst, batch: dst % 2 == 1,
    "one-sample-left": lambda table, dst, batch: dst != 3,
    "staggered": lambda table, dst, batch: dst == table,
}


class EmptyBagSource(BatchSource):
    """``make_stream()`` with the bags that ``EMPTY_BAGS[empty]`` drops
    left empty."""

    def __init__(self, empty="mixed"):
        self.source = as_batch_source(make_stream())
        self.drops = EMPTY_BAGS[empty]
        self.num_tables = self.source.num_tables
        self.rows_per_table = self.source.rows_per_table
        self.dense_features = self.source.dense_features

    def next_batch(self, batch, rng):
        data = self.source.next_batch(batch, rng)
        indices = []
        for table, index in enumerate(data.indices):
            drop = np.broadcast_to(
                self.drops(table, index.dst, index.num_outputs),
                index.dst.shape)
            indices.append(IndexArray(
                index.src[~drop], index.dst[~drop], num_rows=index.num_rows,
                num_outputs=index.num_outputs,
            ))
        return replace(data, indices=indices)


#: Each kernel the model calls -> the argument whose lookups it reduces;
#: a launch with none returns before it reports to the kernel observer.
LOOKUP_CARRIER = {
    "gather_reduce": lambda table, index: index,
    "tensor_casting": lambda index: index,
    "expand_coalesce": lambda index, gradients: index,
    "casted_gather_reduce": lambda gradients, casted: casted,
}


def tally_launches(patch, launches):
    """Wrap the model's four kernels so each launch that carries lookups
    appends its op to ``launches`` (``list.append`` is atomic, so the
    cast-ahead worker may tally too)."""
    for op, carrier in LOOKUP_CARRIER.items():
        def spy(*args, _op=op, _carrier=carrier,
                _kernel=getattr(embedding, op), **kwargs):
            if _carrier(*args, **kwargs).num_lookups:
                launches.append(_op)
            return _kernel(*args, **kwargs)

        patch.setattr(embedding, op, spy)


class TestEmptyBagsMatchLegacyGoldens:
    """Empty bags through every optimizer, look-ahead, dtype and mode.

    A bag with no lookups pools to zero and trains no row, and a table
    with none casts, reduces and updates nothing; in every ``EMPTY_BAGS``
    layout of the empty bags, each cell must
    still reproduce the legacy loop bit for bit, exactly as
    ``TestEveryCellMatchesLegacyGoldens`` checks it — also when the cast is
    made ahead, on the cast-ahead worker.

    Each cell runs three ways.  ``core``: the model's kernels.  ``oracle``:
    both loops with the four kernels swapped for their ``*_reference``
    oracles, so whole steps of oracle code meet every empty-bag shape.
    ``observed``: the kernels under an observed run, whose
    ``kernel.calls`` counts must equal, op by op, the launches that carry
    lookups — the cast-ahead worker's casts included, since the observer
    is process-wide.
    """

    @pytest.mark.parametrize("mode", ["casted", "baseline"])
    @pytest.mark.parametrize(
        "dtype", [np.float32, np.float64], ids=lambda d: np.dtype(d).name)
    @pytest.mark.parametrize("lookahead", [0, 1])
    @pytest.mark.parametrize("optimizer", optimizer_names())
    @pytest.mark.parametrize("empty", list(EMPTY_BAGS))
    @pytest.mark.parametrize("kernels", ["core", "oracle", "observed"])
    def test_every_cell(self, kernels, empty, optimizer, lookahead, dtype,
                        mode, oracle_kernels, monkeypatch):
        obs = Observability() if kernels == "observed" else None
        launches = []
        with oracle_kernels() if kernels == "oracle" else nullcontext():
            engine_model = make_model(dtype=dtype)
            trainer = FunctionalTrainer(
                engine_model, EmptyBagSource(empty),
                make_optimizer(optimizer, lr=0.05), lookahead=lookahead,
            )
            with monkeypatch.context() as patch:
                if obs is not None:
                    tally_launches(patch, launches)
                report = trainer.train(8, 3, np.random.default_rng(1),
                                       mode=mode, obs=obs)
            legacy_model = make_model(dtype=dtype)
            legacy_optimizer = make_optimizer(optimizer, lr=0.05)
            legacy_losses = legacy_train_serial(
                legacy_model, EmptyBagSource(empty), legacy_optimizer, 8, 3,
                np.random.default_rng(1),
            )
        if obs is not None:
            counted = {
                op: obs.metrics.counter("kernel.calls", op=op).value
                for op in LOOKUP_CARRIER
            }
            tally = Counter(launches)
            assert counted == {op: tally[op] for op in LOOKUP_CARRIER}
            assert (tally["gather_reduce"] > 0) == (empty != "every-table")
        assert report.losses == legacy_losses
        assert_params_equal(engine_model, legacy_model)

        state = trainer.optimizer.export_state(trainer.named_parameters())
        want = legacy_optimizer.export_state(
            legacy_named_parameters(legacy_model))
        assert state.keys() == want.keys()
        for key in want:
            assert state[key].dtype == want[key].dtype, key
            assert np.array_equal(state[key], want[key]), key


class TestPipelinedEngineEquivalence:
    """The cast-ahead schedule == the serial schedule (so == the goldens)."""

    def test_pipelined_matches_legacy_via_serial(self):
        pipelined_model = make_model()
        pipelined = FunctionalTrainer(
            pipelined_model, make_stream(), SGD(lr=0.2), lookahead=1,
        ).train(8, 3, np.random.default_rng(1))
        legacy_model = make_model()
        legacy_losses = legacy_train_serial(
            legacy_model, make_stream(), SGD(lr=0.2), 8, 3,
            np.random.default_rng(1),
        )
        assert pipelined.losses == legacy_losses
        assert_params_equal(pipelined_model, legacy_model)


class TestStepBody:
    """The engine's one step body and its entry points."""

    @pytest.mark.parametrize("mode", ["casted", "baseline"])
    def test_the_reduce_kernels_see_a_contiguous_gradient(
            self, mode, monkeypatch):
        """The dense backward hands over column views of its output; the
        bag's backward makes each table's gradient C-contiguous, so the
        kernel never strides through the gradient table."""
        seen = []

        def spy(name, grad_at):
            real = getattr(embedding, name)

            def wrapper(*args):
                seen.append((name, args[grad_at].flags.c_contiguous))
                return real(*args)
            monkeypatch.setattr(embedding, name, wrapper)

        spy("casted_gather_reduce", 0)
        spy("expand_coalesce", 1)
        FunctionalTrainer(
            make_model(dtype=np.float32), make_stream(), SGD(lr=0.1),
        ).train(8, 2, np.random.default_rng(1), mode=mode)
        kernel = "casted_gather_reduce" if mode == "casted" else (
            "expand_coalesce")
        assert seen == [(kernel, True)] * (2 * CONFIG.num_tables)

    def test_lookahead_is_a_checked_trainer_attribute(self):
        args = (make_model(), make_stream(), SGD(lr=0.1))
        assert FunctionalTrainer(*args).lookahead == 0
        assert FunctionalTrainer(*args, lookahead=1).lookahead == 1
        for bad in (2, -1, True):
            with pytest.raises(ValueError, match="lookahead must be 0 or 1"):
                FunctionalTrainer(*args, lookahead=bad)

    def test_engine_usable_directly_with_lookahead(self):
        """The facade is a convenience: TrainingEngine.run is the real API,
        and it reads the trainer's look-ahead."""
        trainer = FunctionalTrainer(
            make_model(), make_stream(), SGD(lr=0.1), lookahead=1
        )
        report = TrainingEngine(trainer).run(
            8, 2, np.random.default_rng(1), "casted",
        )
        assert report.steps == 2
        assert report.samples == 16
        assert "cast_wait" in report.timings.totals


class RecordingCallback(TrainingCallback):
    def __init__(self):
        self.steps = []
        self.run_end = None

    def on_step_end(self, event):
        self.steps.append((event.step, event.loss))

    def on_run_end(self, event):
        self.run_end = event


class TestCallbacks:
    def test_on_step_end_fires_per_step_with_losses(self):
        callback = RecordingCallback()
        report = FunctionalTrainer(
            make_model(), make_stream(), SGD(lr=0.1)
        ).train(8, 3, np.random.default_rng(1), callbacks=[callback])
        assert [step for step, _ in callback.steps] == [1, 2, 3]
        assert [loss for _, loss in callback.steps] == report.losses

    def test_on_run_end_carries_final_report(self):
        callback = RecordingCallback()
        report = FunctionalTrainer(
            make_model(), make_stream(), SGD(lr=0.1)
        ).train(8, 2, np.random.default_rng(1), callbacks=[callback])
        assert callback.run_end is not None
        assert callback.run_end.step == 2
        assert callback.run_end.report is report

    def test_start_step_offsets_global_step_numbers(self):
        callback = RecordingCallback()
        FunctionalTrainer(
            make_model(), make_stream(), SGD(lr=0.1)
        ).train(
            8, 2, np.random.default_rng(1), callbacks=[callback], start_step=5
        )
        assert [step for step, _ in callback.steps] == [6, 7]
        assert callback.run_end.step == 7

    def test_pipelined_trainer_fires_callbacks_in_step_order(self):
        callback = RecordingCallback()
        FunctionalTrainer(
            make_model(), make_stream(), SGD(lr=0.1), lookahead=1
        ).train(8, 4, np.random.default_rng(1), callbacks=[callback])
        assert [step for step, _ in callback.steps] == [1, 2, 3, 4]

    def test_metrics_logger_collects_history(self):
        logger = MetricsLogger()
        report = FunctionalTrainer(
            make_model(), make_stream(), SGD(lr=0.1)
        ).train(8, 3, np.random.default_rng(1), callbacks=[logger])
        assert logger.history == list(zip([1, 2, 3], report.losses))

    def test_metrics_logger_rejects_nonpositive_every(self):
        with pytest.raises(ValueError, match="every"):
            MetricsLogger(every=0)


class TestStartStep:
    def test_fast_forward_matches_tail_of_full_run(self):
        """start_step draws-and-discards, so the tail equals the full run."""
        full_model = make_model()
        full = FunctionalTrainer(
            full_model, make_stream(), SGD(lr=0.1)
        ).train(8, 5, np.random.default_rng(1))
        # Same init, same stream/rng seeds, but skip 2 steps of *data* only:
        # without the checkpointed parameters, losses must differ from the
        # full run's tail while the *batches* align (pinned indirectly by
        # the checkpoint tests, which add the restored state and get
        # bit-identity).
        skip_model = make_model()
        skipped = FunctionalTrainer(
            skip_model, make_stream(), SGD(lr=0.1)
        ).train(8, 3, np.random.default_rng(1), start_step=2)
        assert skipped.steps == 3
        assert skipped.losses != full.losses[2:]

    @pytest.mark.parametrize("bad", [-1, 1.5, True])
    def test_rejects_invalid_start_step(self, bad):
        trainer = FunctionalTrainer(make_model(), make_stream(), SGD(lr=0.1))
        with pytest.raises(ValueError, match="start_step"):
            trainer.train(8, 2, np.random.default_rng(1), start_step=bad)
