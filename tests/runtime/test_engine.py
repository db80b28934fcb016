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
from repro.data.generator import SyntheticCTRStream
from repro.data.source import BatchSource, as_batch_source
from repro.model import embedding, sharded
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
from _legacy_trainer import legacy_train_serial, legacy_train_sharded

CONFIG = RM1.with_overrides(
    num_tables=3, gathers_per_table=4, rows_per_table=64,
    bottom_mlp=(8, 4), top_mlp=(4, 1), embedding_dim=4,
)


def make_stream(seed=0):
    return SyntheticCTRStream(
        num_tables=CONFIG.num_tables, num_rows=CONFIG.rows_per_table,
        lookups_per_sample=CONFIG.gathers_per_table,
        dense_features=CONFIG.dense_features, seed=seed,
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

    @pytest.mark.parametrize("policy", ["row", "table"])
    @pytest.mark.parametrize("num_shards", [1, 2, 3])
    def test_sharded(self, num_shards, policy):
        engine_model = make_model()
        report = FunctionalTrainer(
            engine_model, make_stream(), SGD(lr=0.2),
            num_shards=num_shards, policy=policy,
        ).train(8, 3, np.random.default_rng(1))
        legacy_model = make_model()
        legacy_losses, fwd_bytes, bwd_bytes = legacy_train_sharded(
            legacy_model, make_stream(), SGD(lr=0.2), 8, 3,
            np.random.default_rng(1), num_shards=num_shards, policy=policy,
        )
        assert report.losses == legacy_losses
        assert report.forward_exchange_bytes == fwd_bytes
        assert report.backward_exchange_bytes == bwd_bytes
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


class TestShardLoopMatchesLegacyGoldens:
    """The inline shard loop == the frozen sharded loop, for every optimizer.

    Shards run one after another in shard order, so every cell of policy ×
    shard count × optimizer × look-ahead × dtype must reproduce the legacy
    loop bit for bit: losses, parameters, each parameter's per-row
    optimizer state and both all-to-all byte counters.  The legacy loop is
    casted; the baseline backward (Algorithm 1 over each shard's raw pairs)
    must land on the same golden, bytes included — both modes ship the same
    payload.
    """

    @pytest.mark.parametrize("mode", ["casted", "baseline"])
    @pytest.mark.parametrize(
        "dtype", [np.float32, np.float64], ids=lambda d: np.dtype(d).name)
    @pytest.mark.parametrize("lookahead", [0, 1])
    @pytest.mark.parametrize("optimizer", optimizer_names())
    @pytest.mark.parametrize("num_shards", [1, 2, 3, 4])
    @pytest.mark.parametrize("policy", ["row", "table"])
    def test_every_cell(self, policy, num_shards, optimizer, lookahead, dtype,
                        mode):
        engine_model = make_model(dtype=dtype)
        trainer = FunctionalTrainer(
            engine_model, make_stream(), make_optimizer(optimizer, lr=0.05),
            num_shards=num_shards, policy=policy, lookahead=lookahead,
        )
        report = trainer.train(8, 3, np.random.default_rng(1), mode=mode)
        assert ("casting" in report.timings.totals) == (mode == "casted")
        legacy_model = make_model(dtype=dtype)
        legacy_optimizer = make_optimizer(optimizer, lr=0.05)
        legacy_losses, fwd_bytes, bwd_bytes = legacy_train_sharded(
            legacy_model, make_stream(), legacy_optimizer, 8, 3,
            np.random.default_rng(1), num_shards=num_shards, policy=policy,
        )
        assert report.losses == legacy_losses
        assert report.forward_exchange_bytes == fwd_bytes
        assert report.backward_exchange_bytes == bwd_bytes
        assert_params_equal(engine_model, legacy_model)

        state = trainer.optimizer.export_state(trainer.named_parameters())
        want = legacy_optimizer.export_state(
            legacy_named_parameters(legacy_model))
        assert state.keys() == want.keys()
        assert state or optimizer == "sgd"
        for key in want:
            assert state[key].dtype == want[key].dtype, key
            assert np.array_equal(state[key], want[key]), key


class EmptyBagSource(BatchSource):
    """``make_stream()`` with empty bags: every third sample looks nothing
    up in table 0, and sample 1 looks nothing up in any table."""

    def __init__(self):
        self.source = as_batch_source(make_stream())
        self.num_tables = self.source.num_tables
        self.rows_per_table = self.source.rows_per_table
        self.dense_features = self.source.dense_features

    def next_batch(self, batch, rng):
        data = self.source.next_batch(batch, rng)
        indices = []
        for table, index in enumerate(data.indices):
            drop = index.dst == 1
            if table == 0:
                drop |= index.dst % 3 == 0
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
    for module in (embedding, sharded):
        for op, carrier in LOOKUP_CARRIER.items():
            def spy(*args, _op=op, _carrier=carrier,
                    _kernel=getattr(module, op), **kwargs):
                if _carrier(*args, **kwargs).num_lookups:
                    launches.append(_op)
                return _kernel(*args, **kwargs)

            patch.setattr(module, op, spy)


class TestEmptyBagsMatchLegacyGoldens:
    """Empty bags through every policy, shard count and look-ahead.

    A bag with no lookups pools to zero, sends no gradient rows and leaves
    a shard with nothing to cast, reduce or update for that table; each
    cell must still reproduce the legacy sharded loop bit for bit, exactly
    as ``TestShardLoopMatchesLegacyGoldens`` checks it — also when the
    empty cast is made ahead, on the cast-ahead worker.

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
    @pytest.mark.parametrize("num_shards", [1, 2, 3, 4])
    @pytest.mark.parametrize("policy", ["row", "table"])
    @pytest.mark.parametrize("kernels", ["core", "oracle", "observed"])
    def test_every_cell(self, kernels, policy, num_shards, optimizer,
                        lookahead, dtype, mode, oracle_kernels, monkeypatch):
        obs = Observability() if kernels == "observed" else None
        launches = []
        with oracle_kernels() if kernels == "oracle" else nullcontext():
            engine_model = make_model(dtype=dtype)
            trainer = FunctionalTrainer(
                engine_model, EmptyBagSource(),
                make_optimizer(optimizer, lr=0.05), num_shards=num_shards,
                policy=policy, lookahead=lookahead,
            )
            with monkeypatch.context() as patch:
                if obs is not None:
                    tally_launches(patch, launches)
                report = trainer.train(8, 3, np.random.default_rng(1),
                                       mode=mode, obs=obs)
            legacy_model = make_model(dtype=dtype)
            legacy_optimizer = make_optimizer(optimizer, lr=0.05)
            legacy_losses, fwd_bytes, bwd_bytes = legacy_train_sharded(
                legacy_model, EmptyBagSource(), legacy_optimizer, 8, 3,
                np.random.default_rng(1), num_shards=num_shards,
                policy=policy,
            )
        if obs is not None:
            counted = {
                op: obs.metrics.counter("kernel.calls", op=op).value
                for op in LOOKUP_CARRIER
            }
            tally = Counter(launches)
            assert counted == {op: tally[op] for op in LOOKUP_CARRIER}
            assert tally["gather_reduce"] > 0
        assert report.losses == legacy_losses
        assert report.forward_exchange_bytes == fwd_bytes
        assert report.backward_exchange_bytes == bwd_bytes
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

    @pytest.mark.parametrize("num_shards", [1, 2])
    def test_pipelined_matches_legacy_via_serial(self, num_shards):
        pipelined_model = make_model()
        pipelined = FunctionalTrainer(
            pipelined_model, make_stream(), SGD(lr=0.2),
            num_shards=num_shards, lookahead=1,
        ).train(8, 3, np.random.default_rng(1))
        legacy_model = make_model()
        if num_shards == 1:
            legacy_losses = legacy_train_serial(
                legacy_model, make_stream(), SGD(lr=0.2), 8, 3,
                np.random.default_rng(1),
            )
        else:
            legacy_losses, _, _ = legacy_train_sharded(
                legacy_model, make_stream(), SGD(lr=0.2), 8, 3,
                np.random.default_rng(1), num_shards=num_shards,
            )
        assert pipelined.losses == legacy_losses
        assert_params_equal(pipelined_model, legacy_model)


class TestStepBody:
    """The engine's one step body and its entry points."""

    @pytest.mark.parametrize("mode", ["casted", "baseline"])
    def test_the_reduce_kernels_see_a_contiguous_gradient(
            self, mode, monkeypatch):
        """The dense backward hands over column views of its output; the
        payload the shard reduces is C-contiguous whichever way the split
        went, so the kernel never strides through the gradient table."""
        seen = []

        def spy(name, grad_at):
            real = getattr(sharded, name)

            def wrapper(*args):
                seen.append((name, args[grad_at].flags.c_contiguous))
                return real(*args)
            monkeypatch.setattr(sharded, name, wrapper)

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
