"""Whole-step differential suite over the schedule-policy product.

The engine has one step loop running one step body, with the cast inline
or one batch ahead (``FunctionalTrainer(lookahead=)``) and the backward and
update skipped by ``infer()``; the axes are meant to compose *by
construction*.  This suite holds that to account:

* every cell of look-ahead × backward mode × {train, infer} — nothing is
  rejected — is run and compared, bit for bit, against an oracle that
  shares no code with the engine — the frozen pre-refactor single-device
  loop of ``_legacy_trainer.py`` for training, in the casted mode (the
  golden the baseline backward must equal) and in the cell's own mode;
  the model's own ``forward`` for inference;
* options that were removed fail loudly rather than meaning something else;
* the integer arguments are validated by one helper at every site, an
  unknown backward mode, a bad ``batch`` and a bad ``start_step`` are
  rejected before anything is drawn through either entry point (the
  trainer or ``TrainingEngine.run``), and the silently-dropped-setting bug
  stays fixed.
"""

import importlib
import inspect
import itertools

import numpy as np
import pytest

import repro
import repro.data
from repro import cli
from repro.data.generator import SyntheticCTRStream
from repro.data.source import (
    BatchSource,
    PrefetchingSource,
    SourceExhausted,
    TakeSource,
    as_batch_source,
)
from repro.model.configs import RM1
from repro.model.dlrm import DLRM
from repro.model.loss import bce_with_logits
from repro.model.optim import SGD
from repro.runtime.engine import TrainingEngine
from repro.runtime.trainer import FunctionalTrainer

# Same-directory imports (pytest puts this directory on sys.path).
from _legacy_trainer import legacy_train_serial

CONFIG = RM1.with_overrides(
    num_tables=3, gathers_per_table=4, rows_per_table=64,
    bottom_mlp=(8, 4), top_mlp=(4, 1), embedding_dim=4,
)
BATCH = 6
STEPS = 3


def make_stream(seed=0):
    return SyntheticCTRStream(
        num_tables=CONFIG.num_tables, num_rows=CONFIG.rows_per_table,
        lookups_per_sample=CONFIG.gathers_per_table,
        dense_features=CONFIG.dense_features, seed=seed,
    )


def make_model():
    return DLRM(CONFIG, rng=np.random.default_rng(0))


class FixedSource(BatchSource):
    """Serves a pre-built list of batches, then exhausts.

    Feeding the engine and its oracle the *same* batches is what makes the
    comparison exact rather than distribution-level.  ``draws`` counts the
    calls, exhausted ones included.
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


def drawn_batches():
    """``STEPS`` batches of ``BATCH`` samples, drawn once."""
    stream, rng = make_stream(), np.random.default_rng(7)
    return stream, [stream.make_batch(BATCH, rng) for _ in range(STEPS)]


def assert_params_equal(model_a, model_b):
    for a, b in zip(model_a.all_parameters(), model_b.all_parameters()):
        assert np.array_equal(a, b)


CELLS = [
    pytest.param(
        lookahead, mode, entry, id=f"ahead{lookahead}-{mode}-{entry}",
    )
    for lookahead, mode, entry in itertools.product(
        (0, 1), ("casted", "baseline"), ("train", "infer"),
    )
]


def test_the_product_is_not_silently_shrinking():
    # 2 look-aheads x 2 modes x 2 entry points.
    assert len(CELLS) == 2 * 2 * 2


@pytest.mark.parametrize("lookahead,mode,entry", CELLS)
def test_cell_matches_its_oracle(lookahead, mode, entry):
    stream, batches = drawn_batches()
    model = make_model()
    trainer = FunctionalTrainer(
        model, FixedSource(stream, batches), SGD(lr=0.3),
        lookahead=lookahead,
    )
    run = trainer.train if entry == "train" else trainer.infer
    report = run(BATCH, STEPS, np.random.default_rng(1), mode=mode)
    assert report.steps == STEPS
    assert report.samples == STEPS * BATCH
    assert "sync" not in report.timings.totals
    assert ("cast_wait" in report.timings.totals) == (lookahead == 1)

    if entry == "train":
        for oracle_mode in dict.fromkeys(("casted", mode)):
            serial_model = make_model()
            assert report.losses == legacy_train_serial(
                serial_model, FixedSource(stream, batches), SGD(lr=0.3),
                BATCH, STEPS, np.random.default_rng(1),
                mode=oracle_mode,
            )
            assert_params_equal(model, serial_model)
        return

    oracle_model = make_model()
    assert_params_equal(model, oracle_model)  # infer froze the parameters
    expected = []
    for data in batches:
        logits = oracle_model.forward(data.dense, data.indices)
        expected.append((logits, bce_with_logits(logits, data.labels)[0]))
    assert len(report.logits) == STEPS
    for got, loss, (want, want_loss) in zip(
            report.logits, report.losses, expected):
        assert np.array_equal(got, want)
        assert loss == want_loss


# ----------------------------------------------------------------------
# Options that are gone fail loudly
# ----------------------------------------------------------------------

class TestRemovedOptions:
    @pytest.mark.parametrize("name,value", [
        ("num_shards", 2), ("policy", "row")])
    def test_the_removed_shard_options_fail_loudly(self, name, value):
        """Executed multi-shard training is gone: the trainer runs one
        device, so neither option may be accepted and silently ignored."""
        with pytest.raises(TypeError, match=name):
            FunctionalTrainer(make_model(), make_stream(), SGD(lr=0.3),
                              **{name: value})
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.model.sharded")
        assert not hasattr(FunctionalTrainer(
            make_model(), make_stream(), SGD(lr=0.3)), "sharded")

    @pytest.mark.parametrize("value", ["thread", "process"])
    def test_the_removed_parallel_mode_option_fails_loudly(
            self, value, capsys):
        """The process pool went with its option: neither spelling may be
        accepted and silently mean "threads"."""
        with pytest.raises(TypeError, match="parallel_mode"):
            FunctionalTrainer(
                make_model(), make_stream(), SGD(lr=0.3),
                parallel_mode=value,
            )
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["overlap", "--parallel-mode", value])
        assert exit_info.value.code == 2
        assert "--parallel-mode" in capsys.readouterr().err

    def test_the_removed_thread_pool_options_fail_loudly(self, capsys):
        """The thread shard pool went with its options and its engine:
        none may be accepted and silently mean "inline"."""
        for name, value in (("schedule", "parallel"), ("workers", 2)):
            with pytest.raises(TypeError, match=name):
                FunctionalTrainer(
                    make_model(), make_stream(), SGD(lr=0.3),
                    **{name: value},
                )
        for argv in (["--schedule", "parallel"], ["--workers", "2"]):
            with pytest.raises(SystemExit) as exit_info:
                cli.main(["scaling", *argv])
            assert exit_info.value.code == 2
            assert f"unrecognized arguments: {' '.join(argv)}" in (
                capsys.readouterr().err)

    @pytest.mark.parametrize("argv,message", [
        (["stepshape"], "invalid choice: 'stepshape'"),
        (["overlap", "--autotune-cache", "x.json"],
         "unrecognized arguments: --autotune-cache x.json"),
        (["overlap", "--accum-steps", "2"],
         "unrecognized arguments: --accum-steps 2"),
    ], ids=["stepshape", "autotune-cache", "accum-steps"])
    def test_the_removed_step_tuner_surface_fails_loudly(
            self, argv, message, capsys):
        """The whole-step sweep went with its decision cache and its
        accumulation flag: argparse rejects all three, so none can be
        accepted and silently ignored."""
        with pytest.raises(SystemExit) as exit_info:
            cli.main(argv)
        assert exit_info.value.code == 2
        assert message in capsys.readouterr().err

    def test_the_removed_training_surface_fails_loudly(self):
        """Gradient accumulation, the ``lookahead=1`` alias, the schedule
        policy record, the two source wrappers nothing ran and the
        legacy-stream adapter are gone: none may be accepted and silently
        mean something else."""
        with pytest.raises(TypeError, match="accum_steps"):
            FunctionalTrainer(
                make_model(), make_stream(), SGD(lr=0.3), accum_steps=2,
            )
        for module in ("repro.runtime.pipeline", "repro.runtime.policy"):
            with pytest.raises(ModuleNotFoundError):
                importlib.import_module(module)
        for name in ("TableRemapSource", "ArrivalShapedSource",
                     "LegacyStream"):
            assert not hasattr(repro.data, name)
            assert not hasattr(repro.data.source, name)

        stream = make_stream()

        class MakeBatchOnly:
            num_tables = stream.num_tables
            rows_per_table = stream.rows_per_table
            dense_features = stream.dense_features

            def make_batch(self, batch, rng):
                return stream.make_batch(batch, rng)

        with pytest.raises(TypeError, match="not a BatchSource"):
            as_batch_source(MakeBatchOnly())
        with pytest.raises(TypeError, match="not a BatchSource"):
            FunctionalTrainer(make_model(), MakeBatchOnly(), SGD(lr=0.3))

    def test_the_removed_blocked_engine_fails_loudly(self, capsys):
        """``blocked`` went with its tile knob, and the engine knob with
        it: neither the trainer nor the CLI takes an engine name, so none
        can silently mean another engine."""
        with pytest.raises(TypeError, match="backend"):
            FunctionalTrainer(make_model(), make_stream(), SGD(lr=0.3),
                              backend="blocked")
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["overlap", "--backend", "blocked"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --backend blocked" in (
            capsys.readouterr().err)

    @pytest.mark.parametrize("module", ["repro.backends",
                                        "repro.backends.autotune",
                                        "repro.backends.numba_backend"])
    def test_the_removed_engine_modules_are_gone(self, module):
        """The engine registry, the numba engine and the per-kernel
        autotuner are deleted, not hidden behind an availability check."""
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(module)

    @pytest.mark.parametrize("module", [
        "repro.serving", "repro.serving.clock", "repro.experiments.serving",
        "repro.data.arrivals",
    ])
    def test_the_removed_serving_modules_are_gone(self, module):
        """The serving plane is deleted, not hidden: its clocks live in
        ``repro.obs.clock`` and nothing else of it survives."""
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(module)

    @pytest.mark.parametrize("package,name", [
        ("repro.experiments", name) for name in (
            "serving_sweep", "format_serving", "ServingRow",
            "SERVING_CONFIG", "SERVING_POLICIES")
    ] + [("repro.data", "ArrivalProcess"),
         ("repro.experiments.measured", "seeded_model"),
         ("repro.obs", "default_clock")])
    def test_the_removed_serving_names_are_not_exported(self, package, name):
        module = importlib.import_module(package)
        assert not hasattr(module, name)
        assert name not in getattr(module, "__all__", ())

    def test_the_removed_serve_experiment_exits_2(self, capsys):
        assert "serve" not in cli.EXPERIMENTS
        assert cli.TRAINER_EXPERIMENTS == ("overlap",)
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["serve"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'serve'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["--rates", "100"], ["--policies", "single"], ["--requests", "8"],
        ["--sla-ms", "50"], ["--max-batch", "4"], ["--max-wait-ms", "2"],
        ["--arrival", "poisson"], ["--hot-cache-rows", "64"],
        ["--cache-policy", "lru"],
    ], ids=lambda argv: argv[0])
    def test_the_removed_serve_flags_are_unrecognized(self, argv, capsys):
        """The nine serve-only flags went with the experiment: argparse
        rejects each, so none can be accepted and silently ignored."""
        assert argv[0][2:].replace("-", "_") not in cli.FLAG_SCOPE
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["overlap", *argv])
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv)}" in (
            capsys.readouterr().err)

    @pytest.mark.parametrize("name", [
        "Autotuner", "ShapeClass", "KERNEL_NAMES", "NumbaBackend",
        "HAVE_NUMBA", "BackendUnavailableError", "available_backends",
        "KernelBackend", "get_backend", "registered_backends",
        "set_default_backend", "use_backend",
    ])
    def test_the_removed_engine_names_are_not_exported(self, name):
        assert not hasattr(repro, name)
        assert name not in repro.__all__

    def test_the_one_engine_record_is_a_constant(self):
        """``trainer.backend`` survives only as the record the frozen
        benchmark reads: one shared constant named ``auto``, and no run
        report carries an engine name."""
        trainer = FunctionalTrainer(make_model(), make_stream(), SGD(lr=0.3))
        assert trainer.backend is FunctionalTrainer.backend
        assert trainer.backend.name == "auto"
        assert not hasattr(trainer.backend, "tuner")
        report = trainer.train(8, 1, np.random.default_rng(1))
        assert not hasattr(report, "backend")

    @pytest.mark.parametrize("site", [
        "gather_reduce", "casted_gather_reduce", "tcasted_grad_gather_reduce",
        "tensor_casting", "expand_coalesce", "EmbeddingBag",
        "FunctionalTrainer", "overlap_sweep",
    ])
    def test_no_site_takes_an_engine(self, site):
        """There is one set of kernels: ``backend=`` is a ``TypeError``
        wherever it used to pick an engine."""
        import repro.experiments

        fn = next(getattr(package, site)
                  for package in (repro, repro.experiments)
                  if hasattr(package, site))
        assert "backend" not in inspect.signature(fn).parameters
        with pytest.raises(TypeError, match="backend"):
            fn(backend="vectorized")

    def test_numba_is_an_unknown_engine_everywhere(self, capsys):
        with pytest.raises(TypeError, match="backend"):
            FunctionalTrainer(make_model(), make_stream(), SGD(lr=0.3),
                              backend="numba")
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["overlap", "--backend", "numba"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --backend numba" in (
            capsys.readouterr().err)

    @pytest.mark.parametrize("dest,scope", sorted(cli.FLAG_SCOPE.items()))
    def test_scoped_flag_is_rejected_outside_its_scope(
            self, dest, scope, capsys, monkeypatch):
        """Every experiment outside the scope exits 2 before its runner
        runs."""
        flag = "--" + dest.replace("_", "-")
        value = {"optimizer": "sgd"}.get(dest, "1")
        outside = sorted(set(cli.EXPERIMENTS) - set(scope))
        assert "table1" in outside
        for name in outside:
            monkeypatch.setitem(cli.EXPERIMENTS, name, (
                lambda *args, **kwargs: pytest.fail("runner ran"), name))
        for name in outside:
            assert cli.main([name, flag, value]) == 2
            err = capsys.readouterr().err
            assert f"{flag} does not apply to {name!r}" in err
            assert f"it applies to: {', '.join(scope)}" in err


# ----------------------------------------------------------------------
# Integer arguments: one helper, every site
# ----------------------------------------------------------------------

def _construct(**kwargs):
    return FunctionalTrainer(
        make_model(), make_stream(), SGD(lr=0.3), **kwargs)


INT_SITES = {
    "max_batches": lambda v: TakeSource(make_stream(), v),
    "depth": lambda v: PrefetchingSource(make_stream(), v),
    "batch": lambda v: _construct().train(v, 1, np.random.default_rng(1)),
    "steps": lambda v: _construct().train(8, v, np.random.default_rng(1)),
    "infer steps": lambda v: _construct().infer(
        8, v, np.random.default_rng(1)),
}


class TestPositiveIntegers:
    @pytest.mark.parametrize("bad", [None, True, 2.5, 0, -1])
    @pytest.mark.parametrize("site", sorted(INT_SITES))
    def test_rejected_everywhere(self, site, bad):
        name = site.split()[-1]
        with pytest.raises(
                ValueError, match=f"{name} must be a positive integer"):
            INT_SITES[site](bad)

    @pytest.mark.parametrize("site", sorted(INT_SITES))
    def test_numpy_integers_accepted_everywhere(self, site):
        INT_SITES[site](np.int64(3))

    def test_numpy_steps_train_that_many(self):
        report = _construct().train(8, np.int64(3), np.random.default_rng(1))
        assert report.steps == 3


# ----------------------------------------------------------------------
# The backward mode: one tuple, checked before the draw
# ----------------------------------------------------------------------

class TestBackwardMode:
    @pytest.mark.parametrize("entry", ["train", "infer"])
    @pytest.mark.parametrize("mode", ["Casted", "cast", "", None])
    def test_unknown_mode_is_rejected_before_anything_is_drawn(
            self, entry, mode):
        """An unknown mode used to run Algorithm 1 under the unknown name
        (the cast stage only casts for ``"casted"``)."""
        stream, batches = drawn_batches()
        source = FixedSource(stream, batches)
        model = make_model()
        before = [param.copy() for param in model.all_parameters()]
        trainer = FunctionalTrainer(model, source, SGD(lr=0.3))
        rng = np.random.default_rng(1)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="mode must be one of"):
            getattr(trainer, entry)(BATCH, STEPS, rng, mode=mode)
        assert source.draws == 0
        assert rng.bit_generator.state == state
        for param, saved in zip(model.all_parameters(), before):
            assert np.array_equal(param, saved)


#: A bad run argument -> the ``ValueError`` it must raise before the draw.
BAD_RUN_ARGUMENTS = {
    "unknown-mode": (dict(mode="bogus"), "mode must be one of"),
    "negative-start-step": (dict(start_step=-3), "start_step must be"),
    "bool-start-step": (dict(start_step=True), "start_step must be"),
    "zero-batch": (dict(batch=0), "batch must be a positive integer"),
}

RUN_ENTRIES = {
    "train": lambda trainer, **kw: trainer.train(**kw),
    "infer": lambda trainer, **kw: trainer.infer(**kw),
    "engine": lambda trainer, **kw: TrainingEngine(trainer).run(**kw),
}


class TestRunArgumentsAreCheckedAtEveryEntry:
    """``TrainingEngine.run`` is public, so it checks its own arguments:
    it used to train an unknown mode with Algorithm 1 under the unknown
    name, and to hand callbacks negative global steps."""

    @pytest.mark.parametrize("entry", sorted(RUN_ENTRIES))
    @pytest.mark.parametrize("bad", sorted(BAD_RUN_ARGUMENTS))
    def test_rejected_before_anything_is_drawn(self, bad, entry):
        stream, batches = drawn_batches()
        source = FixedSource(stream, batches)
        model = make_model()
        before = [param.copy() for param in model.all_parameters()]
        trainer = FunctionalTrainer(model, source, SGD(lr=0.3))
        rng = np.random.default_rng(1)
        state = rng.bit_generator.state
        override, message = BAD_RUN_ARGUMENTS[bad]
        kwargs = dict(batch=BATCH, steps=STEPS, rng=rng, mode="casted")
        kwargs.update(override)
        with pytest.raises(ValueError, match=message):
            RUN_ENTRIES[entry](trainer, **kwargs)
        assert source.draws == 0
        assert rng.bit_generator.state == state
        for param, saved in zip(model.all_parameters(), before):
            assert np.array_equal(param, saved)


# ----------------------------------------------------------------------
# Settings that used to be dropped on the floor
# ----------------------------------------------------------------------

class TestNoSilentlyDroppedSettings:
    def test_positional_and_keyword_construction_agree(self):
        """A setting passed positionally used to slip past a keyword guard
        and be dropped."""
        positional = FunctionalTrainer(
            make_model(), make_stream(), SGD(lr=0.3), 1,
        )
        keyword = FunctionalTrainer(
            make_model(), make_stream(), SGD(lr=0.3), lookahead=1,
        )
        assert positional.lookahead == keyword.lookahead == 1
        report = positional.train(8, 2, np.random.default_rng(1))
        assert "cast_wait" in report.timings.totals
        assert report.samples == 2 * 8
