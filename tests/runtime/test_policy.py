"""Whole-step differential suite over the schedule-policy product.

The engine has one step loop and one policy record
(:class:`~repro.runtime.policy.SchedulePolicy`); the axes are meant to
compose *by construction*.  This suite holds that to account:

* every cell of look-ahead × accumulation × shard count × shard executor ×
  backward mode × {train, infer} that the capability table does not reject
  is run and compared, bit for bit, against an oracle that shares no code
  with the engine — the frozen pre-refactor loops of ``_legacy_trainer.py``
  for training (fed the *concatenation* of each step's micro-batches, so
  accumulation is checked against the equivalent large batch everywhere,
  sharded trainers included), the model's own ``forward`` for inference —
  or, where no such oracle exists (forward-only over 2 shards, whose
  partial-sum order differs from the unsharded forward by an ulp), against
  the plain inline run;
* every row of the capability table raises ``ValueError`` with its reason
  from the trainer and exits 2 with the same text from the CLI;
* the integer arguments are validated by one helper at every site, and the
  two silently-dropped-setting bugs the single record made unrepresentable
  stay fixed.
"""

import itertools
import re

import numpy as np
import pytest

from repro import cli
from repro.data.generator import SyntheticCTRStream
from repro.model.configs import RM1
from repro.model.dlrm import DLRM
from repro.model.loss import bce_with_logits
from repro.model.optim import SGD
from repro.runtime.pipeline import PipelinedTrainer
from repro.runtime.policy import (
    CAPABILITIES,
    Features,
    SchedulePolicy,
    check_capabilities,
)
from repro.runtime.trainer import FunctionalTrainer

# Same-directory imports (pytest puts this directory on sys.path).
from _legacy_trainer import legacy_train_serial, legacy_train_sharded
from test_grad_accum import FixedSource, slice_batch

CONFIG = RM1.with_overrides(
    num_tables=3, gathers_per_table=4, rows_per_table=64,
    bottom_mlp=(8, 4), top_mlp=(4, 1), embedding_dim=4,
)
MICRO = 6
STEPS = 3


def make_stream(seed=0):
    return SyntheticCTRStream(
        num_tables=CONFIG.num_tables, num_rows=CONFIG.rows_per_table,
        lookups_per_sample=CONFIG.gathers_per_table,
        dense_features=CONFIG.dense_features, seed=seed,
    )


def make_model():
    return DLRM(CONFIG, rng=np.random.default_rng(0))


def drawn_batches(accum):
    """``STEPS`` large batches and the micro-batches they slice into."""
    stream, rng = make_stream(), np.random.default_rng(7)
    bigs = [stream.make_batch(accum * MICRO, rng) for _ in range(STEPS)]
    micros = [
        slice_batch(big, i * MICRO, (i + 1) * MICRO)
        for big in bigs for i in range(accum)
    ]
    return stream, bigs, micros


def assert_params_equal(model_a, model_b):
    for a, b in zip(model_a.all_parameters(), model_b.all_parameters()):
        assert np.array_equal(a, b)


def schedule_kwargs(executor):
    return {} if executor == "inline" else {"schedule": "parallel"}


def supported(shards, executor, mode):
    try:
        check_capabilities(Features(
            sharded=shards is not None, mode=mode, executor=executor,
        ))
    except ValueError:
        return False
    return True


CELLS = [
    pytest.param(
        lookahead, accum, shards, executor, mode, entry,
        id=f"ahead{lookahead}-accum{accum}-shards{shards}-{executor}-"
           f"{mode}-{entry}",
    )
    for lookahead, accum, shards, executor, mode, entry in itertools.product(
        (0, 1), (1, 3), (None, 1, 2), ("inline", "thread"),
        ("casted", "baseline"), ("train", "infer"),
    )
    if supported(shards, executor, mode)
]


def test_the_product_is_not_silently_shrinking():
    # 2 look-aheads x 2 accums x 2 entry points x (5 shard/executor pairs
    # in casted mode + the 1 unsharded pair in baseline mode).
    assert len(CELLS) == 2 * 2 * 2 * (5 + 1)


@pytest.mark.parametrize(
    "lookahead,accum,shards,executor,mode,entry", CELLS)
def test_cell_matches_its_oracle(
        lookahead, accum, shards, executor, mode, entry):
    stream, bigs, micros = drawn_batches(accum)
    model = make_model()
    trainer = FunctionalTrainer(
        model, FixedSource(stream, micros), SGD(lr=0.3),
        num_shards=shards, backend="vectorized", accum_steps=accum,
        lookahead=lookahead, **schedule_kwargs(executor),
    )
    run = trainer.train if entry == "train" else trainer.infer
    report = run(MICRO, STEPS, np.random.default_rng(1), mode=mode)
    assert report.steps == STEPS
    assert report.samples == STEPS * accum * MICRO
    assert ("sync" in report.timings.totals) == (executor == "thread")
    assert ("cast_wait" in report.timings.totals) == (lookahead == 1)

    oracle_model = make_model()
    if entry == "train":
        if shards is None:
            losses = legacy_train_serial(
                oracle_model, FixedSource(stream, bigs), SGD(lr=0.3),
                accum * MICRO, STEPS, np.random.default_rng(1),
                mode=mode, backend="vectorized",
            )
        else:
            losses, forward_bytes, backward_bytes = legacy_train_sharded(
                oracle_model, FixedSource(stream, bigs), SGD(lr=0.3),
                accum * MICRO, STEPS, np.random.default_rng(1),
                num_shards=shards, backend="vectorized",
            )
            assert report.forward_exchange_bytes == forward_bytes
            assert report.backward_exchange_bytes == backward_bytes
        assert report.losses == losses
        assert_params_equal(model, oracle_model)
        return

    assert_params_equal(model, oracle_model)  # infer froze the parameters
    if shards == 2:
        plain = FunctionalTrainer(
            oracle_model, FixedSource(stream, bigs), SGD(lr=0.3),
            num_shards=2, backend="vectorized",
        ).infer(accum * MICRO, STEPS, np.random.default_rng(1))
        expected = list(zip(plain.logits, plain.losses))
    else:
        expected = []
        for big in bigs:
            logits = oracle_model.forward(big.dense, big.indices)
            expected.append((logits, bce_with_logits(logits, big.labels)[0]))
    assert len(report.logits) == STEPS
    for got, loss, (want, want_loss) in zip(
            report.logits, report.losses, expected):
        assert np.array_equal(got, want)
        assert loss == want_loss


# ----------------------------------------------------------------------
# The capability table: one source, two consumers, same words
# ----------------------------------------------------------------------

#: Row name -> (trainer kwargs, mode) that the row must reject.
ROW_EXAMPLES = {
    "sharded × baseline": (dict(num_shards=2), "baseline"),
    "shard pool × unsharded": (dict(schedule="parallel"), "casted"),
    "workers × inline executor": (dict(num_shards=2, workers=2), "casted"),
}


def build_and_run(kwargs, mode):
    kwargs = dict({"backend": "vectorized"}, **kwargs)
    FunctionalTrainer(
        make_model(), make_stream(), SGD(lr=0.3), **kwargs
    ).train(8, 1, np.random.default_rng(1), mode=mode)


class TestCapabilityTable:
    def test_every_row_has_an_example(self):
        assert set(ROW_EXAMPLES) == {row.name for row in CAPABILITIES}

    @pytest.mark.parametrize("row", CAPABILITIES, ids=lambda row: row.name)
    def test_row_raises_its_reason_from_the_trainer(self, row):
        kwargs, mode = ROW_EXAMPLES[row.name]
        with pytest.raises(ValueError, match=re.escape(row.reason)):
            build_and_run(kwargs, mode)

    @pytest.mark.parametrize("row", CAPABILITIES, ids=lambda row: row.name)
    def test_only_the_mode_row_waits_for_train(self, row):
        kwargs, mode = ROW_EXAMPLES[row.name]
        kwargs = dict({"backend": "vectorized"}, **kwargs)

        def construct():
            FunctionalTrainer(
                make_model(), make_stream(), SGD(lr=0.3), **kwargs)

        if mode == "casted":
            with pytest.raises(ValueError, match=re.escape(row.reason)):
                construct()
        else:
            construct()

    @pytest.mark.parametrize("row", CAPABILITIES, ids=lambda row: row.name)
    def test_row_exits_2_from_the_cli_with_the_same_text(
            self, row, monkeypatch, capsys):
        """Whatever an experiment builds, a table row beneath it is a
        usage error: exit 2, one ``error:`` line, the table's words."""
        kwargs, mode = ROW_EXAMPLES[row.name]
        monkeypatch.setitem(
            cli.EXPERIMENTS, "cache",
            (lambda args, hardware, obs=None: build_and_run(kwargs, mode),
             "stub"),
        )
        assert cli.main(["cache"]) == 2
        assert capsys.readouterr().err == f"error: {row.reason}\n"

    @pytest.mark.parametrize("argv,row_name", [
        (["scaling", "--workers", "2"], "workers × inline executor"),
    ])
    def test_flags_that_decide_a_row_fail_before_anything_runs(
            self, argv, row_name, monkeypatch, capsys):
        monkeypatch.setitem(
            cli.EXPERIMENTS, "scaling",
            (lambda *a, **k: pytest.fail("experiment ran"), "stub"),
        )
        (row,) = [row for row in CAPABILITIES if row.name == row_name]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == f"error: {row.reason}\n"

    @pytest.mark.parametrize("value", ["thread", "process"])
    def test_the_removed_parallel_mode_option_fails_loudly(
            self, value, capsys):
        """The process pool went with its option: neither spelling may be
        accepted and silently mean "threads"."""
        with pytest.raises(TypeError, match="parallel_mode"):
            FunctionalTrainer(
                make_model(), make_stream(), SGD(lr=0.3), num_shards=2,
                backend="vectorized", schedule="parallel",
                parallel_mode=value,
            )
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["overlap", "--schedule", "parallel",
                      "--parallel-mode", value])
        assert exit_info.value.code == 2
        assert "--parallel-mode" in capsys.readouterr().err

    @pytest.mark.parametrize("dest,scope", sorted(cli.FLAG_SCOPE.items()))
    def test_scoped_flag_is_rejected_outside_its_scope(
            self, dest, scope, capsys):
        flag = "--" + dest.replace("_", "-")
        value = {
            "schedule": "parallel",
            "policies": "single", "arrival": "poisson",
            "cache_policy": "lru", "optimizer": "sgd",
        }.get(dest, "1")
        assert "table1" not in scope
        assert cli.main(["table1", flag, value]) == 2
        err = capsys.readouterr().err
        assert f"{flag} does not apply to 'table1'" in err
        assert f"it applies to: {', '.join(scope)}" in err


# ----------------------------------------------------------------------
# Integer arguments: one helper, every site
# ----------------------------------------------------------------------

def _construct(**kwargs):
    return FunctionalTrainer(
        make_model(), make_stream(), SGD(lr=0.3), backend="vectorized",
        **kwargs)


INT_SITES = {
    "num_shards": lambda v: _construct(num_shards=v),
    "workers": lambda v: _construct(
        num_shards=2, schedule="parallel", workers=v),
    "accum_steps": lambda v: _construct(accum_steps=v),
    "batch": lambda v: _construct().train(v, 1, np.random.default_rng(1)),
    "steps": lambda v: _construct().train(8, v, np.random.default_rng(1)),
    "infer steps": lambda v: _construct().infer(
        8, v, np.random.default_rng(1)),
}


class TestPositiveIntegers:
    @pytest.mark.parametrize("bad", [True, 2.5, 0, -1])
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
# Settings that used to be dropped on the floor
# ----------------------------------------------------------------------

class TestNoSilentlyDroppedSettings:
    def test_positional_and_keyword_construction_agree(self):
        """``schedule`` used to slip past the pipelined trainer's keyword
        guard when passed positionally, and then ran inline."""
        positional = PipelinedTrainer(
            make_model(), make_stream(), SGD(lr=0.3),
            2, "row", "vectorized", None, "lru", "parallel",
        )
        keyword = PipelinedTrainer(
            make_model(), make_stream(), SGD(lr=0.3), num_shards=2,
            backend="vectorized", schedule="parallel",
        )
        assert positional.policy == keyword.policy == SchedulePolicy(
            lookahead=1, executor="thread")
        report = positional.train(8, 2, np.random.default_rng(1))
        assert {"sync", "cast_wait"} <= set(report.timings.totals)

    def test_infer_keeps_the_shard_pool(self):
        """``infer()`` on a parallel trainer used to run with no pool."""
        def infer(**kwargs):
            return FunctionalTrainer(
                make_model(), make_stream(), SGD(lr=0.3), num_shards=2,
                backend="vectorized", **kwargs,
            ).infer(8, 3, np.random.default_rng(1))

        inline, pooled = infer(), infer(schedule="parallel")
        assert "sync" not in inline.timings.totals
        assert pooled.timings.totals["sync"] > 0
        assert pooled.losses == inline.losses
        for got, want in zip(pooled.logits, inline.logits):
            assert np.array_equal(got, want)
        assert pooled.forward_exchange_bytes == inline.forward_exchange_bytes
