"""Whole-step differential suite over the schedule-policy product.

The engine has one step loop and one policy record
(:class:`~repro.runtime.policy.SchedulePolicy`); the axes are meant to
compose *by construction*.  This suite holds that to account:

* every cell of look-ahead × accumulation × shard count × backward mode ×
  {train, infer} — nothing is rejected — is run and compared, bit for bit,
  against an oracle that shares no code with the engine — the frozen
  pre-refactor loops of ``_legacy_trainer.py`` for training (fed the
  *concatenation* of each step's micro-batches, so accumulation is checked
  against the equivalent large batch everywhere): the sharded loop in
  every cell (its casted golden, which the baseline backward must equal),
  and at one shard also the single-device loop in the cell's own mode;
  the model's own ``forward`` for inference — or, where no such oracle
  exists (forward-only over 2 shards, whose partial-sum order differs from
  the single-table forward by an ulp), the plain inline run;
* options that were removed fail loudly rather than meaning something else;
* the integer arguments are validated by one helper at every site
  (``num_shards=None`` included: one shard is ``num_shards=1``), and the
  two silently-dropped-setting bugs the single record made unrepresentable
  stay fixed.
"""

import itertools

import numpy as np
import pytest

from repro import cli
from repro.backends import registered_backends, resolve_backend
from repro.data.generator import SyntheticCTRStream
from repro.model.configs import RM1
from repro.model.dlrm import DLRM
from repro.model.loss import bce_with_logits
from repro.model.optim import SGD
from repro.runtime.pipeline import PipelinedTrainer
from repro.runtime.policy import SchedulePolicy
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


CELLS = [
    pytest.param(
        lookahead, accum, shards, mode, entry,
        id=f"ahead{lookahead}-accum{accum}-shards{shards}-{mode}-{entry}",
    )
    for lookahead, accum, shards, mode, entry in itertools.product(
        (0, 1), (1, 3), (1, 2), ("casted", "baseline"), ("train", "infer"),
    )
]


def test_the_product_is_not_silently_shrinking():
    # 2 look-aheads x 2 accums x 2 shard counts x 2 modes x 2 entry points.
    assert len(CELLS) == 2 * 2 * 2 * 2 * 2


@pytest.mark.parametrize("lookahead,accum,shards,mode,entry", CELLS)
def test_cell_matches_its_oracle(lookahead, accum, shards, mode, entry):
    stream, bigs, micros = drawn_batches(accum)
    model = make_model()
    trainer = FunctionalTrainer(
        model, FixedSource(stream, micros), SGD(lr=0.3),
        num_shards=shards, backend="vectorized", accum_steps=accum,
        lookahead=lookahead,
    )
    run = trainer.train if entry == "train" else trainer.infer
    report = run(MICRO, STEPS, np.random.default_rng(1), mode=mode)
    assert report.steps == STEPS
    assert report.samples == STEPS * accum * MICRO
    assert "sync" not in report.timings.totals
    assert ("cast_wait" in report.timings.totals) == (lookahead == 1)

    oracle_model = make_model()
    if entry == "train":
        losses, forward_bytes, backward_bytes = legacy_train_sharded(
            oracle_model, FixedSource(stream, bigs), SGD(lr=0.3),
            accum * MICRO, STEPS, np.random.default_rng(1),
            num_shards=shards, backend="vectorized",
        )
        assert report.forward_exchange_bytes == forward_bytes
        assert report.backward_exchange_bytes == backward_bytes
        assert report.losses == losses
        assert_params_equal(model, oracle_model)
        if shards == 1:
            serial_model = make_model()
            assert report.losses == legacy_train_serial(
                serial_model, FixedSource(stream, bigs), SGD(lr=0.3),
                accum * MICRO, STEPS, np.random.default_rng(1),
                mode=mode, backend="vectorized",
            )
            assert_params_equal(model, serial_model)
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
# Options that are gone fail loudly
# ----------------------------------------------------------------------

class TestRemovedOptions:
    def test_overlap_shard_count_zero_exits_2(self, capsys):
        """Shard counts start at one: there is no unsharded plan to pick."""
        assert cli.main(["overlap", "--shards", "0", "--steps", "1"]) == 2
        assert capsys.readouterr().err == (
            "error: shard counts must be >= 1, got [0]\n")

    @pytest.mark.parametrize("value", ["thread", "process"])
    def test_the_removed_parallel_mode_option_fails_loudly(
            self, value, capsys):
        """The process pool went with its option: neither spelling may be
        accepted and silently mean "threads"."""
        with pytest.raises(TypeError, match="parallel_mode"):
            FunctionalTrainer(
                make_model(), make_stream(), SGD(lr=0.3), num_shards=2,
                backend="vectorized", parallel_mode=value,
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
                    make_model(), make_stream(), SGD(lr=0.3), num_shards=2,
                    backend="vectorized", **{name: value},
                )
        for argv in (["--schedule", "parallel"], ["--workers", "2"]):
            with pytest.raises(SystemExit) as exit_info:
                cli.main(["scaling", *argv])
            assert exit_info.value.code == 2
            assert f"unrecognized arguments: {' '.join(argv)}" in (
                capsys.readouterr().err)
        with pytest.raises(ValueError, match="unknown kernel backend") as error:
            resolve_backend("numba-parallel")
        listed = str(error.value).split("registered backends: ")[1]
        assert listed.split(", ") == list(registered_backends())

    @pytest.mark.parametrize("dest,scope", sorted(cli.FLAG_SCOPE.items()))
    def test_scoped_flag_is_rejected_outside_its_scope(
            self, dest, scope, capsys):
        flag = "--" + dest.replace("_", "-")
        value = {
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
    "accum_steps": lambda v: _construct(accum_steps=v),
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
# Settings that used to be dropped on the floor
# ----------------------------------------------------------------------

class TestNoSilentlyDroppedSettings:
    def test_positional_and_keyword_construction_agree(self):
        """A setting passed positionally used to slip past the pipelined
        trainer's keyword guard and be dropped."""
        positional = PipelinedTrainer(
            make_model(), make_stream(), SGD(lr=0.3),
            2, "row", "vectorized", 2,
        )
        keyword = PipelinedTrainer(
            make_model(), make_stream(), SGD(lr=0.3), num_shards=2,
            backend="vectorized", accum_steps=2,
        )
        assert positional.policy == keyword.policy == SchedulePolicy(
            lookahead=1, accum_steps=2)
        report = positional.train(8, 2, np.random.default_rng(1))
        assert "cast_wait" in report.timings.totals
        assert report.samples == 2 * 2 * 8
