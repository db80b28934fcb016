"""Tests for the ``python -m repro`` command-line interface."""

import inspect

import pytest

import repro.cli
import repro.experiments
from repro.cli import (
    BUILTIN_COMMANDS, EXPERIMENTS, FLAG_SCOPE, build_parser, main,
)
from repro.runtime.systems import SystemHardware


class TestParser:
    def test_every_experiment_is_a_choice(self):
        parser = build_parser()
        for name in EXPERIMENTS:
            args = parser.parse_args([name])
            assert args.experiment == name

    def test_list_is_a_choice(self):
        assert build_parser().parse_args(["list"]).experiment == "list"

    def test_every_builtin_command_is_a_choice(self):
        parser = build_parser()
        for name in BUILTIN_COMMANDS:
            assert parser.parse_args([name]).experiment == name

    def test_choices_derive_from_the_registries(self):
        """No hand-maintained name list: the positional's choices are exactly
        the union of the experiment and builtin registries."""
        parser = build_parser()
        (action,) = [a for a in parser._actions if a.dest == "experiment"]
        assert set(action.choices) == set(EXPERIMENTS) | set(BUILTIN_COMMANDS)

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])

    def test_model_and_batch_options(self):
        args = build_parser().parse_args(
            ["fig13", "--models", "RM1", "RM2", "--batches", "1024", "2048"]
        )
        assert args.models == ["RM1", "RM2"]
        assert args.batches == [1024, 2048]

    def test_dataset_default(self):
        assert build_parser().parse_args(["fig6"]).dataset == "random"


class TestMain:
    def test_list_prints_registry(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_list_prints_builtins(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in BUILTIN_COMMANDS:
            assert name in out
        assert "backend" not in out

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "819.2" in out

    def test_table2(self, capsys):
        assert main(["table2"]) == 0
        assert "RM4" in capsys.readouterr().out

    def test_fig5b(self, capsys):
        assert main(["fig5b", "--batches", "1024"]) == 0
        assert "MovieLens" in capsys.readouterr().out

    def test_fig13_restricted_grid(self, capsys):
        code = main(["fig13", "--models", "RM1", "--batches", "1024"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Ours(NMP)" in out and "RM2" not in out

    def test_fig13_with_dataset(self, capsys):
        code = main(["fig13", "--models", "RM3", "--batches", "1024",
                     "--dataset", "movielens"])
        assert code == 0
        assert "RM3" in capsys.readouterr().out

    def test_scaling_with_shards(self, capsys):
        code = main(["scaling", "--models", "RM1", "--batches", "1024",
                     "--shards", "1", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Shards" in out and "Speedup" in out

    def test_shards_option_parses(self):
        args = build_parser().parse_args(["scaling", "--shards", "1", "4"])
        assert args.shards == [1, 4]

    def test_overlap_tiny_sweep(self, capsys):
        code = main(["overlap", "--batches", "16",
                     "--steps", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Pipelined" in out and "Analytic" in out

    def test_steps_option_parses(self):
        args = build_parser().parse_args(["overlap", "--steps", "3"])
        assert args.steps == 3

    def test_overlap_explicit_zero_steps_not_coerced_to_default(self, capsys):
        assert main(["overlap", "--batches", "16", "--steps", "0"]) == 2
        assert "steps must be a positive integer" in capsys.readouterr().err

    def test_overlap_zero_batch_exits_cleanly(self, capsys):
        assert main(["overlap", "--batches", "0"]) == 2
        assert "batch must be a positive integer" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,flag,applies_to", [
        (["scaling", "--steps", "2"], "--steps", "overlap, cache"),
        (["overlap", "--shards", "2"], "--shards", "scaling"),
    ], ids=["scaling-steps", "overlap-shards"])
    def test_the_executed_shard_flags_are_unread(
            self, argv, flag, applies_to, monkeypatch, capsys):
        """Sharding is modelled, not trained: ``scaling`` has no measured
        sweep to step and ``overlap`` no shard axis, so either flag exits 2
        before anything runs."""
        monkeypatch.setitem(EXPERIMENTS, argv[0], (
            lambda *args, **kwargs: pytest.fail("experiment ran"), argv[0]))
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: {flag} does not apply to {argv[0]!r}; it applies to: "
            f"{applies_to}\n")

    def test_cache_rejects_more_than_one_batch(self, monkeypatch, capsys):
        monkeypatch.setattr("repro.cli.hotcache_sweep",
                            lambda **_: pytest.fail("experiment ran"))
        assert main(["cache", "--batches", "32", "64", "--steps", "1"]) == 2
        assert "'cache' replays one batch size" in capsys.readouterr().err

    def test_registry_descriptions_reference_paper_artifacts(self):
        for name, (_, description) in EXPERIMENTS.items():
            assert "Figure" in description or "Table" in description or "Section" in description


class TestExitCodes:
    """The process exit code is trustworthy for scripting/CI."""

    def test_unknown_experiment_exits_nonzero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["fig99"])
        assert excinfo.value.code not in (0, None)
        assert "invalid choice" in capsys.readouterr().err

    def test_validate_failure_propagates_nonzero(self, monkeypatch, capsys):
        from repro import validation

        failing = validation.ValidationReport(
            checks=[validation.CheckResult("doomed", False, "synthetic failure")]
        )
        monkeypatch.setattr(validation, "validate_all", lambda: failing)
        assert main(["validate"]) == 1
        assert "VALIDATION FAILED" in capsys.readouterr().out

    def test_validate_success_returns_zero(self, monkeypatch, capsys):
        from repro import validation

        passing = validation.ValidationReport(
            checks=[validation.CheckResult("fine", True, "synthetic pass")]
        )
        monkeypatch.setattr(validation, "validate_all", lambda: passing)
        assert main(["validate"]) == 0
        assert "ALL CHECKS PASSED" in capsys.readouterr().out


class TestSourceSelection:
    """--dataset/--trace: the data-plane source flags."""

    def test_unknown_dataset_exits_nonzero_listing_candidates(self, capsys):
        assert main(["fig13", "--dataset", "netflix"]) == 2
        err = capsys.readouterr().err
        for name in ("random", "amazon", "movielens", "alibaba", "criteo"):
            assert name in err

    def test_unknown_dataset_rejected_for_trainer_experiments(self, capsys):
        assert main(["cache", "--dataset", "netflix"]) == 2
        assert "unknown dataset" in capsys.readouterr().err

    def test_trace_flag_parses(self):
        args = build_parser().parse_args(["cache", "--trace", "t.npz"])
        assert args.trace == "t.npz"

    def test_trace_rejected_for_non_trainer_experiments(self, capsys):
        assert main(["fig6", "--trace", "whatever.npz"]) == 2
        err = capsys.readouterr().err
        assert "cache" in err and "overlap" in err

    def test_missing_trace_file_exits_nonzero(self, capsys):
        assert main(["cache", "--trace", "/nonexistent/trace.npz"]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_non_trace_npz_exits_nonzero(self, capsys, tmp_path):
        import numpy as np

        bogus = tmp_path / "bogus.npz"
        np.savez(bogus, stuff=np.arange(3))
        assert main(["cache", "--trace", str(bogus)]) == 2
        assert "not a repro batch trace" in capsys.readouterr().err

    def _record_tiny_trace(self, tmp_path, config, batch=32, steps=2):
        import numpy as np

        from repro.data import SyntheticCTRStream, record_trace

        stream = SyntheticCTRStream(
            num_tables=config.num_tables,
            num_rows=config.rows_per_table,
            lookups_per_sample=config.gathers_per_table,
            dense_features=config.dense_features,
            seed=0,
        )
        return record_trace(
            stream, tmp_path / "tiny.npz", batch, steps,
            np.random.default_rng(1),
        )

    def test_cache_experiment_runs(self, capsys):
        assert main(["cache", "--batches", "64", "--steps", "2",
                     "--dataset", "movielens"]) == 0
        out = capsys.readouterr().out
        assert "Measured" in out and "Analytic" in out
        assert "lru" in out and "lfu" in out

    def test_cache_replays_a_recorded_trace(self, capsys, tmp_path):
        from repro.experiments.hotcache import HOTCACHE_CONFIG

        trace = self._record_tiny_trace(tmp_path, HOTCACHE_CONFIG)
        assert main(["cache", "--trace", str(trace)]) == 0
        assert "trace:tiny.npz" in capsys.readouterr().out

    def test_overlap_replays_a_recorded_trace(self, capsys, tmp_path):
        from repro.experiments.overlap import OVERLAP_CONFIG

        trace = self._record_tiny_trace(tmp_path, OVERLAP_CONFIG, batch=16,
                                        steps=2)
        assert main(["overlap", "--trace", str(trace), "--steps", "2"]) == 0
        out = capsys.readouterr().out
        assert "trace:tiny.npz" in out and "OK" in out


class TestTrainingJobFlags:
    """--optimizer/--lr/--checkpoint-dir/--resume (mirror the --trace rules)."""

    def test_optimizer_and_lr_parse(self):
        args = build_parser().parse_args(
            ["overlap", "--optimizer", "adam", "--lr", "0.05"]
        )
        assert args.optimizer == "adam"
        assert args.lr == 0.05

    def test_checkpoint_flags_parse(self):
        args = build_parser().parse_args(
            ["overlap", "--checkpoint-dir", "ckpts", "--resume", "c.npz"]
        )
        assert args.checkpoint_dir == "ckpts"
        assert args.resume == "c.npz"

    def test_unknown_optimizer_exits_nonzero_listing_names(self, capsys):
        from repro.model.optim import optimizer_names

        assert main(["overlap", "--optimizer", "warp-drive"]) == 2
        err = capsys.readouterr().err
        assert "warp-drive" in err
        for name in optimizer_names():
            assert name in err

    @pytest.mark.parametrize(
        "flags",
        [
            ["--optimizer", "sgd"],
            ["--lr", "0.1"],
            ["--checkpoint-dir", "somewhere"],
            ["--resume", "c.npz"],
        ],
    )
    def test_job_flags_rejected_for_non_trainer_experiments(self, flags, capsys):
        assert main(["fig6", *flags]) == 2
        err = capsys.readouterr().err
        assert "it applies to: overlap" in err

    def test_nonpositive_lr_exits_nonzero(self, capsys):
        assert main(["overlap", "--lr", "-0.5"]) == 2
        assert "learning rate must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("lr", ["inf", "nan"])
    def test_non_finite_lr_exits_nonzero(self, lr, capsys):
        assert main(["overlap", "--lr", lr]) == 2
        assert f"must be positive and finite, got {lr}" in (
            capsys.readouterr().err)

    def test_missing_resume_checkpoint_exits_nonzero(self, capsys):
        assert main(["overlap", "--resume", "/nonexistent/ck.npz"]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_overlap_runs_with_registry_optimizer(self, capsys):
        assert main(["overlap", "--batches", "16",
                     "--steps", "1", "--dataset", "movielens",
                     "--optimizer", "adagrad", "--lr", "0.05"]) == 0
        assert "Pipelined" in capsys.readouterr().out

    def test_checkpoint_dir_saves_then_resume_restores(self, capsys, tmp_path):
        ckpt_dir = tmp_path / "ckpts"
        assert main(["overlap", "--batches", "16",
                     "--steps", "2", "--dataset", "movielens",
                     "--checkpoint-dir", str(ckpt_dir)]) == 0
        capsys.readouterr()
        saved = sorted(path.name for path in ckpt_dir.glob("*.npz"))
        assert saved == ["overlap-b16.npz"]
        from repro.runtime.checkpoint import load_checkpoint

        assert load_checkpoint(ckpt_dir / "overlap-b16.npz").step == 2
        assert main(["overlap", "--batches", "16",
                     "--steps", "2", "--dataset", "movielens",
                     "--resume", str(ckpt_dir / "overlap-b16.npz")]) == 0
        assert "Pipelined" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flags",
        [
            ["--optimizer", "sgd"],
            ["--lr", "0.1"],
            ["--checkpoint-dir", "somewhere"],
            ["--resume", "c.npz"],
            ["--trace-out", "t.json"],
            ["--metrics-out", "m.json"],
        ],
    )
    def test_cache_rejects_the_trainer_flags(self, flags, monkeypatch, capsys):
        # The cache experiment replays indices and trains nothing.
        monkeypatch.setattr("repro.cli.hotcache_sweep",
                            lambda **_: pytest.fail("experiment ran"))
        assert main(["cache", *flags]) == 2
        assert f"{flags[0]} does not apply to 'cache'" in (
            capsys.readouterr().err)


class TestObservabilityFlags:
    """--trace-out/--metrics-out: trainer-only validation plus artifacts."""

    def test_flags_parse(self):
        args = build_parser().parse_args(
            ["overlap", "--trace-out", "t.json", "--metrics-out", "m.json"])
        assert args.trace_out == "t.json"
        assert args.metrics_out == "m.json"

    def test_trace_out_rejected_for_non_trainer_experiment(self, capsys):
        assert main(["table1", "--trace-out", "t.json"]) == 2
        assert "--trace-out" in capsys.readouterr().err

    def test_metrics_out_rejected_for_non_trainer_experiment(self, capsys):
        assert main(["fig13", "--metrics-out", "m.json"]) == 2
        assert "--metrics-out" in capsys.readouterr().err

    def test_traced_overlap_writes_all_artifacts(self, capsys, tmp_path):
        import json

        trace = tmp_path / "overlap.trace.json"
        metrics = tmp_path / "metrics.json"
        assert main(["overlap", "--batches", "16",
                     "--steps", "2",
                     "--trace-out", str(trace),
                     "--metrics-out", str(metrics)]) == 0
        err = capsys.readouterr().err
        for path in (trace, metrics,
                     tmp_path / "overlap.trace.steps.jsonl",
                     tmp_path / "overlap.trace.manifest.json"):
            assert path.is_file()
            assert f"wrote {path}" in err
        from repro.obs import validate_chrome_trace

        payload = json.loads(trace.read_text())
        assert validate_chrome_trace(payload) > 0
        steps = (tmp_path / "overlap.trace.steps.jsonl").read_text()
        assert steps.strip()
        manifest = json.loads(
            (tmp_path / "overlap.trace.manifest.json").read_text())
        assert manifest["experiment"] == "overlap"
        assert "git_sha" in manifest

    def test_metrics_out_alone_writes_metrics_only(self, capsys, tmp_path):
        import json

        metrics = tmp_path / "metrics.json"
        assert main(["overlap", "--batches", "16",
                     "--steps", "2",
                     "--metrics-out", str(metrics)]) == 0
        assert metrics.is_file()
        payload = json.loads(metrics.read_text())
        assert any(name.startswith("train.steps") for name in payload)
        assert not any(tmp_path.glob("*.trace.*"))


class _ReadRecorder:
    """An ``args`` namespace that answers ``None`` to every flag and
    records which flags a runner read."""

    def __init__(self):
        self.reads = set()

    def __getattr__(self, dest):
        self.reads.add(dest)
        return None


def _scoped_reads(experiment, monkeypatch):
    """The scoped flags ``experiment``'s runner reads, run against stub
    sweeps.  ``--trace-out``/``--metrics-out`` are read by ``main``, which
    hands a runner the session only if it takes ``obs=``."""
    for name in repro.experiments.__all__:
        if inspect.isfunction(getattr(repro.cli, name, None)):
            monkeypatch.setattr(repro.cli, name, lambda *args, **kwargs: [])
    runner, _ = EXPERIMENTS[experiment]
    args = _ReadRecorder()
    takes_obs = "obs" in inspect.signature(runner).parameters
    if takes_obs:
        runner(args, SystemHardware(), obs=None)
    else:
        runner(args, SystemHardware())
    reads = args.reads | ({"trace_out", "metrics_out"} if takes_obs else set())
    return reads & set(FLAG_SCOPE)


class TestFlagScope:
    """``FLAG_SCOPE`` is exactly what the runners read: a flag reaches
    every experiment that reads it, and no experiment reads a flag scoped
    away from it (where ``main`` would exit 2 before it could)."""

    @pytest.mark.parametrize("dest,experiment", [
        (dest, experiment) for dest, scope in sorted(FLAG_SCOPE.items())
        for experiment in scope if experiment in EXPERIMENTS])
    def test_each_experiment_in_a_scope_reads_the_flag(
            self, dest, experiment, monkeypatch):
        assert dest in _scoped_reads(experiment, monkeypatch)

    @pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
    def test_no_experiment_reads_a_flag_scoped_away_from_it(
            self, experiment, monkeypatch):
        allowed = {dest for dest, scope in FLAG_SCOPE.items()
                   if experiment in scope}
        assert _scoped_reads(experiment, monkeypatch) <= allowed
