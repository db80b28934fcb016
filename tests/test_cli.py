"""Tests for the ``python -m repro`` command-line interface."""

import inspect
from collections import Counter

import pytest

import repro.cli
import repro.experiments
from repro.backends import (
    get_default_backend, registered_backends, set_default_backend,
)
from repro.backends.dispatch import observe_kernels
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

    def test_list_prints_builtins_and_backends(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in BUILTIN_COMMANDS:
            assert name in out
        assert "backends:" in out
        for name in registered_backends():
            assert name in out

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
        code = main(["overlap", "--batches", "16", "--shards", "1",
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

    def test_measured_scaling_runs_every_batch(self, capsys):
        assert main(["scaling", "--batches", "16", "32", "--shards", "1", "2",
                     "--steps", "1"]) == 0
        out = capsys.readouterr().out
        rows = [line.split() for line in out.splitlines()
                if line.startswith("RM1")]
        assert [(row[1], row[3]) for row in rows] == [
            ("16", "1"), ("16", "2"), ("32", "1"), ("32", "2")]
        assert [row[5] for row in rows[::2]] == ["1.00x", "1.00x"]
        assert "Analytic" in out

    def test_cache_rejects_more_than_one_batch(self, monkeypatch, capsys):
        monkeypatch.setattr("repro.cli.hotcache_sweep",
                            lambda **_: pytest.fail("experiment ran"))
        assert main(["cache", "--batches", "32", "64", "--steps", "1"]) == 2
        assert "'cache' replays one batch size" in capsys.readouterr().err

    def test_models_rejected_by_the_measured_scaling_sweep(self, capsys):
        assert main(["scaling", "--steps", "1", "--models", "RM1"]) == 2
        assert "--models does not apply" in capsys.readouterr().err

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


class TestBackendFlag:
    """The --backend knob: validation, routing, and the failure contract."""

    def test_backend_option_parses(self):
        args = build_parser().parse_args(["fig6", "--backend", "reference"])
        assert args.backend == "reference"

    def test_backend_defaults_to_none(self):
        assert build_parser().parse_args(["fig6"]).backend is None

    def test_unknown_backend_exits_nonzero_listing_names(self, capsys):
        assert main(["overlap", "--backend", "warp-drive"]) == 2
        err = capsys.readouterr().err
        assert "warp-drive" in err
        for name in registered_backends():
            assert name in err

    def test_removed_numba_backend_exits_nonzero_listing_names(self, capsys):
        assert main(["overlap", "--backend", "numba"]) == 2
        assert capsys.readouterr().err == (
            "error: unknown kernel backend 'numba'; registered backends: "
            "reference, vectorized, auto\n")

    def test_valid_backend_runs_and_restores_default(self, capsys):
        """``validate`` reads ``--backend`` through the process default
        ``main`` installs: every kernel it dispatches runs on that engine."""
        engines = Counter()

        class Observer:
            def count_kernel(self, op, backend):
                engines[backend] += 1

        previous = get_default_backend()
        try:
            with observe_kernels(Observer()):
                assert main(["validate", "--backend", "reference"]) == 0
            assert "ALL CHECKS PASSED" in capsys.readouterr().out
        finally:
            set_default_backend(previous)
        assert set(engines) == {"reference"}

    @pytest.mark.parametrize("argv", [
        ["fig6"], ["list"],
        ["scaling", "--models", "RM1", "--batches", "1024"],
    ], ids=["fig6", "list", "scaling-analytic"])
    def test_commands_that_run_no_kernels_reject_backend(self, argv, capsys):
        """An unread flag exits 2: these commands dispatch no kernel, so
        ``--backend`` would be silently ignored there.  (Every other
        experiment outside the scope is swept by ``test_policy.py``'s
        scoped-flag test.)"""
        previous = get_default_backend()
        try:
            assert main([*argv, "--backend", "reference"]) == 2
            assert "--backend does not apply" in capsys.readouterr().err
        finally:
            set_default_backend(previous)

    @pytest.mark.parametrize("argv", [
        ["scaling", "--steps", "1", "--batches", "16", "--shards", "1"],
        ["serve", "--rates", "200", "--requests", "8"],
    ], ids=["scaling-measured", "serve"])
    def test_commands_that_run_kernels_accept_backend(self, argv, capsys):
        previous = get_default_backend()
        try:
            assert main([*argv, "--backend", "reference"]) == 0
            assert capsys.readouterr().err == ""
        finally:
            set_default_backend(previous)

    def test_overlap_accepts_backend(self, capsys):
        previous = get_default_backend()
        try:
            code = main(["overlap", "--batches", "16", "--shards", "1",
                         "--steps", "1", "--backend", "vectorized"])
            assert code == 0
            assert "Pipelined" in capsys.readouterr().out
        finally:
            set_default_backend(previous)


class TestSourceSelection:
    """--dataset/--trace: the data-plane source flags (mirror --backend)."""

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
        assert "overlap" in err and "serve" in err

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
        assert main(["overlap", "--batches", "16", "--shards", "1",
                     "--steps", "1", "--dataset", "movielens",
                     "--optimizer", "adagrad", "--lr", "0.05"]) == 0
        assert "Pipelined" in capsys.readouterr().out

    def test_checkpoint_dir_saves_then_resume_restores(self, capsys, tmp_path):
        ckpt_dir = tmp_path / "ckpts"
        assert main(["overlap", "--batches", "16", "--shards", "1",
                     "--steps", "2", "--dataset", "movielens",
                     "--checkpoint-dir", str(ckpt_dir)]) == 0
        capsys.readouterr()
        saved = sorted(path.name for path in ckpt_dir.glob("*.npz"))
        assert saved == ["overlap-b16-s1.npz"]
        from repro.runtime.checkpoint import load_checkpoint

        assert load_checkpoint(ckpt_dir / "overlap-b16-s1.npz").step == 2
        assert main(["overlap", "--batches", "16", "--shards", "1",
                     "--steps", "2", "--dataset", "movielens",
                     "--resume", str(ckpt_dir / "overlap-b16-s1.npz")]) == 0
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


class TestServeCommand:
    """The serving sweep's CLI surface (mirrors the --trace flag rules)."""

    def test_serve_flags_parse(self):
        args = build_parser().parse_args(
            ["serve", "--rates", "100", "500", "--policies", "single",
             "dynamic", "--requests", "24", "--sla-ms", "80",
             "--max-batch", "16", "--max-wait-ms", "1.5",
             "--arrival", "uniform", "--hot-cache-rows", "64",
             "--cache-policy", "lfu"]
        )
        assert args.rates == [100.0, 500.0]
        assert args.policies == ["single", "dynamic"]
        assert args.requests == 24
        assert args.sla_ms == 80.0
        assert args.max_batch == 16
        assert args.max_wait_ms == 1.5
        assert args.arrival == "uniform"
        assert args.hot_cache_rows == 64
        assert args.cache_policy == "lfu"

    def test_unknown_policy_rejected_by_the_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--policies", "greedy"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--arrival", "bursty"])

    @pytest.mark.parametrize(
        "flags",
        [
            ["--rates", "100"],
            ["--policies", "single"],
            ["--requests", "8"],
            ["--sla-ms", "50"],
            ["--max-batch", "4"],
            ["--max-wait-ms", "2"],
            ["--arrival", "poisson"],
            ["--hot-cache-rows", "64"],
            ["--cache-policy", "lru"],
        ],
    )
    def test_serve_flags_rejected_elsewhere(self, flags, capsys):
        assert main(["fig6", *flags]) == 2
        assert "it applies to: serve" in capsys.readouterr().err

    def test_serve_reports_the_frontier(self, capsys):
        assert main(["serve", "--rates", "100", "400", "--requests", "12",
                     "--sla-ms", "100", "--policies", "single",
                     "dynamic"]) == 0
        out = capsys.readouterr().out
        assert "p99(ms)" in out and "QPS<=SLA" in out
        assert "single" in out and "dynamic" in out
        # 2 rates x 2 policies, every cell within the generous SLA.
        assert out.count("yes") == 4 and "NO" not in out

    def test_serve_accepts_trainer_flags(self, capsys):
        assert main(["serve", "--rates", "200", "--requests", "8",
                     "--policies", "single", "--optimizer", "adagrad",
                     "--lr", "0.05", "--backend", "vectorized",
                     "--dataset", "movielens"]) == 0
        assert "Tail SLA" in capsys.readouterr().out

    def test_serve_hot_cache_knobs_report_hit_rate(self, capsys):
        assert main(["serve", "--rates", "200", "--requests", "8",
                     "--policies", "dynamic", "--hot-cache-rows", "256",
                     "--cache-policy", "lfu"]) == 0
        assert "hot-row cache hit rate" in capsys.readouterr().out

    def test_serve_bad_sla_exits_cleanly(self, capsys):
        assert main(["serve", "--sla-ms", "0"]) == 2
        assert "sla_ms must be positive" in capsys.readouterr().err

    def test_serve_resumes_an_overlap_checkpoint(self, capsys, tmp_path):
        assert main(["overlap", "--batches", "32", "--shards", "1",
                     "--steps", "2", "--dataset", "movielens",
                     "--checkpoint-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["serve", "--rates", "200", "--requests", "8",
                     "--policies", "single",
                     "--resume", str(tmp_path / "overlap-b32-s1.npz")]) == 0
        assert "Tail SLA" in capsys.readouterr().out


class TestObservabilityFlags:
    """--trace-out/--metrics-out: trainer-only validation plus artifacts."""

    def test_flags_parse(self):
        args = build_parser().parse_args(
            ["serve", "--trace-out", "t.json", "--metrics-out", "m.json"])
        assert args.trace_out == "t.json"
        assert args.metrics_out == "m.json"

    def test_trace_out_rejected_for_non_trainer_experiment(self, capsys):
        assert main(["table1", "--trace-out", "t.json"]) == 2
        assert "--trace-out" in capsys.readouterr().err

    def test_metrics_out_rejected_for_non_trainer_experiment(self, capsys):
        assert main(["fig13", "--metrics-out", "m.json"]) == 2
        assert "--metrics-out" in capsys.readouterr().err

    def test_traced_serve_writes_all_artifacts(self, capsys, tmp_path):
        import json

        trace = tmp_path / "serve.trace.json"
        metrics = tmp_path / "metrics.json"
        assert main(["serve", "--rates", "200", "--requests", "8",
                     "--policies", "single",
                     "--trace-out", str(trace),
                     "--metrics-out", str(metrics)]) == 0
        err = capsys.readouterr().err
        for path in (trace, metrics,
                     tmp_path / "serve.trace.steps.jsonl",
                     tmp_path / "serve.trace.manifest.json"):
            assert path.is_file()
            assert f"wrote {path}" in err
        from repro.obs import validate_chrome_trace

        payload = json.loads(trace.read_text())
        assert validate_chrome_trace(payload) > 0
        manifest = json.loads(
            (tmp_path / "serve.trace.manifest.json").read_text())
        assert manifest["experiment"] == "serve"
        assert "git_sha" in manifest

    def test_metrics_out_alone_writes_metrics_only(self, capsys, tmp_path):
        import json

        metrics = tmp_path / "metrics.json"
        assert main(["serve", "--rates", "200", "--requests", "8",
                     "--policies", "single",
                     "--metrics-out", str(metrics)]) == 0
        assert metrics.is_file()
        payload = json.loads(metrics.read_text())
        assert any(name.startswith("serving.requests") for name in payload)
        assert not (tmp_path / "serve.trace.json").exists()


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
    away from it (where ``main`` would exit 2 before it could).  The one
    built-in command in a scope, ``validate``, reads ``--backend`` through
    the process default (``TestBackendFlag`` runs it)."""

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
