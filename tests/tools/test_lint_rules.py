"""Per-rule fixture tests: each rule fires on a seeded violation and stays
quiet on the closest clean variant."""

from __future__ import annotations

import pytest


def rules_of(findings):
    return [f.rule for f in findings]


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------
class TestDeterminism:
    def test_unseeded_default_rng_flagged(self, tree):
        tree.write("src/repro/foo.py", """\
            import numpy as np

            rng = np.random.default_rng()
        """)
        findings = tree.lint(rules=["determinism"])
        assert rules_of(findings) == ["determinism"]
        assert findings[0].line == 3
        assert "unseeded" in findings[0].message

    def test_seeded_generators_clean(self, tree):
        tree.write("src/repro/foo.py", """\
            import numpy as np

            rng = np.random.default_rng(0)
            legacy = np.random.RandomState(7)
        """)
        assert tree.lint(rules=["determinism"]) == []

    def test_global_rng_calls_flagged_even_in_tests(self, tree):
        # Hidden global state defeats seeding everywhere, not just in src.
        tree.write("tests/test_foo.py", """\
            import random

            import numpy as np

            np.random.seed(0)
            random.shuffle([1, 2])
        """)
        findings = tree.lint(rules=["determinism"], paths=("tests",))
        assert rules_of(findings) == ["determinism", "determinism"]
        assert findings[0].line == 5 and findings[1].line == 6

    def test_import_alias_is_resolved(self, tree):
        tree.write("src/repro/foo.py", """\
            from numpy.random import default_rng as make_rng

            rng = make_rng()
        """)
        assert rules_of(tree.lint(rules=["determinism"])) == ["determinism"]

    def test_wallclock_in_library_flagged(self, tree):
        tree.write("src/repro/data/pacing.py", """\
            import time


            def wait() -> None:
                time.sleep(0.1)
        """)
        findings = tree.lint(rules=["determinism"])
        assert rules_of(findings) == ["determinism"]
        assert "time.sleep" in findings[0].message

    def test_wallclock_allowed_in_sanctioned_modules_and_tests(self, tree):
        clock = """\
            import time


            def now() -> float:
                return time.perf_counter()
        """
        tree.write("src/repro/obs/clock.py", clock)
        tree.write("src/repro/runtime/stages.py", clock)
        tree.write("src/repro/runtime/engine.py", clock)
        tree.write("tests/test_timing.py", clock)
        assert tree.lint(rules=["determinism"], paths=("src", "tests")) == []

    def test_the_removed_serving_clock_path_is_not_sanctioned(self, tree):
        """The clocks moved into ``obs/clock.py``; a wall-clock read at
        their old path is an ordinary library read again."""
        tree.write("src/repro/serving/clock.py", """\
            import time


            def now() -> float:
                return time.perf_counter()
        """)
        findings = tree.lint(rules=["determinism"])
        assert rules_of(findings) == ["determinism"]
        assert "obs/clock.py" in findings[0].message

    def test_wallclock_in_a_kernel_flagged(self, tree):
        """No kernel times itself: a clock read under ``core/`` is outside
        every sanctioned module."""
        tree.write("src/repro/core/autotune.py", """\
            import time


            def now() -> float:
                return time.perf_counter()
        """)
        findings = tree.lint(rules=["determinism"])
        assert rules_of(findings) == ["determinism"]
        assert "time.perf_counter" in findings[0].message


# ---------------------------------------------------------------------------
# numeric-hazard
# ---------------------------------------------------------------------------
class TestNumericHazard:
    def test_reduceat_in_core_flagged(self, tree):
        tree.write("src/repro/core/kernel.py", """\
            import numpy as np


            def pooled(table, src, starts):
                return np.add.reduceat(table[src], starts)
        """)
        findings = tree.lint(rules=["numeric-hazard"])
        assert rules_of(findings) == ["numeric-hazard"]
        assert "pairwise" in findings[0].message

    def test_reduceat_outside_kernel_layers_ignored(self, tree):
        # The bit-identity contract pins the kernel layers; an analysis
        # script summing spans is outside the rule's jurisdiction.
        tree.write("src/repro/experiments/report.py", """\
            import numpy as np


            def summarize(values, starts):
                return np.add.reduceat(values, starts)
        """)
        assert tree.lint(rules=["numeric-hazard"]) == []

    def test_sequential_accumulation_clean(self, tree):
        tree.write("src/repro/core/kernel.py", """\
            from .segment import segment_sum


            def pooled(table, src, dst, num_outputs):
                return segment_sum(table, src, dst, num_outputs)
        """)
        assert tree.lint(rules=["numeric-hazard"]) == []

    def test_add_at_outside_segment_module_flagged(self, tree):
        # The right order, but a second definition of it.
        tree.write("src/repro/core/kernel.py", """\
            import numpy as np


            def pooled(out, rows, values):
                np.add.at(out, rows, values)
                return out
        """)
        findings = tree.lint(rules=["numeric-hazard"])
        assert rules_of(findings) == ["numeric-hazard"]
        assert findings[0].line == 5
        assert "segment_sum" in findings[0].message

    def test_add_at_import_alias_flagged(self, tree):
        tree.write("src/repro/core/kernel.py", """\
            import numpy


            def pooled(out, rows, values):
                numpy.add.at(out, rows, values)
                return out
        """)
        assert rules_of(tree.lint(rules=["numeric-hazard"])) == [
            "numeric-hazard"
        ]

    def test_add_at_allowed_where_the_order_is_defined(self, tree):
        # core/segment.py owns the order; an inline ignore marks a
        # reasoned exception; other layers are outside the rule.
        body = """\
            import numpy as np


            def pooled(out, rows, values):
                np.add.at(out, rows, values){marker}
                return out
        """
        tree.write("src/repro/core/segment.py", body.format(marker=""))
        tree.write("src/repro/core/tiled.py", body.format(
            marker="  # repro-lint: ignore[numeric-hazard]"))
        tree.write("src/repro/data/labels.py", body.format(marker=""))
        assert tree.lint(rules=["numeric-hazard"]) == []

    def test_other_ufunc_at_calls_ignored(self, tree):
        tree.write("src/repro/core/kernel.py", """\
            import numpy as np


            def clip(out, rows, values):
                np.maximum.at(out, rows, values)
                return out
        """)
        assert tree.lint(rules=["numeric-hazard"]) == []


# ---------------------------------------------------------------------------
# dtype-discipline
# ---------------------------------------------------------------------------
class TestDtypeDiscipline:
    def test_astype_float64_call_flagged(self, tree):
        tree.write("src/repro/model/embedding.py", """\
            import numpy as np


            def scale(grad):
                return grad.astype(np.float64) * 0.5
        """)
        findings = tree.lint(rules=["dtype-discipline"])
        assert rules_of(findings) == ["dtype-discipline"]
        assert findings[0].line == 5
        assert ".astype(float64)" in findings[0].message

    @pytest.mark.parametrize("spelling", ["np.float64", "numpy.float64",
                                          '"float64"'])
    def test_dtype_float64_keyword_flagged(self, tree, spelling):
        tree.write("src/repro/core/scatter.py", f"""\
            import numpy
            import numpy as np


            def workspace(shape):
                return np.empty(shape, dtype={spelling})
        """)
        findings = tree.lint(rules=["dtype-discipline"])
        assert rules_of(findings) == ["dtype-discipline"]
        assert findings[0].line == 6
        assert "dtype=float64" in findings[0].message

    def test_constructor_default_not_flagged(self, tree):
        # A layer may default to float64; it may not insist on it.
        tree.write("src/repro/model/layers.py", """\
            import numpy as np


            class Linear:
                def __init__(self, width: int,
                             dtype: np.dtype = np.float64) -> None:
                    self.W = np.zeros((width, width), dtype=dtype)
                    self.b = np.zeros(width).astype(self.W.dtype)
        """)
        assert tree.lint(rules=["dtype-discipline"]) == []

    def test_the_cast_is_on_the_step_path(self, tree):
        """Tensor Casting runs in every casted step: ``core/casting.py`` is
        a hot module."""
        tree.write("src/repro/core/casting.py", """\
            import numpy as np


            def tensor_casting(index):
                return np.cumsum(index.src, dtype=np.float64)
        """)
        findings = tree.lint(rules=["dtype-discipline"])
        assert rules_of(findings) == ["dtype-discipline"]
        assert findings[0].line == 5

    def test_reference_oracle_not_flagged(self, tree):
        tree.write("src/repro/core/gather_reduce.py", """\
            import numpy as np


            def gather_reduce_reference(table, index):
                out = np.zeros((index.num_outputs, 4), dtype=np.float64)
                return out.astype(np.float64)


            def gather_reduce(table, index):
                return np.zeros((index.num_outputs, 4), dtype=np.float64)
        """)
        findings = tree.lint(rules=["dtype-discipline"])
        assert [f.line for f in findings] == [10]

    def test_inline_ignore_marks_a_reasoned_exception(self, tree):
        tree.write("src/repro/model/loss.py", """\
            import numpy as np


            def loss(logits):
                # repro-lint: ignore[dtype-discipline] - evaluated in float64
                z = np.asarray(logits, dtype=np.float64)
                return float(z.mean()), z.astype(np.float64)
        """)
        findings = tree.lint(rules=["dtype-discipline"])
        assert [f.line for f in findings] == [7]

    def test_modules_off_the_step_path_are_outside_the_rule(self, tree):
        body = """\
            import numpy as np


            def labels(count):
                return np.zeros(count, dtype=np.float64)
        """
        tree.write("src/repro/data/generator.py", body)
        tree.write("src/repro/model/optim.py", body)      # f64 state: by design
        tree.write("src/repro/core/traffic.py", body)
        tree.write("tests/model/test_loss.py", body)
        assert tree.lint(rules=["dtype-discipline"],
                         paths=("src", "tests")) == []


# ---------------------------------------------------------------------------
# thread-lifecycle
# ---------------------------------------------------------------------------
class TestThreadLifecycle:
    def test_thread_without_teardown_flagged(self, tree):
        tree.write("src/repro/data/worker.py", """\
            import threading


            class Worker:
                def start(self) -> None:
                    self._thread = threading.Thread(target=self._run)
                    self._thread.start()

                def _run(self) -> None:
                    pass
        """)
        findings = tree.lint(rules=["thread-lifecycle"])
        assert rules_of(findings) == ["thread-lifecycle"]
        assert "Worker" in findings[0].message
        assert "close()/shutdown()" in findings[0].message

    def test_full_lifecycle_clean(self, tree):
        tree.write("src/repro/data/worker.py", """\
            import threading


            class Worker:
                def start(self) -> None:
                    self._thread = threading.Thread(target=self._run)
                    self._thread.start()

                def _run(self) -> None:
                    pass

                def close(self) -> None:
                    self._thread.join()

                def __enter__(self) -> "Worker":
                    return self

                def __exit__(self, *exc_info: object) -> bool:
                    self.close()
                    return False
        """)
        assert tree.lint(rules=["thread-lifecycle"]) == []

    def test_same_module_inherited_protocol_counts(self, tree):
        tree.write("src/repro/data/worker.py", """\
            import threading


            class Closable:
                def close(self) -> None:
                    pass

                def __enter__(self) -> "Closable":
                    return self

                def __exit__(self, *exc_info: object) -> bool:
                    self.close()
                    return False


            class Worker(Closable):
                def start(self) -> None:
                    threading.Thread(target=self.close).start()
        """)
        assert tree.lint(rules=["thread-lifecycle"]) == []

    def test_partial_lifecycle_names_the_gaps(self, tree):
        tree.write("src/repro/data/worker.py", """\
            import threading


            class Worker:
                def start(self) -> None:
                    threading.Thread(target=self.shutdown).start()

                def shutdown(self) -> None:
                    pass
        """)
        (finding,) = tree.lint(rules=["thread-lifecycle"])
        assert "__enter__" in finding.message
        assert "__exit__" in finding.message
        assert "close()/shutdown()" not in finding.message

    def test_executor_without_teardown_flagged(self, tree):
        tree.write("src/repro/data/pool.py", """\
            from concurrent.futures import ThreadPoolExecutor


            class Pool:
                def start(self) -> None:
                    self._executor = ThreadPoolExecutor(max_workers=2)
        """)
        findings = tree.lint(rules=["thread-lifecycle"])
        assert rules_of(findings) == ["thread-lifecycle"]
        assert "Pool" in findings[0].message

    def test_process_pool_without_teardown_flagged(self, tree):
        tree.write("src/repro/data/pool.py", """\
            import concurrent.futures
            import multiprocessing


            class ProcPool:
                def start(self) -> None:
                    self._executor = concurrent.futures.ProcessPoolExecutor()


            class Forker:
                def start(self) -> None:
                    self._proc = multiprocessing.Process(target=print)
                    self._proc.start()
        """)
        findings = tree.lint(rules=["thread-lifecycle"])
        assert sorted(rules_of(findings)) == [
            "thread-lifecycle", "thread-lifecycle",
        ]

    def test_executor_with_lifecycle_clean(self, tree):
        tree.write("src/repro/data/pool.py", """\
            from concurrent.futures import ProcessPoolExecutor


            class Pool:
                def start(self) -> None:
                    self._executor = ProcessPoolExecutor(max_workers=2)

                def shutdown(self) -> None:
                    self._executor.shutdown(wait=True)

                def __enter__(self) -> "Pool":
                    return self

                def __exit__(self, *exc_info: object) -> bool:
                    self.shutdown()
                    return False
        """)
        assert tree.lint(rules=["thread-lifecycle"]) == []


# ---------------------------------------------------------------------------
# registry-consistency
# ---------------------------------------------------------------------------
CLEAN_CLI = """\
    import argparse

    def _run_fig13(args, hardware):
        return str(args.batch)

    def _run_list(args):
        return 0

    EXPERIMENTS = {"fig13": (_run_fig13, "speedup")}
    BUILTIN_COMMANDS = {"list": (_run_list, "list experiments")}
    TRAINER_EXPERIMENTS = ("fig13",)
    FLAG_SCOPE = {"batch": TRAINER_EXPERIMENTS + ("fig13",)}

    def build_parser():
        parser = argparse.ArgumentParser()
        parser.add_argument("--batch", type=int, default=256)
        return parser
"""


class TestRegistryConsistency:
    def test_clean_cli_passes(self, tree):
        tree.write("src/repro/cli.py", CLEAN_CLI)
        assert tree.lint(rules=["registry-consistency"]) == []

    def test_duplicate_registry_key_flagged(self, tree):
        tree.write("src/repro/cli.py", """\
            def _run_fig13(args, hardware):
                return ""

            EXPERIMENTS = {
                "fig13": (_run_fig13, "a"),
                "fig13": (_run_fig13, "b"),
            }
        """)
        findings = tree.lint(rules=["registry-consistency"])
        assert any("duplicate key 'fig13'" in f.message for f in findings)

    def test_runner_naming_convention_flagged(self, tree):
        tree.write("src/repro/cli.py", """\
            def _run_speedup(args, hardware):
                return ""

            EXPERIMENTS = {"fig13": (_run_speedup, "speedup")}
        """)
        findings = tree.lint(rules=["registry-consistency"])
        assert any("_run_fig13" in f.message for f in findings)

    def test_registry_overlap_flagged(self, tree):
        tree.write("src/repro/cli.py", """\
            def _run_list(args):
                return 0

            EXPERIMENTS = {"list": (_run_list, "a")}
            BUILTIN_COMMANDS = {"list": (_run_list, "b")}
        """)
        findings = tree.lint(rules=["registry-consistency"])
        assert any("both EXPERIMENTS and BUILTIN_COMMANDS" in f.message
                   for f in findings)

    def test_flag_scope_must_name_experiments_and_declared_flags(self, tree):
        tree.write("src/repro/cli.py", """\
            import argparse

            def _run_fig13(args, hardware):
                return str(args.batch)

            EXPERIMENTS = {"fig13": (_run_fig13, "speedup")}
            TRAINER_EXPERIMENTS = ("fig13", "fig99")
            FLAG_SCOPE = {
                "batch": TRAINER_EXPERIMENTS,
                "ghost_flag": ("fig13",) + ("fig98",),
            }

            def build_parser():
                parser = argparse.ArgumentParser()
                parser.add_argument("--batch", type=int)
                return parser
        """)
        findings = tree.lint(rules=["registry-consistency"])
        messages = [f.message for f in findings]
        assert len(findings) == 3
        # A name reached through a module-level group tuple is resolved.
        assert any("FLAG_SCOPE['batch'] names 'fig99'" in m for m in messages)
        assert any("FLAG_SCOPE['ghost_flag'] names 'fig98'" in m
                   for m in messages)
        assert any("scopes 'ghost_flag', which no add_argument declares"
                   in m for m in messages)

    def test_flag_scope_may_name_a_builtin_command(self, tree):
        """``main`` checks the scope for built-in commands too, so a
        built-in is a valid scope member; a name in neither registry is
        still flagged."""
        tree.write("src/repro/cli.py", """\
            import argparse

            def _run_fig13(args, hardware):
                return str(args.batch)

            def _run_validate(args):
                return 0

            EXPERIMENTS = {"fig13": (_run_fig13, "speedup")}
            BUILTIN_COMMANDS = {"validate": (_run_validate, "checks")}
            FLAG_SCOPE = {"batch": ("fig13", "validate", "fig99")}

            def build_parser():
                parser = argparse.ArgumentParser()
                parser.add_argument("--batch", type=int)
                return parser
        """)
        messages = [f.message for f in
                    tree.lint(rules=["registry-consistency"])]
        assert len(messages) == 1
        assert "FLAG_SCOPE['batch'] names 'fig99'" in messages[0]

    def test_flag_scope_of_the_real_cli_is_checked(self):
        """The committed table is non-trivially covered: every dest and
        every experiment the rule resolves matches the live registries."""
        import ast
        from pathlib import Path

        from repro.cli import BUILTIN_COMMANDS, EXPERIMENTS, FLAG_SCOPE
        from tools.repro_lint.rules.registry import (
            _module_assigns, _resolve_string_elts)

        cli = Path(__file__).resolve().parents[2] / "src/repro/cli.py"
        assigns = _module_assigns(ast.parse(cli.read_text()))
        scope = assigns["FLAG_SCOPE"]
        resolved = {
            key.value: tuple(
                name for name, _ in _resolve_string_elts(value, assigns))
            for key, value in zip(scope.keys, scope.values)
        }
        assert resolved == FLAG_SCOPE
        assert {name for names in resolved.values() for name in names} \
            <= set(EXPERIMENTS) | set(BUILTIN_COMMANDS)

    def test_argparse_lockstep_both_directions(self, tree):
        tree.write("src/repro/cli.py", """\
            import argparse

            def build_parser():
                parser = argparse.ArgumentParser()
                parser.add_argument("--batch", type=int)
                parser.add_argument("--dead-flag")
                return parser

            def main():
                args = build_parser().parse_args()
                print(args.batch, args.ghost)
        """)
        findings = tree.lint(rules=["registry-consistency"])
        messages = " | ".join(f.message for f in findings)
        assert "args.ghost is read" in messages
        assert "dest 'dead_flag' is declared" in messages
        assert "args.batch" not in messages

    def test_unregistered_optimizer_literal_flagged(self, tree):
        tree.write("src/repro/model/optim.py", """\
            OPTIMIZERS = {"sgd": None, "adam": None}
        """)
        tree.write("src/repro/runtime/run.py", """\
            def launch(make_trainer, args):
                good = make_trainer(optimizer="adam")
                bad = make_trainer(optimizer="adamw")
                fallback = args.optimizer or "sdg"
                return good, bad, fallback


            def train(optimizer: str = "nesterov") -> None:
                pass
        """)
        findings = tree.lint(rules=["registry-consistency"])
        messages = [f.message for f in findings]
        assert len(findings) == 3
        assert any("optimizer='adamw'" in m for m in messages)
        assert any("fallback optimizer name 'sdg'" in m for m in messages)
        assert any("default optimizer='nesterov'" in m for m in messages)

    def test_cross_file_checks_skip_when_registry_out_of_scope(self, tree):
        # Linting a single file must not invent findings it cannot verify.
        tree.write("src/repro/runtime/run.py", """\
            def launch(make_trainer):
                return make_trainer(optimizer="anything")
        """)
        assert tree.lint(rules=["registry-consistency"]) == []


# ---------------------------------------------------------------------------
# export-hygiene
# ---------------------------------------------------------------------------
class TestExportHygiene:
    def test_missing_all_flagged(self, tree):
        tree.write("src/repro/pkg/helpers.py", "VALUE = 1\n")
        tree.write("src/repro/pkg/__init__.py", """\
            from .helpers import VALUE
        """)
        (finding,) = tree.lint(rules=["export-hygiene"])
        assert "declares no __all__" in finding.message

    def test_matching_all_clean(self, tree):
        tree.write("src/repro/pkg/__init__.py", """\
            from .helpers import VALUE, _internal

            __all__ = ["VALUE"]
        """)
        assert tree.lint(rules=["export-hygiene"]) == []

    def test_duplicate_and_unbound_entries_flagged(self, tree):
        tree.write("src/repro/pkg/__init__.py", """\
            from .helpers import VALUE

            __all__ = ["VALUE", "VALUE", "GHOST"]
        """)
        findings = tree.lint(rules=["export-hygiene"])
        messages = [f.message for f in findings]
        assert any("duplicate __all__ entry 'VALUE'" in m for m in messages)
        assert any("'GHOST'" in m and "never imported" in m
                   for m in messages)

    def test_reexport_missing_from_all_flagged(self, tree):
        tree.write("src/repro/pkg/__init__.py", """\
            from .helpers import VALUE, OTHER

            __all__ = ["VALUE"]
        """)
        (finding,) = tree.lint(rules=["export-hygiene"])
        assert "'OTHER'" in finding.message

    def test_optional_dependency_import_idiom_supported(self, tree):
        tree.write("src/repro/pkg/__init__.py", """\
            try:
                from .fast import turbo
            except ImportError:
                turbo = None

            __all__ = ["turbo"]
        """)
        assert tree.lint(rules=["export-hygiene"]) == []

    def test_non_init_modules_are_ignored(self, tree):
        tree.write("src/repro/pkg/helpers.py", """\
            from .other import VALUE
        """)
        assert tree.lint(rules=["export-hygiene"]) == []


# ---------------------------------------------------------------------------
# api-contract
# ---------------------------------------------------------------------------
class TestApiContract:
    def test_unannotated_public_function_flagged(self, tree):
        tree.write("src/repro/core/kernel.py", """\
            def gather(table, src, dst):
                return table
        """)
        (finding,) = tree.lint(rules=["api-contract"])
        assert "gather" in finding.message
        assert "src, dst" in finding.message and "return" in finding.message

    def test_private_and_nonlibrary_functions_exempt(self, tree):
        tree.write("src/repro/core/kernel.py", """\
            def _helper(table, src):
                return table
        """)
        tree.write("benchmarks/bench_foo.py", """\
            def run(loops):
                return loops
        """)
        assert tree.lint(rules=["api-contract"],
                         paths=("src", "benchmarks")) == []


# ---------------------------------------------------------------------------
# obs-hygiene
# ---------------------------------------------------------------------------
class TestObsHygiene:
    def test_bare_span_call_flagged(self, tree):
        tree.write("src/repro/foo.py", """\
            def work(tracer) -> None:
                tracer.span("step")
        """)
        findings = tree.lint(rules=["obs-hygiene"])
        assert rules_of(findings) == ["obs-hygiene"]
        assert "never records" in findings[0].message

    def test_context_managed_span_clean(self, tree):
        tree.write("src/repro/foo.py", """\
            def work(tracer) -> None:
                with tracer.span("step") as span:
                    span.set(loss=0.5)
        """)
        assert tree.lint(rules=["obs-hygiene"]) == []

    def test_record_span_is_exempt(self, tree):
        tree.write("src/repro/foo.py", """\
            def work(tracer) -> None:
                tracer.record_span("req", track="req0",
                                   start_s=0.0, end_s=1.0)
        """)
        assert tree.lint(rules=["obs-hygiene"]) == []

    def test_tests_are_exempt(self, tree):
        tree.write("tests/test_foo.py", """\
            def test_span_object(tracer) -> None:
                span = tracer.span("step")
                assert span is not None
        """)
        assert tree.lint(rules=["obs-hygiene"], paths=("tests",)) == []


# ---------------------------------------------------------------------------
# the shipped tree itself
# ---------------------------------------------------------------------------
class TestRealTree:
    def test_repo_is_lint_clean(self):
        """The committed tree holds every invariant the linter checks."""
        from pathlib import Path

        from tools.repro_lint import lint_paths

        root = Path(__file__).resolve().parents[2]
        findings = lint_paths(
            [root / "src", root / "tests", root / "benchmarks"], root=root
        )
        assert findings == [], "\n".join(f.format() for f in findings)
