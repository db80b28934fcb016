"""Documentation contracts: docstrings and examples must actually run."""

import doctest
import pathlib
import re
import runpy
import subprocess
import sys

import pytest

import repro

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
EXAMPLES_DIR = REPO_ROOT / "examples"
README = REPO_ROOT / "README.md"
FILE_SUFFIXES = {".py", ".md", ".json", ".jsonl", ".yml", ".sh", ".ini",
                 ".txt", ".npz", ".tsv"}


class TestDoctests:
    def test_package_quickstart_doctest(self):
        """The __init__ docstring example is executable and correct."""
        results = doctest.testmod(repro, verbose=False)
        assert results.attempted > 0
        assert results.failed == 0


class TestPublicAPI:
    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.__all__ lists missing {name}"

    def test_subpackage_exports_resolve(self):
        import repro.core
        import repro.data
        import repro.experiments
        import repro.model
        import repro.runtime
        import repro.sim

        for module in (repro.core, repro.data, repro.experiments,
                       repro.model, repro.runtime, repro.sim):
            for name in module.__all__:
                assert hasattr(module, name), f"{module.__name__} missing {name}"

    def test_version_is_set(self):
        assert repro.__version__


class TestReadme:
    """The README exists and its module map cannot rot silently."""

    def test_readme_exists(self):
        assert README.is_file(), "top-level README.md is missing"

    def test_every_public_package_is_mentioned(self):
        text = README.read_text()
        src = REPO_ROOT / "src" / "repro"
        packages = sorted(
            path.name for path in src.iterdir()
            if path.is_dir() and (path / "__init__.py").is_file()
        )
        assert packages, "no packages found under src/repro"
        for package in packages:
            assert f"repro.{package}" in text, (
                f"README.md module map does not mention repro.{package}"
            )

    def test_quickstart_commands_present(self):
        text = README.read_text()
        assert "python -m pytest" in text  # tier-1 verify command
        assert "python -m repro" in text   # CLI usage

    def test_registered_experiments_referenced(self):
        """Spot-check that headline CLI experiments appear in the README."""
        text = README.read_text()
        for name in ("fig13", "fig6", "scaling"):
            assert name in text

    def test_benchmark_is_pointed_to(self):
        text = README.read_text()
        assert "python3 benchmarks/e2e/run.py" in text
        assert "BENCHMARK.json" in text

    def test_every_backticked_file_path_resolves(self):
        """A file the README names in backticks exists: under the repo
        root, under ``src/repro/`` (the module map's short paths) or under
        ``benchmarks/e2e/``.  A word counts as a file path when it has a
        suffix and either a ``/`` or a file suffix (``np.add.at`` and
        ``repro.obs`` do not); a ``::test`` selector is dropped."""
        bases = (REPO_ROOT, REPO_ROOT / "src" / "repro",
                 REPO_ROOT / "benchmarks" / "e2e")
        paths = set()
        for span in re.findall(r"`([^`\n]+)`", README.read_text()):
            for word in span.split():
                word = word.split("::")[0].strip("(),;:")
                suffix = pathlib.PurePosixPath(word).suffix
                if (re.fullmatch(r"[\w./-]+", word) and suffix
                        and ("/" in word or suffix in FILE_SUFFIXES)):
                    paths.add(word)
        assert len(paths) > 50, "the path scan found almost nothing"
        missing = sorted(
            path for path in paths
            if not any((base / path).exists() for base in bases)
        )
        assert not missing, f"README.md names missing files: {missing}"


class TestExamples:
    def test_all_examples_exist(self):
        expected = {
            "quickstart.py",
            "train_ctr_model.py",
            "design_space_exploration.py",
            "dataset_locality_study.py",
            "trace_replay.py",
            "resumable_training.py",
            "traced_run.py",
        }
        present = {path.name for path in EXAMPLES_DIR.glob("*.py")}
        assert expected <= present

    def test_examples_compile(self):
        """Every example parses and byte-compiles."""
        for path in EXAMPLES_DIR.glob("*.py"):
            source = path.read_text()
            compile(source, str(path), "exec")

    def test_quickstart_runs_end_to_end(self, capsys):
        """The quickstart executes and prints its verification line."""
        runpy.run_path(str(EXAMPLES_DIR / "quickstart.py"), run_name="__main__")
        out = capsys.readouterr().out
        assert "VERIFIED" in out
        assert "guaranteed >= 2" in out

    @pytest.mark.parametrize("module_name", ["repro", "repro.cli"])
    def test_module_importable_from_subprocess(self, module_name):
        """Fresh-interpreter import works (no hidden state requirements)."""
        subprocess.run(
            [sys.executable, "-c", f"import {module_name}"],
            check=True, capture_output=True,
        )
