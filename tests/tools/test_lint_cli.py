"""CLI contract: ``python -m tools.repro_lint`` exit codes and output."""

from __future__ import annotations

from tools.repro_lint.__main__ import main
from tools.repro_lint import REGISTRY

CLEAN = "import numpy as np\n\nrng = np.random.default_rng(0)\n"
DIRTY = "import numpy as np\n\nrng = np.random.default_rng()\n"

EXPECTED_RULES = {
    "api-contract",
    "determinism",
    "dtype-discipline",
    "export-hygiene",
    "numeric-hazard",
    "obs-hygiene",
    "registry-consistency",
    "thread-lifecycle",
}


def run(tree, *argv):
    return main([str(tree.root / "src"), "--root", str(tree.root), *argv])


class TestExitCodes:
    def test_clean_tree_exits_zero(self, tree, capsys):
        tree.write("src/repro/foo.py", CLEAN)
        assert run(tree) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ""

    def test_findings_exit_one(self, tree, capsys):
        tree.write("src/repro/foo.py", DIRTY)
        assert run(tree) == 1
        captured = capsys.readouterr()
        assert "src/repro/foo.py:3: determinism:" in captured.out
        assert "repro-lint: 1 finding" in captured.err

    def test_missing_path_exits_two(self, tree, capsys):
        assert main([str(tree.root / "no-such-dir")]) == 2
        assert "no such path" in capsys.readouterr().err

    def test_unknown_rule_exits_two(self, tree, capsys):
        tree.write("src/repro/foo.py", CLEAN)
        assert run(tree, "--rule", "no-such") == 2
        assert "unknown rule ids" in capsys.readouterr().err

    def test_syntax_error_exits_one(self, tree, capsys):
        tree.write("src/repro/broken.py", "def oops(:\n")
        assert run(tree) == 1
        assert "syntax-error" in capsys.readouterr().out


class TestRuleSelection:
    def test_rule_filter_runs_only_selected_rules(self, tree, capsys):
        tree.write("src/repro/core/foo.py", """\
            import numpy as np


            def pooled(values, starts):
                np.random.seed(0)
                return np.add.reduceat(values, starts)
        """.replace("            ", ""))
        assert run(tree, "--rule", "numeric-hazard") == 1
        out = capsys.readouterr().out
        assert "numeric-hazard" in out
        assert "determinism" not in out

    def test_rule_flag_is_repeatable(self, tree, capsys):
        tree.write("src/repro/foo.py", DIRTY)
        code = run(tree, "--rule", "determinism", "--rule", "numeric-hazard")
        assert code == 1
        assert "determinism" in capsys.readouterr().out


class TestListRules:
    def test_list_rules_names_the_shipped_six(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in EXPECTED_RULES:
            assert rule in out

    def test_registry_matches_the_documented_set(self):
        main(["--list-rules"])  # import side effect registers the rules
        assert EXPECTED_RULES <= set(REGISTRY)
