"""Tests for the whole-step autotuning sweep (``repro stepshape``)."""

import pytest

from repro.backends.autotune import StepAutotuner
from repro.experiments.stepshape import (
    STEP_AUTO_LABEL,
    STEPSHAPE_CONFIG,
    StepShapeRow,
    format_stepshape,
    stepshape_backends,
    stepshape_sweep,
)
from repro.model.configs import RM1

# Tiny shapes: the sweep's structure is under test here, not the engine
# ranking (benchmarks/bench_step_autotune.py measures that full-size).
TINY_CONFIG = RM1.with_overrides(
    num_tables=2, gathers_per_table=4, rows_per_table=200,
    bottom_mlp=(8, 8), top_mlp=(8, 1), embedding_dim=8,
)

SWEEP_KWARGS = dict(
    batches=(16,), steps=1, accum=(1, 2), repeats=1, config=TINY_CONFIG,
)


@pytest.fixture(scope="module")
def rows(tmp_path_factory):
    cache = tmp_path_factory.mktemp("stepshape") / "cache.json"
    return stepshape_sweep(autotune_cache=cache, **SWEEP_KWARGS), cache


class TestSweepStructure:
    def test_one_row_per_engine_plus_policy_per_cell(self, rows):
        swept, _ = rows
        candidates = stepshape_backends()
        assert len(swept) == 2 * (len(candidates) + 1)  # two accum cells
        for accum in (1, 2):
            cell = [row for row in swept if row.accum_steps == accum]
            assert [row.engine for row in cell] == (
                candidates + [STEP_AUTO_LABEL]
            )

    def test_fixed_rows_run_their_own_engine(self, rows):
        swept, _ = rows
        for row in swept:
            if row.engine != STEP_AUTO_LABEL:
                assert row.chosen == row.engine

    def test_policy_rows_choose_a_candidate(self, rows):
        swept, _ = rows
        policy = [row for row in swept if row.engine == STEP_AUTO_LABEL]
        assert policy
        for row in policy:
            assert row.chosen in stepshape_backends()

    def test_measurements_are_positive_and_consistent(self, rows):
        swept, _ = rows
        for row in swept:
            assert isinstance(row, StepShapeRow)
            assert row.steps == 1
            assert row.samples == 16 * row.accum_steps
            assert row.step_seconds > 0
            assert row.samples_per_s > 0
            assert row.optimize_us_per_sample > 0

    def test_probe_cost_charged_once_per_shape_class(self, rows):
        """Accumulation does not change the step shape class, so only the
        first policy cell pays the probes (when more than one candidate
        competes); later cells reuse the decision for free."""
        swept, _ = rows
        policy = [row for row in swept if row.engine == STEP_AUTO_LABEL]
        assert all(row.probe_seconds == 0.0 for row in policy[1:])

    def test_cached_decisions_skip_probing_in_a_second_sweep(self, rows):
        swept, cache = rows
        assert cache.is_file()
        again = stepshape_sweep(autotune_cache=cache, **SWEEP_KWARGS)
        policy = [row for row in again if row.engine == STEP_AUTO_LABEL]
        assert all(row.probe_seconds == 0.0 for row in policy)
        # And the cached winner matches the first sweep's pick.
        first_pick = next(
            row.chosen for row in swept if row.engine == STEP_AUTO_LABEL)
        assert all(row.chosen == first_pick for row in policy)
        reloaded = StepAutotuner(
            candidates=stepshape_backends(), cache_path=cache)
        assert first_pick in set(reloaded.decisions().values())


class TestValidation:
    @pytest.mark.parametrize("kwargs, match", [
        (dict(steps=0), "steps"),
        (dict(repeats=0), "repeats"),
        (dict(batches=()), "batches"),
        (dict(batches=(0,)), "batch must be a positive integer"),
        (dict(accum=()), "accum"),
        (dict(accum=(16, -1)), "accumulation factors"),
        (dict(backends=()), "no candidate backends"),
    ])
    def test_bad_arguments_rejected(self, kwargs, match):
        merged = {**SWEEP_KWARGS, **kwargs}
        with pytest.raises(ValueError, match=match):
            stepshape_sweep(**merged)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            stepshape_sweep(**{**SWEEP_KWARGS, "backends": ("warp-drive",)})


class TestFormat:
    def test_empty_rows(self):
        assert format_stepshape([]) == "(no rows)"

    def test_renders_table_and_footer(self, rows):
        swept, _ = rows
        text = format_stepshape(swept)
        assert "Engine" in text
        assert "Update us/sample" in text
        assert STEP_AUTO_LABEL in text
        assert "--autotune-cache" in text
        assert "--accum-steps" in text

    def test_default_config_is_bigger_than_the_test_one(self):
        """The module default must stay a real (if scaled) workload."""
        assert STEPSHAPE_CONFIG.rows_per_table > TINY_CONFIG.rows_per_table
