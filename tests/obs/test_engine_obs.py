"""Training-plane observability: traces/metrics record without perturbing.

The acceptance bar mirrors the engine refactor's: a traced run must be
bit-identical to an untraced one (``obs`` only *reads*), and the trace must
reconcile with the phase accounting the report already publishes — every
span's seconds come from the same clock reads as the phase totals, so the
two views agree to floating-point addition order.
"""

import numpy as np
import pytest

from repro.obs import Observability, span_totals, validate_span_nesting
from repro.data.generator import SyntheticCTRStream
from repro.model.configs import RM1
from repro.model.dlrm import DLRM
from repro.model.optim import SGD
from repro.runtime.trainer import FunctionalTrainer

CONFIG = RM1.with_overrides(
    num_tables=3, gathers_per_table=4, rows_per_table=64,
    bottom_mlp=(8, 4), top_mlp=(4, 1), embedding_dim=4,
)

# Span names vs the report's phase ledger: the optimizer span is named for
# what runs ("optimize") while the phase is named for the ledger bucket
# ("update"); the embedding gathers trace as "gather" but bill to the
# "forward" phase.  The "step" envelope is an aggregate, not a phase.
SPAN_TO_PHASE = {"optimize": "update", "gather": "forward"}


def make_stream(seed=0):
    return SyntheticCTRStream(
        num_tables=CONFIG.num_tables, num_rows=CONFIG.rows_per_table,
        lookups_per_sample=CONFIG.gathers_per_table,
        dense_features=CONFIG.dense_features, seed=seed,
    )


def make_model(seed=0):
    return DLRM(CONFIG, rng=np.random.default_rng(seed))


def traced_phase_totals(obs):
    totals = {}
    for record in obs.tracer.records:
        if record.name == "step":
            continue
        phase = SPAN_TO_PHASE.get(record.name, record.name)
        totals[phase] = totals.get(phase, 0.0) + record.duration_s
    return totals


class TestTracedRunsAreBitIdentical:
    @pytest.mark.parametrize("lookahead", [0, 1], ids=["serial", "lookahead"])
    def test_obs_does_not_perturb_training(self, lookahead):
        plain_model = make_model()
        plain = FunctionalTrainer(
            plain_model, make_stream(), SGD(lr=0.2), lookahead=lookahead,
        ).train(8, 4, np.random.default_rng(1))
        traced_model = make_model()
        traced = FunctionalTrainer(
            traced_model, make_stream(), SGD(lr=0.2), lookahead=lookahead,
        ).train(8, 4, np.random.default_rng(1), obs=Observability())
        assert traced.losses == plain.losses
        for a, b in zip(plain_model.all_parameters(),
                        traced_model.all_parameters()):
            assert np.array_equal(a, b)


class TestTraceContent:
    def test_spans_reconcile_with_phase_report(self):
        obs = Observability()
        report = FunctionalTrainer(
            make_model(), make_stream(), SGD(lr=0.2)
        ).train(8, 4, np.random.default_rng(1), obs=obs)
        traced = traced_phase_totals(obs)
        assert set(traced) == set(report.timings.totals)
        for phase, seconds in report.timings.totals.items():
            assert traced[phase] == pytest.approx(seconds, rel=1e-9)

    @pytest.mark.parametrize("knobs", [
        dict(lookahead=1),
    ], ids=["lookahead"])
    def test_ledger_reconciles_under_every_policy(self, knobs):
        """One draw site, one loop: the same span == phase bookkeeping
        whatever the policy, ``draw`` included."""
        obs = Observability()
        report = FunctionalTrainer(
            make_model(), make_stream(), SGD(lr=0.2), **knobs
        ).train(8, 4, np.random.default_rng(1), obs=obs)
        traced = traced_phase_totals(obs)
        assert "draw" in traced
        assert set(traced) == set(report.timings.totals)
        for phase, seconds in report.timings.totals.items():
            assert traced[phase] == pytest.approx(seconds, rel=1e-9)
        assert validate_span_nesting(obs.tracer.records) == []

    def test_trace_is_well_nested(self):
        obs = Observability()
        FunctionalTrainer(make_model(), make_stream(), SGD(lr=0.2)).train(
            8, 4, np.random.default_rng(1), obs=obs)
        assert validate_span_nesting(obs.tracer.records) == []

    def test_pipelined_run_uses_the_main_and_cast_tracks(self):
        obs = Observability()
        FunctionalTrainer(
            make_model(), make_stream(), SGD(lr=0.2), lookahead=1,
        ).train(8, 3, np.random.default_rng(1), obs=obs)
        tracks = {record.track for record in obs.tracer.records}
        assert tracks == {"main", "cast"}
        assert validate_span_nesting(obs.tracer.records) == []
        assert "gather" in span_totals(obs.tracer.records, track="main")
        assert "casting" in span_totals(obs.tracer.records, track="cast")

    def test_step_envelope_covers_every_step(self):
        obs = Observability()
        FunctionalTrainer(make_model(), make_stream(), SGD(lr=0.2)).train(
            8, 4, np.random.default_rng(1), obs=obs)
        steps = [r for r in obs.tracer.records if r.name == "step"]
        assert [r.args["step"] for r in steps] == [1, 2, 3, 4]


class TestRunMetricsAndSteps:
    def test_counters_gauges_and_step_stream(self):
        obs = Observability()
        report = FunctionalTrainer(
            make_model(), make_stream(), SGD(lr=0.2)
        ).train(8, 4, np.random.default_rng(1), obs=obs)
        assert obs.metrics.counter("train.steps").value == 4
        gauge = obs.metrics.gauge("train.loss")
        assert [value for _, value in gauge.samples] == report.losses
        kernel_calls = [m for m in obs.metrics.series()
                        if m.name == "kernel.calls"]
        assert kernel_calls and all(m.value > 0 for m in kernel_calls)
        assert [rec["step"] for rec in obs.steps] == [1, 2, 3, 4]
        assert all(rec["type"] == "step" for rec in obs.steps)
        assert [rec["loss"] for rec in obs.steps] == report.losses
        assert obs.manifest["steps"] == 4
        assert obs.manifest["mode"] == "casted"

