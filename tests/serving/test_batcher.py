"""Property/invariant tests for the dynamic batcher on the virtual clock.

The invariants the serving plane guarantees, pinned over seeded arrival
traces with the deterministic :class:`FixedLatencyExecutor` (so every
latency — and therefore every percentile — is exactly reproducible):

* conservation — every generated request completes exactly once;
* FIFO — every dispatched batch is a contiguous arrival-ordered slice;
* bounded batches — no batch exceeds ``max_batch_requests``;
* bounded waiting — no request's dispatch is delayed past its timeout by
  more than one in-flight batch execution (the single server finishes the
  batch it is running, then a timed-out queue dispatches immediately);
* determinism — equal seeds reproduce the identical report, percentile
  for percentile.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.data.arrivals import ArrivalProcess
from repro.data.generator import SyntheticCTRStream
from repro.model.configs import RM1
from repro.serving import (
    BatchingPolicy,
    DynamicBatcher,
    FixedLatencyExecutor,
    RequestQueue,
    ServingSimulator,
    VirtualClock,
    generate_requests,
    tune_batch_size,
)

CONFIG = RM1.with_overrides(
    num_tables=2, gathers_per_table=3, rows_per_table=48,
    bottom_mlp=(6, 4), top_mlp=(4, 1), embedding_dim=4,
)


def make_requests(count=40, samples=2, rate=400.0, pattern="poisson", seed=0):
    stream = SyntheticCTRStream(
        num_tables=CONFIG.num_tables, num_rows=CONFIG.rows_per_table,
        lookups_per_sample=CONFIG.gathers_per_table,
        dense_features=CONFIG.dense_features, seed=seed,
    )
    return generate_requests(
        stream, count, samples, ArrivalProcess(rate, pattern=pattern, seed=seed),
        np.random.default_rng(seed),
    )


class TestBatchingPolicy:
    def test_validates_knobs(self):
        with pytest.raises(ValueError, match="max_batch_requests"):
            BatchingPolicy(0, 0.01)
        with pytest.raises(ValueError, match="max_batch_requests"):
            BatchingPolicy(True, 0.01)
        with pytest.raises(ValueError, match="max_wait_s"):
            BatchingPolicy(4, -0.01)

    def test_rejects_a_nan_wait(self):
        with pytest.raises(ValueError, match="max_wait_s"):
            BatchingPolicy(4, float("nan"))

    def test_no_batching_policy(self):
        policy = BatchingPolicy.no_batching()
        assert policy.max_batch_requests == 1
        assert policy.max_wait_s == 0.0
        assert policy.name == "single"


class TestDynamicBatcherDecisions:
    def test_empty_queue_never_dispatches(self):
        batcher = DynamicBatcher(BatchingPolicy(4, 0.01))
        assert not batcher.should_dispatch(RequestQueue(), now=100.0)
        assert batcher.next_deadline_s(RequestQueue()) == float("inf")

    def test_full_batch_dispatches_immediately(self):
        requests = make_requests(count=4)
        batcher = DynamicBatcher(BatchingPolicy(4, 10.0))
        queue = RequestQueue(requests)
        assert batcher.should_dispatch(queue, now=requests[-1].arrival_s)

    def test_partial_batch_waits_for_the_deadline(self):
        request = make_requests(count=1)[0]
        batcher = DynamicBatcher(BatchingPolicy(4, 0.05))
        queue = RequestQueue([request])
        deadline = request.arrival_s + 0.05
        assert not batcher.should_dispatch(queue, now=deadline - 1e-6)
        assert batcher.should_dispatch(queue, now=deadline)

    def test_dispatch_at_the_exact_deadline_is_not_off_by_an_ulp(self):
        # Regression: comparing (now - arrival) >= max_wait instead of
        # now >= arrival + max_wait loses an ulp when the clock wakes
        # exactly at the deadline, deadlocking the simulator.
        batcher = DynamicBatcher(BatchingPolicy(8, 0.01))
        payload = make_requests(count=1)[0]
        rng = np.random.default_rng(0)
        for arrival in rng.uniform(0.001, 1.0, size=200):
            request = replace(payload, arrival_s=float(arrival))
            queue = RequestQueue([request])
            wake = batcher.next_deadline_s(queue)
            assert batcher.should_dispatch(queue, now=wake)

    def test_take_batch_is_a_fifo_slice(self):
        requests = make_requests(count=6)
        batcher = DynamicBatcher(BatchingPolicy(4, 0.01))
        queue = RequestQueue(requests)
        taken = batcher.take_batch(queue)
        assert [r.request_id for r in taken] == [0, 1, 2, 3]
        assert len(queue) == 2


SCENARIOS = [
    pytest.param(100.0, BatchingPolicy(1, 0.0, name="single"), id="single"),
    pytest.param(100.0, BatchingPolicy(8, 0.005), id="slow-dynamic"),
    pytest.param(800.0, BatchingPolicy(8, 0.005), id="fast-dynamic"),
    pytest.param(800.0, BatchingPolicy(4, 0.0), id="zero-wait"),
    pytest.param(2000.0, BatchingPolicy(16, 0.02), id="burst"),
]


class TestServingInvariants:
    @pytest.mark.parametrize("rate,policy", SCENARIOS)
    def test_no_request_lost_or_duplicated(self, rate, policy):
        requests = make_requests(rate=rate)
        report = ServingSimulator(
            FixedLatencyExecutor(0.002, 0.0001), policy, sla_s=0.2
        ).run(requests)
        ids = [o.request.request_id for o in report.outcomes]
        assert sorted(ids) == [r.request_id for r in requests]
        assert len(set(ids)) == len(requests)

    @pytest.mark.parametrize("rate,policy", SCENARIOS)
    def test_batches_are_fifo_and_bounded(self, rate, policy):
        requests = make_requests(rate=rate)
        report = ServingSimulator(
            FixedLatencyExecutor(0.002, 0.0001), policy, sla_s=0.2
        ).run(requests)
        # Outcomes record riders batch by batch in dispatch order; FIFO
        # scheduling means the flat id sequence is globally sorted.
        ids = [o.request.request_id for o in report.outcomes]
        assert ids == sorted(ids)
        for outcome in report.outcomes:
            assert outcome.batch_requests <= policy.max_batch_requests
            assert outcome.dispatch_s >= outcome.request.arrival_s
            assert outcome.completion_s >= outcome.dispatch_s

    @pytest.mark.parametrize("rate,policy", SCENARIOS)
    def test_no_batch_is_held_past_its_trigger(self, rate, policy):
        # Work conservation: a batch dispatches at its trigger — batch
        # full, or the oldest rider's timeout — unless the single server
        # is still executing the previous batch, in which case it
        # dispatches the moment that execution completes.  No request
        # ever waits past its timeout with the server idle.
        executor = FixedLatencyExecutor(0.002, 0.0001)
        requests = make_requests(rate=rate)
        report = ServingSimulator(executor, policy, sla_s=0.2).run(requests)
        batches = []
        cursor = 0
        while cursor < len(report.outcomes):
            size = report.outcomes[cursor].batch_requests
            batches.append(report.outcomes[cursor:cursor + size])
            cursor += size
        previous_completion = 0.0
        for riders in batches:
            if len(riders) == policy.max_batch_requests:
                # Full batch: ready once the filling (newest) rider arrived.
                trigger = riders[-1].request.arrival_s
            else:
                # Partial batch: only a timeout can have dispatched it.
                trigger = (
                    riders[0].request.arrival_s + policy.max_wait_s
                )
            dispatch = riders[0].dispatch_s
            assert dispatch <= max(trigger, previous_completion)
            previous_completion = riders[0].completion_s

    def test_idle_server_dispatches_exactly_at_the_deadline(self):
        request = make_requests(count=1)[0]
        policy = BatchingPolicy(8, 0.03)
        report = ServingSimulator(
            FixedLatencyExecutor(0.001), policy, sla_s=0.2
        ).run([request])
        outcome = report.outcomes[0]
        assert outcome.dispatch_s == request.arrival_s + 0.03
        assert outcome.completion_s == outcome.dispatch_s + 0.001

    @pytest.mark.parametrize("rate,policy", SCENARIOS)
    def test_seeded_traces_reproduce_percentiles_exactly(self, rate, policy):
        reports = [
            ServingSimulator(
                FixedLatencyExecutor(0.002, 0.0001), policy, sla_s=0.2
            ).run(make_requests(rate=rate, seed=11))
            for _ in range(2)
        ]
        first, second = reports
        assert first.p50_s == second.p50_s
        assert first.p95_s == second.p95_s
        assert first.p99_s == second.p99_s
        assert first.qps == second.qps
        assert first.qps_under_sla == second.qps_under_sla
        assert first.batches == second.batches


class TestHandComputedScenario:
    """Three requests, worked by hand: fill dispatch, then timeout dispatch."""

    def test_latencies_match_the_hand_trace(self):
        payloads = make_requests(count=3, samples=2)
        arrivals = [0.0, 0.001, 0.100]
        requests = [
            replace(r, arrival_s=t) for r, t in zip(payloads, arrivals)
        ]
        report = ServingSimulator(
            FixedLatencyExecutor(0.01),  # flat 10 ms per batch
            BatchingPolicy(2, 0.05),
            sla_s=0.05,
        ).run(requests)
        # r0+r1 fill the batch at t=0.001 and complete at 0.011;
        # r2 times out at 0.100+0.05=0.150 and completes at 0.160.
        by_id = {o.request.request_id: o for o in report.outcomes}
        assert by_id[0].dispatch_s == 0.001
        assert by_id[0].completion_s == pytest.approx(0.011)
        assert by_id[0].latency_s == pytest.approx(0.011)
        assert by_id[1].latency_s == pytest.approx(0.010)
        assert by_id[2].dispatch_s == pytest.approx(0.150)
        assert by_id[2].latency_s == pytest.approx(0.060)
        assert report.batches == 2
        assert report.requests == 3
        assert report.mean_batch_requests == pytest.approx(1.5)
        assert report.makespan_s == pytest.approx(0.160)
        assert report.qps == pytest.approx(3 / 0.160)
        # Only r2 (60 ms) misses the 50 ms SLA.
        assert report.sla_attainment == pytest.approx(2 / 3)
        assert report.qps_under_sla == pytest.approx(2 / 0.160)

    def test_simulator_rejects_a_nan_sla(self):
        with pytest.raises(ValueError, match="sla_s"):
            ServingSimulator(
                FixedLatencyExecutor(0.01), BatchingPolicy(2, 0.05),
                float("nan"),
            )

    def test_simulator_validates_inputs(self):
        with pytest.raises(ValueError, match="empty"):
            ServingSimulator(
                FixedLatencyExecutor(0.01), BatchingPolicy(2, 0.05), 0.1
            ).run([])
        payloads = make_requests(count=2)
        shuffled = [
            replace(payloads[0], arrival_s=1.0),
            replace(payloads[1], arrival_s=0.5),
        ]
        with pytest.raises(ValueError, match="sorted"):
            ServingSimulator(
                FixedLatencyExecutor(0.01), BatchingPolicy(2, 0.05), 0.1
            ).run(shuffled)
        with pytest.raises(ValueError, match="sla_s"):
            ServingSimulator(
                FixedLatencyExecutor(0.01), BatchingPolicy(2, 0.05), 0.0
            )


class TestHillClimb:
    def test_batching_wins_when_per_batch_cost_dominates(self):
        # 4 ms flat per batch at 2000 rps: single-request batches saturate,
        # so the climb must move off batch size 1.
        requests = make_requests(count=60, rate=2000.0, seed=5)
        policy, best, trace = tune_batch_size(
            requests, FixedLatencyExecutor(0.004, 0.00005),
            sla_s=0.1, max_wait_s=0.005,
        )
        assert policy.max_batch_requests > 1
        assert best.qps_under_sla >= trace[0].qps_under_sla
        sizes = [r.policy.max_batch_requests for r in trace]
        assert sizes == [2 ** i for i in range(len(sizes))]
        assert best is max(trace, key=lambda r: r.qps_under_sla)

    def test_climb_respects_the_ceiling(self):
        requests = make_requests(count=20, rate=2000.0, seed=5)
        _, _, trace = tune_batch_size(
            requests, FixedLatencyExecutor(0.004), sla_s=0.1,
            max_wait_s=0.005, max_batch_requests=4,
        )
        assert all(r.policy.max_batch_requests <= 4 for r in trace)
        with pytest.raises(ValueError, match="max_batch_requests"):
            tune_batch_size(requests, FixedLatencyExecutor(0.004),
                            sla_s=0.1, max_wait_s=0.005, max_batch_requests=0)
