"""The serving simulator: arrivals → queue → dynamic batches → latencies.

:class:`ServingSimulator` is a single-server discrete-event loop over an
injectable :class:`~repro.serving.clock.Clock`:

1. requests are admitted to the :class:`~repro.serving.request.RequestQueue`
   as simulation time passes their scheduled arrivals;
2. the :class:`~repro.serving.batcher.DynamicBatcher` decides when the
   queue becomes a batch (full batch or oldest-request timeout — while the
   server is busy executing, arrivals simply accumulate);
3. the executor scores the coalesced batch and its *measured* service
   seconds are charged to the clock;
4. every request in the batch completes at the batch's completion time.

Per-request latency is therefore **queue wait + batch execution**, rolled
up by :class:`ServingReport` into p50/p95/p99, mean, throughput (QPS), and
**QPS-under-SLA** — completed-within-SLA queries per second, the
DeepRecSys figure of merit.  :func:`tune_batch_size` hill-climbs the batch
-size knob against that figure for a given arrival profile.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple, TYPE_CHECKING

import numpy as np

from .batcher import BatchingPolicy, DynamicBatcher
from .execution import Executor
from .clock import Clock, VirtualClock
from .request import Request, RequestQueue, coalesce_requests

if TYPE_CHECKING:
    from ..obs.session import Observability

__all__ = [
    "CompletedRequest",
    "ServingReport",
    "ServingSimulator",
    "tune_batch_size",
]


@dataclass(frozen=True)
class CompletedRequest:
    """One request's lifecycle timestamps, as the simulator recorded them."""

    request: Request
    #: When the batch carrying this request started executing.
    dispatch_s: float
    #: When that batch finished (every rider completes together).
    completion_s: float
    #: How many requests rode in the batch.
    batch_requests: int

    @property
    def queue_wait_s(self) -> float:
        return self.dispatch_s - self.request.arrival_s

    @property
    def execution_s(self) -> float:
        return self.completion_s - self.dispatch_s

    @property
    def latency_s(self) -> float:
        """End-to-end: queue wait + batch execution."""
        return self.completion_s - self.request.arrival_s


@dataclass(frozen=True)
class ServingReport:
    """Latency/throughput roll-up of one simulated serving run."""

    policy: BatchingPolicy
    sla_s: float
    requests: int
    batches: int
    p50_s: float
    p95_s: float
    p99_s: float
    mean_s: float
    max_s: float
    mean_queue_wait_s: float
    #: Completed requests per simulated second (makespan denominator).
    qps: float
    #: Requests that completed *within the SLA* per simulated second —
    #: the DeepRecSys figure of merit.
    qps_under_sla: float
    #: Fraction of requests whose latency met the SLA.
    sla_attainment: float
    makespan_s: float
    outcomes: List[CompletedRequest] = field(repr=False, default_factory=list)

    @property
    def mean_batch_requests(self) -> float:
        """Average coalesced batch size, in requests."""
        if self.batches == 0:
            return 0.0
        return self.requests / self.batches

    @property
    def sla_met(self) -> bool:
        """Did the measured p99 respect the configured SLA?"""
        return self.p99_s <= self.sla_s


def _build_report(
    policy: BatchingPolicy,
    sla_s: float,
    outcomes: List[CompletedRequest],
    batches: int,
) -> ServingReport:
    latencies = np.array([outcome.latency_s for outcome in outcomes])
    waits = np.array([outcome.queue_wait_s for outcome in outcomes])
    first_arrival = min(o.request.arrival_s for o in outcomes)
    makespan = max(o.completion_s for o in outcomes) - first_arrival
    within = int(np.count_nonzero(latencies <= sla_s))
    p50, p95, p99 = (float(p) for p in np.percentile(latencies, [50, 95, 99]))
    return ServingReport(
        policy=policy,
        sla_s=sla_s,
        requests=len(outcomes),
        batches=batches,
        p50_s=p50,
        p95_s=p95,
        p99_s=p99,
        mean_s=float(latencies.mean()),
        max_s=float(latencies.max()),
        mean_queue_wait_s=float(waits.mean()),
        qps=len(outcomes) / makespan if makespan > 0 else float("inf"),
        qps_under_sla=within / makespan if makespan > 0 else float("inf"),
        sla_attainment=within / len(outcomes),
        makespan_s=makespan,
        outcomes=outcomes,
    )


class ServingSimulator:
    """Single-server serving loop: one executor, one batcher, one clock.

    With ``obs`` set, every dispatched batch and every request lifecycle is
    recorded as trace spans with *simulation* timestamps (the spans are
    explicit-timestamp records, so a :class:`~repro.serving.clock.
    VirtualClock` run produces a byte-identical trace on every repeat):
    each batch is a ``batch`` span on the ``server`` track, and each
    request gets its own ``req<id>`` track holding a ``request`` envelope
    with ``queue_wait`` and ``execute`` children.  ``track_prefix``
    namespaces the tracks so several simulator runs (a sweep's cells, the
    hill climb's candidates) can share one trace.  The same records feed
    ``serving.*`` metric series and ``type="request"`` step records — the
    :class:`ServingReport` is derivable from either view.
    """

    def __init__(
        self,
        executor: Executor,
        policy: BatchingPolicy,
        sla_s: float,
        clock: Optional[Clock] = None,
        obs: "Observability | None" = None,
        track_prefix: str = "",
    ) -> None:
        if not sla_s > 0:
            raise ValueError(f"sla_s must be positive, got {sla_s}")
        self.executor = executor
        self.batcher = DynamicBatcher(policy)
        self.sla_s = float(sla_s)
        self.clock = clock if clock is not None else VirtualClock()
        self.obs = obs
        self.track_prefix = track_prefix

    def _observe_batch(
        self,
        batch_requests: Sequence[Request],
        dispatch_s: float,
        completion_s: float,
    ) -> None:
        """Record one dispatched batch (and its riders) into ``obs``."""
        obs = self.obs
        assert obs is not None
        prefix = self.track_prefix
        policy_name = self.batcher.policy.name
        samples = sum(request.num_samples for request in batch_requests)
        obs.tracer.record_span(
            "batch",
            track=f"{prefix}server",
            start_s=dispatch_s,
            end_s=completion_s,
            args={"requests": len(batch_requests), "samples": samples},
        )
        obs.metrics.counter("serving.batches", policy=policy_name).inc()
        latency_ms = obs.metrics.histogram(
            "serving.latency_ms", policy=policy_name
        )
        for request in batch_requests:
            track = f"{prefix}req{request.request_id}"
            obs.tracer.record_span(
                "request",
                track=track,
                start_s=request.arrival_s,
                end_s=completion_s,
                args={"samples": request.num_samples},
            )
            obs.tracer.record_span(
                "queue_wait", track=track,
                start_s=request.arrival_s, end_s=dispatch_s,
            )
            obs.tracer.record_span(
                "execute", track=track,
                start_s=dispatch_s, end_s=completion_s,
            )
            obs.metrics.counter("serving.requests", policy=policy_name).inc()
            latency_ms.observe((completion_s - request.arrival_s) * 1e3)
            obs.record_step(
                type="request",
                request=request.request_id,
                arrival_s=request.arrival_s,
                dispatch_s=dispatch_s,
                completion_s=completion_s,
                batch_requests=len(batch_requests),
            )

    def run(self, requests: Sequence[Request]) -> ServingReport:
        """Serve ``requests`` to completion and report the latency roll-up.

        Requests must be in nondecreasing arrival order (as
        :func:`~repro.serving.request.generate_requests` produces them) —
        admission preserves that order, which is what makes every dispatch
        a FIFO slice.
        """
        if not requests:
            raise ValueError("cannot serve an empty request stream")
        arrivals = [r.arrival_s for r in requests]
        if any(b < a for a, b in zip(arrivals, arrivals[1:])):
            raise ValueError("requests must be sorted by arrival time")
        queue = RequestQueue()
        outcomes: List[CompletedRequest] = []
        batches = 0
        upcoming = 0  # index of the next not-yet-admitted request
        clock = self.clock
        while upcoming < len(requests) or queue:
            now = clock.now()
            while upcoming < len(requests) and (
                requests[upcoming].arrival_s <= now
            ):
                queue.push(requests[upcoming])
                upcoming += 1
            if not queue:
                # Idle server: jump (or sleep) to the next arrival.
                clock.wait_until(requests[upcoming].arrival_s)
                continue
            if not self.batcher.should_dispatch(queue, now):
                # Wake at whichever comes first: the arrival that could
                # fill the batch, or the oldest request's timeout.
                next_arrival = (
                    requests[upcoming].arrival_s
                    if upcoming < len(requests)
                    else float("inf")
                )
                clock.wait_until(
                    min(next_arrival, self.batcher.next_deadline_s(queue))
                )
                continue
            batch_requests = self.batcher.take_batch(queue)
            dispatch_s = now
            result = self.executor.execute(coalesce_requests(batch_requests))
            clock.charge(result.seconds)
            completion_s = clock.now()
            batches += 1
            if self.obs is not None:
                self._observe_batch(batch_requests, dispatch_s, completion_s)
            for request in batch_requests:
                outcomes.append(
                    CompletedRequest(
                        request=request,
                        dispatch_s=dispatch_s,
                        completion_s=completion_s,
                        batch_requests=len(batch_requests),
                    )
                )
        return _build_report(self.batcher.policy, self.sla_s, outcomes, batches)


def tune_batch_size(
    requests: Sequence[Request],
    executor: Executor,
    sla_s: float,
    max_wait_s: float,
    max_batch_requests: int = 64,
    clock_factory: Callable[[], Clock] = VirtualClock,
    obs: "Observability | None" = None,
    track_prefix: str = "",
) -> Tuple[BatchingPolicy, ServingReport, List[ServingReport]]:
    """Hill-climb the batch-size knob against the SLA for one arrival profile.

    DeepRecSys-style tuning: starting from batch size 1 and doubling,
    simulate the same request stream under each candidate and climb while
    the figure of merit improves — QPS-under-SLA first, lower p99 as the
    tie-break.  Stops at the first downhill step (or at
    ``max_batch_requests``) and returns the winning policy, its report,
    and the full climb trace (one report per candidate evaluated).

    With ``obs``, each candidate's simulation is traced under the track
    prefix ``<track_prefix>hill<size>/`` and the decision lands in an
    ``autotune.batch_size`` gauge — the climb becomes inspectable.
    """
    if max_batch_requests < 1:
        raise ValueError(
            f"max_batch_requests must be >= 1, got {max_batch_requests}"
        )
    best: Optional[ServingReport] = None
    trace: List[ServingReport] = []
    size = 1
    while size <= max_batch_requests:
        policy = BatchingPolicy(
            max_batch_requests=size,
            max_wait_s=max_wait_s,
            name=f"hill[{size}]",
        )
        report = ServingSimulator(
            executor, policy, sla_s, clock=clock_factory(),
            obs=obs, track_prefix=f"{track_prefix}hill{size}/",
        ).run(requests)
        trace.append(report)
        if best is None or _improves(report, best):
            best = report
        else:
            break  # first downhill step: the climb is over
        size *= 2
    assert best is not None
    if obs is not None:
        obs.metrics.gauge(
            "autotune.batch_size", scope=track_prefix or "run"
        ).set(float(best.policy.max_batch_requests))
    return best.policy, best, trace


def _improves(candidate: ServingReport, incumbent: ServingReport) -> bool:
    """Higher QPS-under-SLA wins; equal throughput falls back to lower p99."""
    if candidate.qps_under_sla != incumbent.qps_under_sla:
        return candidate.qps_under_sla > incumbent.qps_under_sla
    return candidate.p99_s < incumbent.p99_s
