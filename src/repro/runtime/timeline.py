"""Execution timelines — the Figure 9 machinery.

A training iteration is a set of operations placed on hardware resources
(CPU, GPU, NMP pool, PCIe, the NMP-GPU link) with dependencies between them.
:class:`Timeline` schedules spans greedily: an operation starts when its
resource is free *and* all its dependencies have finished — exactly the
semantics of the paper's execution-timeline diagrams, including the key
overlap that hides Tensor Casting's casting stage under the forward
embedding gather (Figure 9(b)).

Timelines expose the two views the paper's evaluation uses:

* :meth:`Timeline.breakdown` — *accumulated* per-operation latency (what the
  stacked bars of Figures 4 and 12 plot, overlap-agnostic);
* :meth:`Timeline.makespan` — end-to-end iteration latency (what the Figure
  13 speedups are computed from).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence

__all__ = [
    "Span",
    "Timeline",
    "RESOURCE_CPU",
    "RESOURCE_GPU",
    "RESOURCE_NMP",
    "RESOURCE_PCIE",
    "RESOURCE_LINK",
]

RESOURCE_CPU = "cpu"
RESOURCE_GPU = "gpu"
RESOURCE_NMP = "nmp"
RESOURCE_PCIE = "pcie"
RESOURCE_LINK = "link"


@dataclass(frozen=True)
class Span:
    """One scheduled operation on one resource.

    ``op`` is the breakdown key (e.g. ``"fwd_gather"``); ``bytes_moved``
    feeds the energy model's per-byte term.
    """

    resource: str
    op: str
    start: float
    duration: float
    bytes_moved: int = 0

    def __post_init__(self) -> None:
        if self.duration < 0:
            raise ValueError(f"span duration must be non-negative, got {self.duration}")
        if self.start < 0:
            raise ValueError(f"span start must be non-negative, got {self.start}")

    @property
    def end(self) -> float:
        return self.start + self.duration


@dataclass
class Timeline:
    """Greedy resource-constrained schedule of one training iteration."""

    spans: List[Span] = field(default_factory=list)
    _resource_free: Dict[str, float] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def schedule(
        self,
        resource: str,
        op: str,
        duration: float,
        after: Span | Sequence[Span] | None = None,
        bytes_moved: int = 0,
    ) -> Span:
        """Place ``op`` on ``resource`` as early as dependencies permit.

        ``after`` lists spans that must complete first.  Returns the placed
        span for later chaining.
        """
        earliest = self._resource_free.get(resource, 0.0)
        for dep in self._as_spans(after):
            earliest = max(earliest, dep.end)
        span = Span(resource, op, earliest, duration, bytes_moved)
        self.spans.append(span)
        self._resource_free[resource] = span.end
        return span

    @staticmethod
    def _as_spans(after: Span | Sequence[Span] | None) -> Iterable[Span]:
        if after is None:
            return ()
        if isinstance(after, Span):
            return (after,)
        return after

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def makespan(self) -> float:
        """End-to-end latency: last span end (0 for an empty timeline)."""
        if not self.spans:
            return 0.0
        return max(span.end for span in self.spans)

    def resources(self) -> List[str]:
        """All resources that appear, in first-use order."""
        seen: Dict[str, None] = {}
        for span in self.spans:
            seen.setdefault(span.resource, None)
        return list(seen)

    def busy_time(self, resource: str) -> float:
        """Total occupied time of ``resource`` (spans never overlap on it)."""
        return sum(s.duration for s in self.spans if s.resource == resource)

    def bytes_moved(self, resource: str) -> int:
        """Total bytes the resource's spans report moving."""
        return sum(s.bytes_moved for s in self.spans if s.resource == resource)

    def utilization(self, resource: str) -> float:
        """Busy fraction of the makespan — the Figure 15 metric."""
        makespan = self.makespan()
        if makespan == 0.0:
            return 0.0
        return self.busy_time(resource) / makespan

    def breakdown(self) -> Dict[str, float]:
        """Accumulated latency per op key (the Figure 4/12 stacked bars)."""
        totals: Dict[str, float] = {}
        for span in self.spans:
            totals[span.op] = totals.get(span.op, 0.0) + span.duration
        return totals

    def validate(self) -> None:
        """Assert the schedule is physical: no overlap within any resource."""
        by_resource: Dict[str, List[Span]] = {}
        for span in self.spans:
            by_resource.setdefault(span.resource, []).append(span)
        for resource, spans in by_resource.items():
            ordered = sorted(spans, key=lambda s: s.start)
            for before, after in zip(ordered[:-1], ordered[1:]):
                if after.start < before.end - 1e-15:
                    raise AssertionError(
                        f"overlapping spans on {resource}: {before.op} "
                        f"[{before.start:.6g}, {before.end:.6g}) and "
                        f"{after.op} [{after.start:.6g}, {after.end:.6g})"
                    )
