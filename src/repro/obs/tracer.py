"""Nested spans over an injectable clock: the trace half of ``repro.obs``.

A :class:`Tracer` produces :class:`SpanRecord` entries — named intervals
``[start_s, end_s]`` on a named **track** (a Perfetto thread lane: the
training engine records every phase of its step loop on ``main``).
Time comes exclusively from the injected :class:`~repro.obs.clock.Clock`:
a :class:`~repro.obs.clock.RealTimeClock` for measured runs, a
:class:`~repro.obs.clock.VirtualClock` for byte-deterministic traces.

Two ways to make a span:

* :meth:`Tracer.span` — a context manager that reads the clock on entry
  and exit.  **Always use it in a** ``with`` **statement** (the repro-lint
  ``obs-hygiene`` rule enforces this): a dangling span never closes and
  corrupts the per-track nesting.
* :meth:`Tracer.record_span` — explicit timestamps, for events whose
  start/end are already known (the engine's phase timer, which feeds the
  same clock reads to the report).

:func:`span_totals` and :func:`validate_span_nesting` are the analysis
helpers the reconciliation and well-formedness tests are built on.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Mapping, Optional

from .clock import Clock, RealTimeClock

__all__ = [
    "Span",
    "SpanRecord",
    "Tracer",
    "span_totals",
    "validate_span_nesting",
]


@dataclass(frozen=True)
class SpanRecord:
    """One completed span: a named interval on a track."""

    name: str
    track: str
    start_s: float
    end_s: float
    args: Optional[Dict[str, Any]] = None

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s

    def to_dict(self) -> Dict[str, Any]:
        record: Dict[str, Any] = {
            "name": self.name,
            "track": self.track,
            "start_s": self.start_s,
            "end_s": self.end_s,
        }
        if self.args:
            record["args"] = dict(sorted(self.args.items()))
        return record


class Span:
    """An open span; closes (and records itself) on context exit."""

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        track: str,
        args: Optional[Mapping[str, Any]],
    ) -> None:
        self._tracer = tracer
        self.name = name
        self.track = track
        self.args: Dict[str, Any] = dict(args) if args else {}
        self.start_s: Optional[float] = None
        self.end_s: Optional[float] = None

    def set(self, **args: Any) -> None:
        """Attach arguments to the span while it is open."""
        self.args.update(args)

    def __enter__(self) -> "Span":
        self.start_s = self._tracer.now()
        return self

    def __exit__(self, *exc_info: Any) -> bool:
        assert self.start_s is not None, "span exited before it was entered"
        self.end_s = self._tracer.now()
        self._tracer.record_span(
            self.name,
            track=self.track,
            start_s=self.start_s,
            end_s=self.end_s,
            args=self.args or None,
        )
        return False


class Tracer:
    """Collect spans with timestamps from one injected clock.

    ``clock=None`` (the default) measures real wall time with a
    :class:`~repro.obs.clock.RealTimeClock`; inject a
    :class:`~repro.obs.clock.VirtualClock` for deterministic traces.
    Appends to :attr:`records` are lock-guarded, so threads may share one
    tracer.
    """

    def __init__(self, clock: Clock | None = None) -> None:
        self.clock: Clock = clock if clock is not None else RealTimeClock()
        self.records: List[SpanRecord] = []
        self._lock = threading.Lock()

    def now(self) -> float:
        """Current trace time (seconds on the injected clock)."""
        return self.clock.now()

    def span(
        self,
        name: str,
        track: str = "main",
        args: Optional[Mapping[str, Any]] = None,
    ) -> Span:
        """Open a span context manager (use in a ``with`` statement)."""
        return Span(self, name, track, args)

    def record_span(
        self,
        name: str,
        track: str,
        start_s: float,
        end_s: float,
        args: Optional[Mapping[str, Any]] = None,
    ) -> SpanRecord:
        """Record a span with explicit timestamps."""
        if end_s < start_s:
            raise ValueError(
                f"span {name!r} ends ({end_s}) before it starts ({start_s})"
            )
        record = SpanRecord(
            name=name,
            track=track,
            start_s=float(start_s),
            end_s=float(end_s),
            args=dict(args) if args else None,
        )
        with self._lock:
            self.records.append(record)
        return record


def span_totals(
    records: Iterable[SpanRecord], track: Optional[str] = None
) -> Dict[str, float]:
    """Total seconds per span name (optionally restricted to one track).

    The reconciliation primitive: a traced training run's
    ``span_totals(tracer.records)`` must agree with the report's
    :class:`~repro.runtime.stages.PhaseTimings` totals phase by phase,
    because both are computed from the *same* clock reads.
    """
    totals: Dict[str, float] = {}
    for record in records:
        if track is not None and record.track != track:
            continue
        totals[record.name] = totals.get(record.name, 0.0) + record.duration_s
    return totals


def validate_span_nesting(records: Iterable[SpanRecord]) -> List[str]:
    """Check that spans on each track form a proper nesting.

    Within one track, any two spans must be either disjoint or fully
    nested (shared endpoints allowed — a child may end exactly when its
    parent does).  Returns a list of human-readable violations, empty for
    a well-formed trace.
    """
    by_track: Dict[str, List[SpanRecord]] = {}
    for record in records:
        by_track.setdefault(record.track, []).append(record)
    violations: List[str] = []
    for track in sorted(by_track):
        stack: List[SpanRecord] = []
        ordered = sorted(
            by_track[track], key=lambda r: (r.start_s, -r.end_s, r.name)
        )
        for record in ordered:
            while stack and stack[-1].end_s <= record.start_s:
                stack.pop()
            if stack and record.end_s > stack[-1].end_s:
                violations.append(
                    f"track {track!r}: span {record.name!r} "
                    f"[{record.start_s}, {record.end_s}] overlaps "
                    f"{stack[-1].name!r} [{stack[-1].start_s}, "
                    f"{stack[-1].end_s}] without nesting inside it"
                )
                continue
            stack.append(record)
    return violations
