"""The ``Observability`` bundle threaded through the ``obs=`` seams.

One object carries everything a run records — a
:class:`~repro.obs.tracer.Tracer`, a
:class:`~repro.obs.metrics.MetricRegistry`, the JSONL step-record stream,
and the run manifest — so the trainer, the engine and the CLI all take a
single optional ``obs=`` argument.  ``obs=None`` everywhere
means "record nothing, change nothing": the instrumented call sites are
bit-identical no-ops without it.

Typical shape::

    obs = Observability()                 # wall clock, measured timings
    trainer.train(batch, steps=32, rng=rng, obs=obs)
    obs.export("runs/train.trace.json")   # + .steps.jsonl + .manifest.json

    obs = Observability(clock=VirtualClock())   # byte-stable timestamps
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from .clock import Clock
from .export import write_chrome_trace, write_jsonl, write_manifest
from .metrics import MetricRegistry
from .tracer import Tracer

__all__ = ["Observability"]

PathLike = Union[str, "Path"]


class Observability:
    """Tracer + metrics + step records + manifest for one observed run."""

    def __init__(self, clock: Clock | None = None) -> None:
        self.tracer = Tracer(clock=clock)
        self.metrics = MetricRegistry()
        self.steps: List[Dict[str, Any]] = []
        self.manifest: Dict[str, Any] = {}

    def record_step(self, **fields: Any) -> None:
        """Append one record to the JSONL step stream."""
        self.steps.append(dict(fields))

    def annotate(self, **fields: Any) -> None:
        """Merge run-level facts (config, mode, seed) into the manifest."""
        self.manifest.update(fields)

    def export(
        self,
        trace_path: PathLike,
        metrics_path: Optional[PathLike] = None,
    ) -> List[Path]:
        """Write every artifact; returns the paths written.

        ``trace_path`` gets the Chrome trace JSON; the step stream and
        manifest land next to it as ``<stem>.steps.jsonl`` and
        ``<stem>.manifest.json``.  ``metrics_path`` (optional) gets the
        metrics registry snapshot.
        """
        trace_out = Path(trace_path)
        stem = trace_out.name[:-len(trace_out.suffix)] if trace_out.suffix else trace_out.name
        written = [
            write_chrome_trace(trace_out, self.tracer.records),
            write_jsonl(trace_out.with_name(f"{stem}.steps.jsonl"), self.steps),
            write_manifest(
                trace_out.with_name(f"{stem}.manifest.json"), self.manifest
            ),
        ]
        if metrics_path is not None:
            written.append(self.metrics.write_json(metrics_path))
        return written
