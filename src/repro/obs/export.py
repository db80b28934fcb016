"""Exporters: Chrome trace-event JSON, JSONL step records, run manifests.

Three artifacts per observed run, all byte-deterministic for deterministic
inputs (sorted keys, sorted tracks, stable event order):

* **Chrome trace JSON** (:func:`write_chrome_trace`) — the
  ``traceEvents`` format Perfetto and ``chrome://tracing`` load directly.
  Every :class:`~repro.obs.tracer.SpanRecord` becomes one complete
  (``"ph": "X"``) event with microsecond timestamps; tracks map to thread
  ids announced by ``thread_name`` metadata events, so the step loop and
  the cast-ahead worker render as separate lanes.
* **JSONL step records** (:func:`write_jsonl`) — one JSON object per
  line: training steps with their losses.  Greppable, streamable,
  diffable.
* **Run manifest** (:func:`write_manifest`) — what produced the artifacts:
  config, seed (caller-provided) plus the repository revision
  (:func:`git_revision`) and a written-at stamp.

:func:`validate_chrome_trace` is the schema check the export tests (and
the CI observability-smoke job) run against emitted traces — hand-rolled
because the contract is small and the repo takes no dependencies.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Union

from .clock import utc_timestamp
from .tracer import SpanRecord

__all__ = [
    "chrome_trace_payload",
    "git_revision",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
    "write_manifest",
]

PathLike = Union[str, "Path"]

#: Track names pinned to the lowest thread ids so the Perfetto lane order
#: reads top-down: step loop first, cast-ahead work right under it.
_PINNED_TRACKS = ("main", "cast")


def _track_ids(records: Sequence[SpanRecord]) -> Dict[str, int]:
    names = sorted({record.track for record in records})
    ordered = [name for name in _PINNED_TRACKS if name in names]
    ordered += [name for name in names if name not in _PINNED_TRACKS]
    return {name: tid for tid, name in enumerate(ordered)}


def chrome_trace_payload(
    records: Sequence[SpanRecord],
    metadata: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Any]:
    """Render spans as a Chrome trace-event payload (Perfetto-loadable).

    Deterministic: tracks get thread ids in a stable order (``main`` and
    ``cast`` first, the rest sorted), events are sorted by start time with
    parents before children, and all dict keys serialize sorted.
    """
    tids = _track_ids(records)
    events: List[Dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 0,
            "tid": 0,
            "args": {"name": "repro"},
        }
    ]
    for name, tid in sorted(tids.items(), key=lambda item: item[1]):
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 0,
                "tid": tid,
                "args": {"name": name},
            }
        )
    ordered = sorted(
        records,
        key=lambda r: (r.start_s, -r.end_s, tids[r.track], r.name),
    )
    for record in ordered:
        event: Dict[str, Any] = {
            "name": record.name,
            "cat": "repro",
            "ph": "X",
            "ts": record.start_s * 1e6,
            "dur": record.duration_s * 1e6,
            "pid": 0,
            "tid": tids[record.track],
        }
        if record.args:
            event["args"] = dict(sorted(record.args.items()))
        events.append(event)
    payload: Dict[str, Any] = {
        "displayTimeUnit": "ms",
        "traceEvents": events,
    }
    if metadata:
        payload["otherData"] = dict(sorted(metadata.items()))
    return payload


def validate_chrome_trace(payload: Mapping[str, Any]) -> int:
    """Check a payload against the trace-event contract; count ``X`` events.

    Raises :class:`ValueError` naming the first violation.  The contract
    covered is what Perfetto's JSON importer requires of the events this
    exporter produces: a ``traceEvents`` list of ``M``/``X`` events with
    numeric non-negative ``ts``/``dur``, integer ``pid``/``tid``, and every
    ``X`` event's ``tid`` announced by a ``thread_name`` metadata event.
    """
    if not isinstance(payload, Mapping):
        raise ValueError(f"trace payload must be an object, got {type(payload).__name__}")
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        raise ValueError("trace payload is missing the 'traceEvents' list")
    named_tids = set()
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            raise ValueError(f"traceEvents[{index}] is not an object")
        ph = event.get("ph")
        if ph not in ("M", "X"):
            raise ValueError(
                f"traceEvents[{index}] has unsupported phase {ph!r} "
                "(this exporter emits only 'M' metadata and 'X' complete events)"
            )
        name = event.get("name")
        if not isinstance(name, str) or not name:
            raise ValueError(f"traceEvents[{index}] has no name")
        for key in ("pid", "tid"):
            if not isinstance(event.get(key), int):
                raise ValueError(f"traceEvents[{index}] has no integer {key!r}")
        if ph == "M":
            if name == "thread_name":
                args = event.get("args")
                if not isinstance(args, dict) or not args.get("name"):
                    raise ValueError(
                        f"traceEvents[{index}] thread_name metadata has no "
                        "args.name"
                    )
                named_tids.add(event["tid"])
            continue
        for key in ("ts", "dur"):
            value = event.get(key)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(
                    f"traceEvents[{index}] has non-numeric {key!r}: {value!r}"
                )
            if value < 0:
                raise ValueError(
                    f"traceEvents[{index}] has negative {key!r}: {value!r}"
                )
        if event["tid"] not in named_tids:
            raise ValueError(
                f"traceEvents[{index}] runs on tid {event['tid']} but no "
                "thread_name metadata announced that track"
            )
    return sum(1 for event in events if event.get("ph") == "X")


def write_chrome_trace(
    path: PathLike,
    records: Sequence[SpanRecord],
    metadata: Optional[Mapping[str, Any]] = None,
) -> Path:
    """Write :func:`chrome_trace_payload` as sorted JSON; returns the path."""
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as handle:
        json.dump(
            chrome_trace_payload(records, metadata),
            handle,
            indent=1,
            sort_keys=True,
        )
        handle.write("\n")
    return out


def write_jsonl(path: PathLike, records: Iterable[Mapping[str, Any]]) -> Path:
    """Write one sorted-key JSON object per line; returns the path."""
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as handle:
        for record in records:
            handle.write(json.dumps(dict(record), sort_keys=True,
                                    default=_jsonable))
            handle.write("\n")
    return out


def git_revision(cwd: "PathLike | None" = None) -> str:
    """The checked-out commit SHA, or ``"unknown"`` outside a repository."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            cwd=str(cwd) if cwd is not None else None,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    if proc.returncode != 0:
        return "unknown"
    return proc.stdout.strip() or "unknown"


def _jsonable(value: Any) -> Any:
    """JSON fallback: dataclasses to dicts, everything else to ``repr``."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return dataclasses.asdict(value)
    if hasattr(value, "tolist"):  # numpy scalars and arrays
        return value.tolist()
    return repr(value)


def write_manifest(path: PathLike, manifest: Mapping[str, Any]) -> Path:
    """Write the run manifest (plus git SHA and written-at stamp).

    Caller-provided fields win over the two stamps, so a test can pin
    ``git_sha``/``written_at`` for byte-stable fixtures.
    """
    payload: Dict[str, Any] = {
        "git_sha": git_revision(),
        "written_at": utc_timestamp(),
    }
    payload.update(manifest)
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True, default=_jsonable)
        handle.write("\n")
    return out
