"""Trace persistence and replay: lookup streams as files.

The paper drives its locality studies from public datasets' index ids
(Section III-B).  Two trace families live here:

* **Index traces** — one batch's per-table ``(src, dst)`` arrays, exported
  with :func:`save_trace` and reloaded with :func:`load_trace`.  The
  experiments only consume :class:`~repro.core.indexing.IndexArray`
  objects, so a replayed trace is a drop-in replacement for the synthetic
  profiles (and :func:`distribution_from_trace` turns one into a lookup
  distribution).  They carry no dense features or labels, so they are not
  a training stream.
* **Batch traces** — full ``(dense, indices, labels)`` mini-batch streams,
  written incrementally by :class:`BatchTraceWriter` (or the
  :func:`record_trace` convenience) and replayed at constant memory by
  :class:`TraceReplaySource`: steps are stored as separate zip members, so
  neither recording nor replay ever materializes more than one batch.
  Replaying a recorded synthetic stream through a trainer is bit-identical
  to the direct run — the trace captures exactly what the stream produced.

Both formats are plain ``.npz`` zip archives of ``.npy`` members — no
pickling, portable across platforms.
"""

from __future__ import annotations

import zipfile
from pathlib import Path
from typing import List, Optional, Sequence

import numpy as np
from numpy.lib import format as _npy_format

from ..core.indexing import IndexArray
from .distributions import LookupDistribution
from .histogram import empirical_probability_function
from .source import (
    BatchSource,
    CTRBatch,
    SourceExhausted,
    as_batch_source,
)

__all__ = [
    "save_trace",
    "load_trace",
    "EmpiricalDistribution",
    "distribution_from_trace",
    "BatchTraceWriter",
    "record_trace",
    "TraceReplaySource",
]


def _with_npz_suffix(path: str | Path) -> Path:
    """Mirror ``np.savez``'s name mangling so callers get the *real* path.

    ``np.savez`` silently appends ``.npz`` when the name doesn't end with
    it; returning the pre-mangled path used to break round-trips for
    suffixless names (``save_trace("trace")`` wrote ``trace.npz`` but
    returned ``trace``).
    """
    path = Path(path)
    if not path.name.endswith(".npz"):
        path = path.with_name(path.name + ".npz")
    return path


def save_trace(path: str | Path, indices: Sequence[IndexArray]) -> Path:
    """Persist one batch's per-table index arrays to ``path`` (.npz).

    Returns the written path (with the ``.npz`` suffix ``np.savez`` adds if
    missing).  Raises on empty input to avoid creating ambiguous trace
    files.  The round-trip through :func:`load_trace` is exact: ``src`` /
    ``dst`` dtypes (always ``int64``), per-table ``num_rows`` /
    ``num_outputs``, empty tables and trailing empty output slots all
    survive unchanged.
    """
    if not indices:
        raise ValueError("cannot save an empty trace")
    path = _with_npz_suffix(path)
    payload: dict[str, np.ndarray] = {"num_tables": np.asarray(len(indices))}
    for table_id, index in enumerate(indices):
        payload[f"src_{table_id}"] = index.src
        payload[f"dst_{table_id}"] = index.dst
        payload[f"num_rows_{table_id}"] = np.asarray(index.num_rows)
        payload[f"num_outputs_{table_id}"] = np.asarray(index.num_outputs)
    np.savez_compressed(path, **payload)
    return path


def load_trace(path: str | Path) -> List[IndexArray]:
    """Load a trace written by :func:`save_trace`.

    Validation happens in the :class:`IndexArray` constructor, so corrupted
    or hand-rolled files fail loudly rather than producing silent nonsense.
    """
    path = Path(path)
    with np.load(path) as archive:
        if "num_tables" not in archive:
            raise ValueError(f"{path} is not a repro index trace")
        num_tables = int(archive["num_tables"])
        indices = []
        for table_id in range(num_tables):
            try:
                src = archive[f"src_{table_id}"]
                dst = archive[f"dst_{table_id}"]
                num_rows = int(archive[f"num_rows_{table_id}"])
                num_outputs = int(archive[f"num_outputs_{table_id}"])
            except KeyError as missing:
                raise ValueError(
                    f"{path} is truncated: missing array {missing}"
                ) from None
            indices.append(
                IndexArray(src, dst, num_rows=num_rows, num_outputs=num_outputs)
            )
    return indices


class EmpiricalDistribution(LookupDistribution):
    """A popularity distribution measured from a trace.

    Built via the paper's histogram methodology — count lookups per id,
    sort, normalize — so replayed traces can feed the same
    ``expected_unique`` machinery the calibrated profiles use.
    """

    def __init__(self, probabilities: np.ndarray) -> None:
        probabilities = np.asarray(probabilities, dtype=np.float64)
        if probabilities.ndim != 1 or probabilities.size == 0:
            raise ValueError("probabilities must be a non-empty vector")
        if np.any(probabilities < 0):
            raise ValueError("probabilities must be non-negative")
        total = probabilities.sum()
        if total <= 0:
            raise ValueError("probability mass must be positive")
        super().__init__(probabilities.size)
        self._measured = np.sort(probabilities / total)[::-1]

    def _compute_probabilities(self) -> np.ndarray:
        return self._measured


def distribution_from_trace(
    indices: Sequence[IndexArray], table: int = 0
) -> EmpiricalDistribution:
    """Measure one table's popularity distribution from a loaded trace."""
    if not 0 <= table < len(indices):
        raise ValueError(f"trace has {len(indices)} tables, requested {table}")
    index = indices[table]
    if index.num_lookups == 0:
        raise ValueError("cannot measure a distribution from an empty table")
    probabilities = empirical_probability_function(index.src, index.num_rows)
    return EmpiricalDistribution(probabilities)


# ----------------------------------------------------------------------
# Batch traces: full (dense, indices, labels) streams, one step at a time
# ----------------------------------------------------------------------

#: Bumped when the on-disk batch-trace layout changes.
_BATCH_TRACE_VERSION = 1

#: Header keys written once per batch trace (everything else is per-step).
_HEADER_KEYS = (
    "batch_trace_version",
    "num_steps",
    "num_tables",
    "rows_per_table",
    "dense_features",
)


def _write_member(
    archive: zipfile.ZipFile, name: str, array: "np.ndarray | Sequence[int]"
) -> None:
    """Append one ``.npy`` member to the open zip (the ``np.savez`` layout)."""
    with archive.open(name + ".npy", "w", force_zip64=True) as member:
        _npy_format.write_array(
            member, np.asarray(array), allow_pickle=False
        )


class BatchTraceWriter:
    """Stream full training batches to an ``.npz``, one step at a time.

    Unlike ``np.savez`` (which wants every array up front), the writer
    appends each step's arrays to the zip as they arrive, so recording a
    long stream holds exactly one batch in memory.  The result is a normal
    ``.npz``: ``np.load`` — and :class:`TraceReplaySource` — read it
    lazily, member by member.

    Usable as a context manager; closing writes the header (version, step
    count, geometry).  A trace with zero steps is refused at close, unless
    the ``with`` body is already unwinding an exception.  Writing goes
    through a sibling ``*.tmp`` file that is renamed into place only on a
    successful close — an aborted or failed recording never truncates an
    existing trace and never leaves a headerless ``.npz`` behind.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = _with_npz_suffix(path)
        self._tmp_path = self.path.with_name(self.path.name + ".tmp")
        self._archive: Optional[zipfile.ZipFile] = zipfile.ZipFile(
            self._tmp_path, "w", compression=zipfile.ZIP_DEFLATED
        )
        self.num_steps = 0
        self._rows_per_table: Optional[List[int]] = None
        self._dense_features: Optional[int] = None

    def append(self, data: CTRBatch) -> None:
        """Write one :class:`~repro.data.source.CTRBatch` as the next step."""
        if self._archive is None:
            raise ValueError("cannot append to a closed BatchTraceWriter")
        rows = [index.num_rows for index in data.indices]
        dense = np.asarray(data.dense)
        if dense.ndim != 2:
            raise ValueError(f"dense must be 2-D, got shape {dense.shape}")
        outputs = {index.num_outputs for index in data.indices}
        if len(outputs) > 1:
            # The format stores one num_outputs per step; a batch whose
            # tables disagree could not round-trip exactly, so refuse it
            # loudly instead of corrupting the replay.
            raise ValueError(
                "tables of one batch disagree on num_outputs "
                f"({sorted(outputs)}); batch traces require one batch size "
                "per step"
            )
        if self._rows_per_table is None:
            if not rows:
                raise ValueError("cannot record a batch with zero tables")
            self._rows_per_table = rows
            self._dense_features = int(dense.shape[1])
        elif rows != self._rows_per_table or dense.shape[1] != self._dense_features:
            raise ValueError(
                "batch geometry changed mid-trace: expected "
                f"{len(self._rows_per_table)} tables with rows "
                f"{self._rows_per_table} and {self._dense_features} dense "
                f"features"
            )
        step = self.num_steps
        _write_member(self._archive, f"dense_{step}", dense)
        _write_member(self._archive, f"labels_{step}", np.asarray(data.labels))
        _write_member(
            self._archive, f"outs_{step}", np.asarray(data.indices[0].num_outputs)
        )
        for table_id, index in enumerate(data.indices):
            _write_member(self._archive, f"src_{step}_{table_id}", index.src)
            _write_member(self._archive, f"dst_{step}_{table_id}", index.dst)
        self.num_steps += 1

    def close(self, _aborting: bool = False) -> None:
        """Finalize the header and publish the file (idempotent).

        On success the temp file is renamed over ``path`` atomically; on
        abort (or an empty trace) the temp file is removed and whatever
        previously lived at ``path`` is untouched.
        """
        if self._archive is None:
            return
        archive, self._archive = self._archive, None
        completed = False
        try:
            if self.num_steps == 0 and not _aborting:
                raise ValueError("cannot save an empty batch trace")
            if self.num_steps > 0 and not _aborting:
                _write_member(
                    archive, "batch_trace_version",
                    np.asarray(_BATCH_TRACE_VERSION),
                )
                _write_member(archive, "num_steps", np.asarray(self.num_steps))
                _write_member(
                    archive, "num_tables", np.asarray(len(self._rows_per_table))
                )
                _write_member(
                    archive, "rows_per_table", np.asarray(self._rows_per_table)
                )
                _write_member(
                    archive, "dense_features", np.asarray(self._dense_features)
                )
                completed = True
        finally:
            archive.close()
            if completed:
                self._tmp_path.replace(self.path)
            else:
                self._tmp_path.unlink(missing_ok=True)

    def __enter__(self) -> "BatchTraceWriter":
        return self

    def __exit__(self, exc_type: object, *exc_info: object) -> bool:
        # When the body is already raising, don't let the zero-step check
        # mask the original error.
        self.close(_aborting=exc_type is not None)
        return False


def record_trace(
    source: BatchSource,
    path: str | Path,
    batch: int,
    steps: int,
    rng: np.random.Generator,
) -> Path:
    """Draw ``steps`` batches from ``source`` and persist them as a batch trace.

    Stops early (without error) if the source exhausts after at least one
    batch; recording is constant-memory for any trace length.  Returns the
    written path.
    """
    if steps <= 0:
        raise ValueError(f"steps must be positive, got {steps}")
    batch_source = as_batch_source(source)
    with BatchTraceWriter(path) as writer:
        for _ in range(steps):
            try:
                writer.append(batch_source.next_batch(batch, rng))
            except SourceExhausted:
                break
        if writer.num_steps == 0:
            raise ValueError(
                "the source was exhausted before the first recorded batch"
            )
    return writer.path


class TraceReplaySource(BatchSource):
    """Replay a recorded batch trace, one step at a time, at constant memory.

    Opens the archive lazily (``np.load`` on an ``.npz`` decompresses
    members only when accessed), so replaying an N-step trace never
    materializes more than the current batch — construction touches only
    the header.  ``rng`` is ignored: the whole point is that the stream is
    exactly what was recorded, which is what makes a replayed synthetic
    trace train bit-identically to the direct synthetic run.

    One pass only: once :class:`~repro.data.source.SourceExhausted` is
    raised the source stays exhausted (construct a fresh one to replay
    again).
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._archive = np.load(self.path)
        if "batch_trace_version" not in self._archive.files:
            hint = (
                " (this looks like a save_trace index artifact; read those "
                "with load_trace)"
                if "num_tables" in self._archive.files
                else ""
            )
            self._archive.close()
            raise ValueError(f"{self.path} is not a repro batch trace{hint}")
        version = int(self._archive["batch_trace_version"])
        if version != _BATCH_TRACE_VERSION:
            self._archive.close()
            raise ValueError(
                f"{self.path} uses batch-trace version {version}, this "
                f"reader understands {_BATCH_TRACE_VERSION}"
            )
        self.num_steps = int(self._archive["num_steps"])
        self.num_tables = int(self._archive["num_tables"])
        self.rows_per_table = [
            int(r) for r in self._archive["rows_per_table"]
        ]
        self.dense_features = int(self._archive["dense_features"])
        self._cursor = 0

    def next_batch(
        self, batch: int | None, rng: np.random.Generator | None = None
    ) -> CTRBatch:
        """Return the next recorded step (``rng`` unused; ``None`` batch skips
        the size check)."""
        if self._archive is None or self._cursor >= self.num_steps:
            raise SourceExhausted(
                f"{self.path} is exhausted after {self.num_steps} steps"
            )
        step = self._cursor
        try:
            labels = self._archive[f"labels_{step}"]
            dense = self._archive[f"dense_{step}"]
            num_outputs = int(self._archive[f"outs_{step}"])
            indices = [
                IndexArray(
                    self._archive[f"src_{step}_{table_id}"],
                    self._archive[f"dst_{step}_{table_id}"],
                    num_rows=self.rows_per_table[table_id],
                    num_outputs=num_outputs,
                )
                for table_id in range(self.num_tables)
            ]
        except KeyError as missing:
            raise ValueError(
                f"{self.path} is truncated: missing array {missing}"
            ) from None
        if batch is not None and batch != labels.shape[0]:
            raise ValueError(
                f"step {step} of {self.path} recorded batch="
                f"{labels.shape[0]}, trainer asked for {batch}"
            )
        self._cursor += 1
        return CTRBatch(dense=dense, indices=indices, labels=labels)

    def close(self) -> None:
        if self._archive is not None:
            self._archive.close()
            self._archive = None
