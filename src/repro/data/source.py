"""The streaming batch data plane: ``BatchSource`` and its combinators.

Training in this repository is bound by how index and gradient data move —
the paper's whole premise — so batch *production* is a first-class
subsystem, not a hard-wired generator.  A :class:`BatchSource` produces
:class:`CTRBatch` mini-batches one at a time; the trainer
(:class:`~repro.runtime.trainer.FunctionalTrainer`) consumes any source
through the same two-method surface:

* :meth:`BatchSource.next_batch` — produce the next mini-batch (raising
  :class:`SourceExhausted` when a finite stream runs dry), and
* :meth:`BatchSource.close` — release whatever the source holds open.

Implementations in the package:

* :class:`~repro.data.generator.SyntheticCTRStream` — endless learnable
  synthetic generation (this module's protocol, that module's model);
* :class:`~repro.data.trace.TraceReplaySource` — file-backed, constant
  -memory replay of a recorded batch stream;
* :class:`CriteoFileSource` — a Criteo-style TSV/NPZ dataset file reader;

plus :class:`TakeSource`, the wrapper that bounds an endless stream.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Any, Iterator, List, Optional, Sequence

import numpy as np

from ..core.indexing import IndexArray

__all__ = [
    "CTRBatch",
    "SourceExhausted",
    "BatchSource",
    "as_batch_source",
    "TakeSource",
    "CriteoFileSource",
    "positive_int",
    "non_negative_int",
]


def positive_int(name: str, value: Any) -> int:
    """``value`` as an ``int``, or a ``ValueError`` naming the argument.

    Accepts Python and NumPy integers; rejects ``bool`` (``True`` would
    otherwise train one step), floats, strings and anything below 1.
    """
    return _int_at_least(name, value, 1, "positive")


def non_negative_int(name: str, value: Any) -> int:
    """:func:`positive_int`, but 0 is accepted."""
    return _int_at_least(name, value, 0, "non-negative")


def _int_at_least(name: str, value: Any, low: int, kind: str) -> int:
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, np.integer))
        or value < low
    ):
        raise ValueError(f"{name} must be a {kind} integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class CTRBatch:
    """One training mini-batch: dense features, sparse indices, click labels."""

    dense: np.ndarray
    indices: List[IndexArray]
    labels: np.ndarray

    @property
    def size(self) -> int:
        """Number of samples in the batch."""
        return int(self.labels.shape[0])


class SourceExhausted(Exception):
    """A finite :class:`BatchSource` has no more batches to produce.

    Trainers treat this as a clean early stop (the report's ``steps`` field
    records how many batches actually trained); iteration helpers treat it
    like ``StopIteration``.
    """


class BatchSource(abc.ABC):
    """Protocol every batch producer implements.

    Subclasses must set the three geometry attributes (trainers validate
    against them) and implement :meth:`next_batch`:

    ``num_tables``
        How many sparse features (embedding tables) each batch carries.
    ``rows_per_table``
        Per-table catalog sizes, ``len == num_tables``.
    ``dense_features``
        Width of the continuous input.

    ``next_batch(batch, rng)`` returns the next :class:`CTRBatch` or raises
    :class:`SourceExhausted`; ``rng`` drives whatever randomness the source
    has (file-backed sources simply ignore it).  Sources are drawn on the
    step loop's thread.
    """

    num_tables: int
    rows_per_table: List[int]
    dense_features: int

    @abc.abstractmethod
    def next_batch(self, batch: int, rng: np.random.Generator) -> CTRBatch:
        """Produce the next mini-batch of ``batch`` samples."""

    def batches(
        self, batch: int, count: int, rng: np.random.Generator
    ) -> Iterator[CTRBatch]:
        """Yield up to ``count`` mini-batches, stopping early on exhaustion."""
        for _ in range(count):
            try:
                yield self.next_batch(batch, rng)
            except SourceExhausted:
                return

    def close(self) -> None:
        """Release held resources (files, threads).  Default: nothing held."""

    def __enter__(self) -> "BatchSource":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        self.close()
        return False


def as_batch_source(stream: BatchSource) -> BatchSource:
    """``stream`` itself, or a ``TypeError`` when it is not a :class:`BatchSource`."""
    if isinstance(stream, BatchSource):
        return stream
    raise TypeError(f"{type(stream).__name__} is not a BatchSource")


class TakeSource(BatchSource):
    """Bound any source to at most ``max_batches`` batches.

    Turns the endless synthetic stream into a finite one — handy for
    exhaustion-path testing and for recording fixed-length traces.  The
    geometry is the inner source's, and closing closes it.
    """

    def __init__(self, source: BatchSource, max_batches: int) -> None:
        self.source = as_batch_source(source)
        self.num_tables = self.source.num_tables
        self.rows_per_table = list(self.source.rows_per_table)
        self.dense_features = self.source.dense_features
        self.max_batches = positive_int("max_batches", max_batches)
        self._taken = 0

    def next_batch(self, batch: int, rng: np.random.Generator) -> CTRBatch:
        if self._taken >= self.max_batches:
            raise SourceExhausted(
                f"TakeSource produced its {self.max_batches} batches"
            )
        data = self.source.next_batch(batch, rng)
        self._taken += 1
        return data

    def close(self) -> None:
        self.source.close()


class CriteoFileSource(BatchSource):
    """Criteo-style dataset file reader: streaming TSV or materialized NPZ.

    Two on-disk layouts are understood, chosen by suffix:

    * ``.tsv`` / ``.txt`` — the Criteo Kaggle line format: ``label`` TAB
      ``dense_features`` integer columns TAB ``num_tables`` hexadecimal
      categorical columns.  Lines are read one mini-batch at a time, so a
      multi-gigabyte file trains at constant memory.  Dense values get the
      standard ``log1p`` transform (missing → 0); categorical tokens hash
      into each table's row range (missing → row 0).
    * ``.npz`` — arrays ``dense`` (N, D), ``labels`` (N,), ``sparse``
      (N, T) one id per table per sample, and ``rows_per_table`` (T,).
      Loaded once and sliced per batch (a dataset file, not a batch trace —
      for constant-memory *trace* replay see
      :class:`~repro.data.trace.TraceReplaySource`).

    Both layouts produce one lookup per table per sample (Criteo's shape)
    and raise :class:`SourceExhausted` at end of file; the final batch may
    be smaller than requested.
    """

    def __init__(
        self,
        path: str | Path,
        num_tables: int = 26,
        rows_per_table: int | Sequence[int] = 100_000,
        dense_features: int = 13,
    ) -> None:
        self.path = Path(path)
        if isinstance(rows_per_table, (int, np.integer)):
            rows = [int(rows_per_table)] * num_tables
        else:
            rows = [int(r) for r in rows_per_table]
        self._npz_mode = self.path.suffix == ".npz"
        self._file: Optional[IO[str]] = None
        self._cursor = 0
        if self._npz_mode:
            with np.load(self.path) as archive:
                required = {"dense", "labels", "sparse", "rows_per_table"}
                missing = required - set(archive.files)
                if missing:
                    raise ValueError(
                        f"{self.path} is not a Criteo-style npz: missing "
                        f"{sorted(missing)}"
                    )
                self._dense = np.asarray(archive["dense"], dtype=np.float64)
                self._labels = np.asarray(archive["labels"], dtype=np.float64)
                self._sparse = np.asarray(archive["sparse"], dtype=np.int64)
                rows = [int(r) for r in np.asarray(archive["rows_per_table"])]
            if self._sparse.ndim != 2 or self._dense.ndim != 2:
                raise ValueError("sparse/dense arrays must be 2-D")
            samples = self._labels.shape[0]
            if self._dense.shape[0] != samples or self._sparse.shape[0] != samples:
                raise ValueError("dense/labels/sparse sample counts disagree")
            num_tables = self._sparse.shape[1]
            dense_features = self._dense.shape[1]
            if len(rows) != num_tables:
                raise ValueError(
                    f"rows_per_table lists {len(rows)} tables, sparse has "
                    f"{num_tables}"
                )
        else:
            # Validate before open() so a rejected config can't leak the fd.
            if num_tables <= 0 or dense_features <= 0:
                raise ValueError(
                    "num_tables and dense_features must be positive"
                )
            if len(rows) != num_tables:
                raise ValueError(
                    f"rows_per_table lists {len(rows)} tables, expected "
                    f"{num_tables}"
                )
            self._file = open(self.path, "r", encoding="utf-8")
        if num_tables <= 0 or dense_features <= 0:
            raise ValueError("num_tables and dense_features must be positive")
        self.num_tables = num_tables
        self.rows_per_table = rows
        self.dense_features = dense_features

    # ------------------------------------------------------------------
    # TSV parsing
    # ------------------------------------------------------------------
    def _hash_token(self, token: str, num_rows: int) -> int:
        if not token:
            return 0
        try:
            value = int(token, 16)
        except ValueError as error:
            raise ValueError(
                f"{self.path}: categorical token {token!r} is not hexadecimal"
            ) from error
        return value % num_rows

    def _parse_lines(self, lines: List[str]) -> CTRBatch:
        count = len(lines)
        expected = 1 + self.dense_features + self.num_tables
        dense = np.zeros((count, self.dense_features))
        labels = np.zeros(count)
        sparse = np.zeros((count, self.num_tables), dtype=np.int64)
        for row, line in enumerate(lines):
            fields = line.rstrip("\n").split("\t")
            if len(fields) != expected:
                raise ValueError(
                    f"{self.path}: line has {len(fields)} fields, expected "
                    f"{expected} (label + {self.dense_features} dense + "
                    f"{self.num_tables} categorical)"
                )
            labels[row] = float(fields[0])
            for column in range(self.dense_features):
                token = fields[1 + column]
                value = float(token) if token else 0.0
                dense[row, column] = np.log1p(max(value, 0.0))
            for table_id in range(self.num_tables):
                sparse[row, table_id] = self._hash_token(
                    fields[1 + self.dense_features + table_id],
                    self.rows_per_table[table_id],
                )
        return self._assemble(dense, sparse, labels)

    def _assemble(
        self, dense: np.ndarray, sparse: np.ndarray, labels: np.ndarray
    ) -> CTRBatch:
        count = labels.shape[0]
        dst = np.arange(count, dtype=np.int64)
        indices = [
            IndexArray(
                sparse[:, table_id],
                dst,
                num_rows=self.rows_per_table[table_id],
                num_outputs=count,
            )
            for table_id in range(self.num_tables)
        ]
        return CTRBatch(dense=dense, indices=indices, labels=labels)

    # ------------------------------------------------------------------
    # BatchSource surface
    # ------------------------------------------------------------------
    def next_batch(self, batch: int, rng: np.random.Generator) -> CTRBatch:
        batch = positive_int("batch", batch)
        if self._npz_mode:
            if self._cursor >= self._labels.shape[0]:
                raise SourceExhausted(f"{self.path} is fully consumed")
            stop = min(self._cursor + batch, self._labels.shape[0])
            window = slice(self._cursor, stop)
            self._cursor = stop
            return self._assemble(
                self._dense[window], self._sparse[window], self._labels[window]
            )
        if self._file is None:
            raise SourceExhausted(f"{self.path} is closed")
        lines = []
        for _ in range(batch):
            line = self._file.readline()
            if not line:
                break
            if line.strip():
                lines.append(line)
        if not lines:
            raise SourceExhausted(f"{self.path} is fully consumed")
        return self._parse_lines(lines)

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None
