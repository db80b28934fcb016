"""Autotuned dispatch: micro-benchmark backends per shape class, cache winners.

Which kernel implementation wins is shape-dependent — pooling factor and
row width decide whether a segment reduction, a bincount scatter-add, or a
compiled loop nest moves the most bytes per second (the observation MP-Rec
and RecNMP make for recommendation inference, applied here to training
kernels).  The :class:`Autotuner` quantizes every workload into a
:class:`ShapeClass` (log2 buckets of batch, pooling factor and embedding
dim, plus kernel and dtype), runs each candidate backend once on a
synthetic probe workload representative of that class, and caches the
winner; :class:`AutoBackend` is the ``auto`` policy the trainers default
to — a registered backend that classifies every call and delegates to the
cached winner.

Guarantees:

* **probe cost is bounded** — probes are capped at
  :attr:`Autotuner.max_probe_lookups` lookups and measured best-of-k after
  one warmup call (which also absorbs any JIT compilation), once per shape
  class per process;
* **no oracle regressions** — backends marked ``autotune_candidate =
  False`` (the pure-Python reference) are never timed nor selected;
* **degenerate registries short-circuit** — with a single candidate (the
  common numba-less install) ``auto`` delegates to it with zero probes, so
  defaulting the trainers to ``auto`` costs nothing there;
* **numerics are unchanged** — every candidate is interchangeable by the
  differential-test contract, so autotuning can only move wall-clock,
  never results.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

import numpy as np
from numpy.typing import DTypeLike

from ..core.casting import CastedIndex
from ..core.indexing import IndexArray
from .base import KernelBackend
from .registry import available_backends, get_backend, register_backend

if TYPE_CHECKING:
    from ..obs.metrics import MetricRegistry

__all__ = [
    "AutoBackend",
    "Autotuner",
    "KERNEL_NAMES",
    "STEP_CACHE_VERSION",
    "ShapeClass",
    "StepAutotuner",
    "StepShapeClass",
]

#: The kernels the autotuner distinguishes between.
KERNEL_NAMES = (
    "gather_reduce",
    "casted_gather_reduce",
    "cast_indices",
    "expand_coalesce",
    "scatter_update",
)


def _bucket(value: int) -> int:
    """Log2 bucket of a non-negative size (0 → 0, 1 → 1, 2-3 → 2, ...)."""
    return int(value).bit_length()


def _representative(bucket: int) -> int:
    """Smallest size in a bucket — the probe workload's dimension."""
    return 1 << max(bucket - 1, 0)


@dataclass(frozen=True)
class ShapeClass:
    """The quantized workload key one autotune decision covers.

    ``batch_bucket`` buckets the number of reduced outputs, ``pooling_bucket``
    the average lookups per output, ``dim_bucket`` the vector width — the
    three axes the ISSUE's motivating papers identify as deciding which
    implementation wins.
    """

    kernel: str
    batch_bucket: int
    pooling_bucket: int
    dim_bucket: int
    dtype: str

    @classmethod
    def classify(
        cls, kernel: str, num_outputs: int, num_lookups: int, dim: int,
        dtype: "DTypeLike",
    ) -> "ShapeClass":
        if kernel not in KERNEL_NAMES:
            raise ValueError(
                f"unknown kernel {kernel!r}; expected one of {KERNEL_NAMES}"
            )
        pooling = (num_lookups + max(num_outputs, 1) - 1) // max(num_outputs, 1)
        return cls(
            kernel=kernel,
            batch_bucket=_bucket(num_outputs),
            pooling_bucket=_bucket(pooling),
            dim_bucket=_bucket(dim),
            dtype=np.dtype(dtype).name,
        )

    def representative_shape(self, max_lookups: int) -> Tuple[int, int, int]:
        """A concrete ``(batch, pooling, dim)`` inside this class for probing.

        The probe stays faithful to the class's proportions but is capped at
        ``max_lookups`` total gathers (shrinking the batch axis first, then
        the pooling axis for single-output monster bags) so no single
        autotune decision costs more than a bounded micro-benchmark.
        """
        batch = _representative(self.batch_bucket)
        pooling = min(_representative(self.pooling_bucket), max_lookups)
        dim = _representative(self.dim_bucket)
        if batch * pooling > max_lookups:
            batch = max(1, max_lookups // pooling)
        return batch, pooling, dim


class Autotuner:
    """Measure registered candidate backends per shape class; cache winners.

    Parameters
    ----------
    candidates:
        Backend instances to choose among.  Defaults to every *available*
        registered backend whose ``autotune_candidate`` flag is set (i.e.
        everything except the reference oracle and ``auto`` itself).
    repeats:
        Timed repetitions per candidate; the best (minimum) is kept.  One
        untimed warmup call always precedes them, absorbing lazy JIT
        compilation so compiled backends are judged on steady-state speed.
    max_probe_lookups:
        Upper bound on a probe workload's total lookups.
    seed:
        Probe-workload RNG seed (decisions are deterministic given the
        environment's relative kernel speeds).
    """

    def __init__(
        self,
        candidates: Optional[Sequence[KernelBackend]] = None,
        repeats: int = 3,
        max_probe_lookups: int = 1 << 15,
        seed: int = 0,
    ) -> None:
        if repeats <= 0:
            raise ValueError(f"repeats must be positive, got {repeats}")
        if max_probe_lookups <= 0:
            raise ValueError(
                f"max_probe_lookups must be positive, got {max_probe_lookups}"
            )
        self._explicit_candidates = (
            list(candidates) if candidates is not None else None
        )
        self.repeats = repeats
        self.max_probe_lookups = max_probe_lookups
        self.seed = seed
        self._choices: Dict[ShapeClass, KernelBackend] = {}
        self._timings: Dict[ShapeClass, Dict[str, float]] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Candidate enumeration
    # ------------------------------------------------------------------
    def candidates(self) -> List[KernelBackend]:
        """The backends a decision chooses among (resolved lazily so late
        registrations and availability changes are honored)."""
        if self._explicit_candidates is not None:
            return list(self._explicit_candidates)
        return [
            get_backend(name)
            for name in available_backends()
            if get_backend(name).autotune_candidate
        ]

    # ------------------------------------------------------------------
    # Decisions
    # ------------------------------------------------------------------
    def backend_for(self, shape: ShapeClass) -> KernelBackend:
        """The cached winner for ``shape``, measuring on first sight."""
        with self._lock:
            if shape not in self._choices:
                self._choices[shape] = self._decide(shape)
            return self._choices[shape]

    def decisions(self) -> Dict[ShapeClass, str]:
        """Every decision taken so far: shape class → winning backend name."""
        with self._lock:
            return {shape: backend.name for shape, backend in self._choices.items()}

    def timings(self) -> Dict[ShapeClass, Dict[str, float]]:
        """Probe seconds per candidate for every *measured* decision.

        Single-candidate short-circuits appear in :meth:`decisions` but not
        here — nothing was timed for them.
        """
        with self._lock:
            return {shape: dict(times) for shape, times in self._timings.items()}

    def publish_metrics(self, metrics: "MetricRegistry") -> None:
        """Record every tuning decision (and probe timing) as metric series.

        One ``autotune.decision{...}`` counter per shape class labeled with
        the winning engine, plus ``autotune.probe_seconds{...,backend=...}``
        gauges for each measured candidate — single-candidate
        short-circuits publish a decision but no probe timings, mirroring
        :meth:`timings`.
        """
        timings = self.timings()
        for shape, winner in sorted(
            self.decisions().items(), key=lambda item: str(item[0])
        ):
            labels = {
                "kernel": shape.kernel,
                "batch_bucket": shape.batch_bucket,
                "pooling_bucket": shape.pooling_bucket,
                "dim_bucket": shape.dim_bucket,
                "dtype": shape.dtype,
            }
            metrics.counter("autotune.decision", winner=winner,
                            **labels).inc()
            for backend_name, seconds in sorted(
                timings.get(shape, {}).items()
            ):
                metrics.gauge(
                    "autotune.probe_seconds", backend=backend_name, **labels
                ).set(seconds)

    def _decide(self, shape: ShapeClass) -> KernelBackend:
        candidates = self.candidates()
        if not candidates:
            return get_backend("vectorized")
        if len(candidates) == 1:
            return candidates[0]
        probe = _ProbeWorkload.build(shape, self.max_probe_lookups, self.seed)
        times: Dict[str, float] = {}
        best_backend = candidates[0]
        best_seconds = float("inf")
        for backend in candidates:
            seconds = self._measure(backend, shape.kernel, probe)
            times[backend.name] = seconds
            if seconds < best_seconds:
                best_backend, best_seconds = backend, seconds
        self._timings[shape] = times
        return best_backend

    def _measure(
        self, backend: KernelBackend, kernel: str, probe: "_ProbeWorkload"
    ) -> float:
        run = probe.runner(backend, kernel)
        run()  # warmup: page in caches, trigger any lazy JIT compilation
        best = float("inf")
        for _ in range(self.repeats):
            start = time.perf_counter()
            run()
            best = min(best, time.perf_counter() - start)
        return best


@dataclass(frozen=True)
class _ProbeWorkload:
    """Synthetic arrays representative of one shape class."""

    index: IndexArray
    table: np.ndarray
    gradients: np.ndarray
    cast: CastedIndex
    scatter_values: np.ndarray

    @classmethod
    def build(
        cls, shape: ShapeClass, max_lookups: int, seed: int
    ) -> "_ProbeWorkload":
        batch, pooling, dim = shape.representative_shape(max_lookups)
        lookups = batch * pooling
        num_rows = min(max(64, 4 * lookups), 1 << 18)
        rng = np.random.default_rng(seed)
        index = IndexArray(
            rng.integers(0, num_rows, lookups),
            np.repeat(np.arange(batch), pooling),
            num_rows=num_rows,
            num_outputs=batch,
        )
        dtype = np.dtype(shape.dtype)
        table = rng.standard_normal((num_rows, dim)).astype(dtype)
        gradients = rng.standard_normal((batch, dim)).astype(dtype)
        cast = get_backend("vectorized").cast_indices(index)
        scatter_values = rng.standard_normal((cast.num_coalesced, dim)).astype(dtype)
        return cls(
            index=index,
            table=table,
            gradients=gradients,
            cast=cast,
            scatter_values=scatter_values,
        )

    def runner(
        self, backend: KernelBackend, kernel: str
    ) -> Callable[[], object]:
        """A zero-argument closure running ``kernel`` once on this probe."""
        if kernel == "gather_reduce":
            return lambda: backend.gather_reduce(self.table, self.index)
        if kernel == "casted_gather_reduce":
            return lambda: backend.casted_gather_reduce(self.gradients, self.cast)
        if kernel == "cast_indices":
            return lambda: backend.cast_indices(self.index)
        if kernel == "expand_coalesce":
            return lambda: backend.expand_coalesce(self.index, self.gradients)
        if kernel == "scatter_update":
            # In-place updates drift the table's values across repeats; the
            # cost per call is unchanged, which is all the probe measures.
            return lambda: backend.scatter_update(
                self.table, self.cast.rows, self.scatter_values, lr=1e-3
            )
        raise ValueError(f"unknown kernel {kernel!r}")


@register_backend
class AutoBackend(KernelBackend):
    """The ``auto`` policy: classify every call, delegate to the tuned winner.

    A registered backend like any other (so ``backend="auto"`` works
    everywhere a name does), but never a candidate itself.  The registry
    caches one instance per process, so winners learned during a trainer's
    warmup serve every later trainer and experiment in the run.
    """

    name = "auto"
    autotune_candidate = False

    def __init__(self, tuner: Optional[Autotuner] = None) -> None:
        self.tuner = tuner if tuner is not None else Autotuner()

    def _delegate(
        self, kernel: str, num_outputs: int, num_lookups: int, dim: int,
        dtype: "DTypeLike",
    ) -> KernelBackend:
        return self.tuner.backend_for(
            ShapeClass.classify(kernel, num_outputs, num_lookups, dim, dtype)
        )

    def gather_reduce(
        self,
        table: np.ndarray,
        index: IndexArray,
        out: np.ndarray | None = None,
        weights: np.ndarray | None = None,
    ) -> np.ndarray:
        backend = self._delegate(
            "gather_reduce",
            index.num_outputs,
            index.num_lookups,
            table.shape[1],
            table.dtype,
        )
        return backend.gather_reduce(table, index, out=out, weights=weights)

    def casted_gather_reduce(
        self, gradients: np.ndarray, casted: CastedIndex
    ) -> Tuple[np.ndarray, np.ndarray]:
        backend = self._delegate(
            "casted_gather_reduce",
            casted.num_coalesced,
            casted.num_lookups,
            gradients.shape[1],
            gradients.dtype,
        )
        return backend.casted_gather_reduce(gradients, casted)

    def cast_indices(self, index: IndexArray) -> CastedIndex:
        backend = self._delegate(
            "cast_indices",
            index.num_outputs,
            index.num_lookups,
            1,
            np.int64,
        )
        return backend.cast_indices(index)

    def expand_coalesce(
        self, index: IndexArray, gradients: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        backend = self._delegate(
            "expand_coalesce",
            index.num_outputs,
            index.num_lookups,
            gradients.shape[1],
            gradients.dtype,
        )
        return backend.expand_coalesce(index, gradients)

    def scatter_update(
        self,
        table: np.ndarray,
        rows: np.ndarray,
        gradients: np.ndarray,
        lr: float = 1.0,
    ) -> np.ndarray:
        backend = self._delegate(
            "scatter_update",
            table.shape[0],
            int(rows.size),
            table.shape[1],
            table.dtype,
        )
        return backend.scatter_update(table, rows, gradients, lr=lr)


# ----------------------------------------------------------------------
# Whole-step autotuning
# ----------------------------------------------------------------------

#: Version stamp of the step-decision JSON cache file (``--autotune-cache``).
STEP_CACHE_VERSION = 1

#: Every key the step-decision cache file may contain: the two top-level
#: keys plus the two per-decision keys.  ``repro-lint``'s
#: registry-consistency rule checks the reader/writer below against this
#: tuple, so adding a field to the file format forces the schema constant
#: (and the lint expectation) to move in lockstep.
STEP_CACHE_SCHEMA = ("version", "decisions", "winner", "probe_seconds")


@dataclass(frozen=True)
class StepShapeClass:
    """The quantized workload key one *whole-step* decision covers.

    Per-kernel shape classes miss cross-kernel effects: the backend that
    wins the casted gather-reduce in isolation can lose a full train step
    to cache pollution from the interleaved MLP GEMMs and optimizer
    scatter.  A step class therefore keys on everything that shapes one
    engine iteration: batch and pooling and dim (log2-bucketed like
    :class:`ShapeClass`) plus the exact table count and shard count.
    """

    batch_bucket: int
    pooling_bucket: int
    dim_bucket: int
    num_tables: int
    num_shards: int

    @classmethod
    def classify(
        cls,
        batch: int,
        lookups_per_sample: int,
        dim: int,
        num_tables: int,
        num_shards: int = 1,
    ) -> "StepShapeClass":
        if batch <= 0:
            raise ValueError(f"batch must be positive, got {batch}")
        if num_tables <= 0:
            raise ValueError(f"num_tables must be positive, got {num_tables}")
        pooling = max(1, lookups_per_sample // num_tables)
        return cls(
            batch_bucket=_bucket(batch),
            pooling_bucket=_bucket(pooling),
            dim_bucket=_bucket(dim),
            num_tables=int(num_tables),
            num_shards=max(1, int(num_shards)),
        )

    def key(self) -> str:
        """Stable string form used as the JSON cache-file key."""
        return (
            f"batch{self.batch_bucket}-pool{self.pooling_bucket}"
            f"-dim{self.dim_bucket}-tables{self.num_tables}"
            f"-shards{self.num_shards}"
        )

    def representative(
        self, max_batch: int, max_pooling: int, max_dim: int
    ) -> Tuple[int, int, int]:
        """A concrete ``(batch, pooling, dim)`` for probing, capped so one
        probe step stays a micro-benchmark even for monster classes."""
        return (
            min(_representative(self.batch_bucket), max_batch),
            min(_representative(self.pooling_bucket), max_pooling),
            min(_representative(self.dim_bucket), max_dim),
        )


class StepAutotuner:
    """Pick the kernel backend for a *whole train step*, end to end.

    Probes by running real engine steps — a throwaway
    :class:`~repro.runtime.trainer.FunctionalTrainer` at a capped
    representative shape, one per candidate backend, timed best-of-k after
    a warmup step (the same de-noising discipline as :class:`Autotuner`) —
    so the decision reflects the full draw/cast/forward/backward/optimize
    interleaving, not a kernel in a vacuum.

    Decisions persist to a JSON cache file (CLI flag ``--autotune-cache``)
    with the :data:`STEP_CACHE_SCHEMA` layout, so repeated CLI runs skip
    re-probing; they publish through the existing ``autotune.decision``
    metric series with ``kernel="step"``.
    """

    #: Probe caps: the representative step is clamped to these axes.
    MAX_PROBE_BATCH = 64
    MAX_PROBE_POOLING = 32
    MAX_PROBE_DIM = 64
    PROBE_ROWS = 512

    def __init__(
        self,
        candidates: Optional[Sequence[str]] = None,
        repeats: int = 3,
        probe_steps: int = 2,
        seed: int = 0,
        cache_path: "str | Path | None" = None,
    ) -> None:
        if repeats <= 0:
            raise ValueError(f"repeats must be positive, got {repeats}")
        if probe_steps <= 0:
            raise ValueError(f"probe_steps must be positive, got {probe_steps}")
        self._explicit_candidates = (
            list(candidates) if candidates is not None else None
        )
        self.repeats = repeats
        self.probe_steps = probe_steps
        self.seed = seed
        self.cache_path = Path(cache_path) if cache_path is not None else None
        self._choices: Dict[StepShapeClass, str] = {}
        self._timings: Dict[StepShapeClass, Dict[str, float]] = {}
        self._lock = threading.Lock()
        if self.cache_path is not None:
            self.load_cache()

    # ------------------------------------------------------------------
    # Candidates
    # ------------------------------------------------------------------
    def candidate_names(self) -> List[str]:
        """Backend names a step decision chooses among (never ``auto``
        itself, never non-candidates like the reference oracle)."""
        if self._explicit_candidates is not None:
            return list(self._explicit_candidates)
        return [
            name
            for name in available_backends()
            if get_backend(name).autotune_candidate
        ]

    # ------------------------------------------------------------------
    # Decisions
    # ------------------------------------------------------------------
    def backend_for(self, shape: StepShapeClass) -> str:
        """The winning backend *name* for ``shape`` (measured on first
        sight, then cached in memory and — when configured — on disk)."""
        with self._lock:
            if shape not in self._choices:
                self._choices[shape] = self._decide(shape)
                if self.cache_path is not None:
                    self.save_cache()
            return self._choices[shape]

    def decisions(self) -> Dict[StepShapeClass, str]:
        with self._lock:
            return dict(self._choices)

    def timings(self) -> Dict[StepShapeClass, Dict[str, float]]:
        """Probe seconds per candidate for every *measured* decision
        (cache hits and single-candidate short-circuits have none)."""
        with self._lock:
            return {shape: dict(times) for shape, times in self._timings.items()}

    def publish_metrics(self, metrics: "MetricRegistry") -> None:
        """Mirror :meth:`Autotuner.publish_metrics` on the same series,
        with ``kernel="step"`` distinguishing whole-step decisions."""
        timings = self.timings()
        for shape, winner in sorted(
            self.decisions().items(), key=lambda item: str(item[0])
        ):
            labels = {
                "kernel": "step",
                "batch_bucket": shape.batch_bucket,
                "pooling_bucket": shape.pooling_bucket,
                "dim_bucket": shape.dim_bucket,
                "dtype": f"tables{shape.num_tables}-shards{shape.num_shards}",
            }
            metrics.counter("autotune.decision", winner=winner, **labels).inc()
            for backend_name, seconds in sorted(timings.get(shape, {}).items()):
                metrics.gauge(
                    "autotune.probe_seconds", backend=backend_name, **labels
                ).set(seconds)

    def _decide(self, shape: StepShapeClass) -> str:
        names = self.candidate_names()
        if not names:
            return "vectorized"
        if len(names) == 1:
            return names[0]
        times: Dict[str, float] = {}
        best_name, best_seconds = names[0], float("inf")
        for name in names:
            seconds = self._measure(name, shape)
            times[name] = seconds
            if seconds < best_seconds:
                best_name, best_seconds = name, seconds
        self._timings[shape] = times
        return best_name

    def _measure(self, backend_name: str, shape: StepShapeClass) -> float:
        """Best-of-k wall clock of ``probe_steps`` real engine steps."""
        batch, pooling, dim = shape.representative(
            self.MAX_PROBE_BATCH, self.MAX_PROBE_POOLING, self.MAX_PROBE_DIM
        )
        trainer = self._build_probe_trainer(backend_name, shape, pooling, dim)
        run = 0
        trainer.train(  # warmup: page in tables, settle allocator
            batch, self.probe_steps, np.random.default_rng(self.seed + run)
        )
        best = float("inf")
        for run in range(1, self.repeats + 1):
            rng = np.random.default_rng(self.seed + run)
            start = time.perf_counter()
            trainer.train(batch, self.probe_steps, rng)
            best = min(best, time.perf_counter() - start)
        return best

    def _build_probe_trainer(
        self, backend_name: str, shape: StepShapeClass, pooling: int, dim: int
    ) -> "object":
        # Deferred imports: backends must stay importable without the model
        # and runtime layers (which themselves import backends).
        from ..data.generator import SyntheticCTRStream
        from ..model.configs import RM1
        from ..model.dlrm import DLRM
        from ..model.optim import SGD
        from ..runtime.trainer import FunctionalTrainer

        config = RM1.with_overrides(
            num_tables=shape.num_tables,
            gathers_per_table=pooling,
            rows_per_table=self.PROBE_ROWS,
            embedding_dim=dim,
            bottom_mlp=(8, dim),
            top_mlp=(8, 1),
        )
        model = DLRM(config, rng=np.random.default_rng(self.seed))
        stream = SyntheticCTRStream(
            num_tables=shape.num_tables,
            num_rows=self.PROBE_ROWS,
            lookups_per_sample=pooling,
            dense_features=config.dense_features,
            seed=self.seed,
        )
        return FunctionalTrainer(
            model, stream, SGD(lr=1e-3),
            num_shards=shape.num_shards, backend=backend_name,
        )

    # ------------------------------------------------------------------
    # The JSON cache file
    # ------------------------------------------------------------------
    def load_cache(self) -> int:
        """Merge decisions from :attr:`cache_path`; returns how many loaded.

        A missing file is an empty cache; a malformed one raises
        ``ValueError`` (the CLI maps that to exit 2).
        """
        if self.cache_path is None or not self.cache_path.exists():
            return 0
        try:
            payload = json.loads(self.cache_path.read_text())
        except (OSError, json.JSONDecodeError) as error:
            raise ValueError(
                f"autotune cache {self.cache_path} is not valid JSON: {error}"
            ) from None
        if not isinstance(payload, dict) or payload.get("version") != STEP_CACHE_VERSION:
            raise ValueError(
                f"autotune cache {self.cache_path} has unsupported layout; "
                f"expected version {STEP_CACHE_VERSION}"
            )
        decisions = payload.get("decisions")
        if not isinstance(decisions, dict):
            raise ValueError(
                f"autotune cache {self.cache_path} is missing its "
                "'decisions' table"
            )
        loaded = 0
        with self._lock:
            for key, entry in decisions.items():
                shape = _parse_step_key(key)
                if shape is None or not isinstance(entry, dict):
                    raise ValueError(
                        f"autotune cache {self.cache_path} holds a malformed "
                        f"decision {key!r}"
                    )
                winner = entry.get("winner")
                if not isinstance(winner, str):
                    raise ValueError(
                        f"autotune cache {self.cache_path} decision {key!r} "
                        "names no winner"
                    )
                self._choices[shape] = winner
                probe_seconds = entry.get("probe_seconds")
                if isinstance(probe_seconds, dict):
                    self._timings[shape] = {
                        str(name): float(seconds)
                        for name, seconds in probe_seconds.items()
                    }
                loaded += 1
        return loaded

    def save_cache(self) -> None:
        """Write every decision to :attr:`cache_path`, atomically.

        The payload goes to a temporary file in the same directory and is
        renamed over the cache, so a reader — or a second process writing
        the same path — sees the previous file or the new one, never a
        truncated one; a write that fails leaves the previous file in
        place.  Racing writers still resolve last-writer-wins.
        """
        if self.cache_path is None:
            return
        payload = {
            "version": STEP_CACHE_VERSION,
            "decisions": {
                shape.key(): {
                    "winner": winner,
                    "probe_seconds": self._timings.get(shape, {}),
                }
                for shape, winner in sorted(
                    self._choices.items(), key=lambda item: item[0].key()
                )
            },
        }
        text = json.dumps(payload, indent=2, sort_keys=True)
        directory = self.cache_path.parent
        directory.mkdir(parents=True, exist_ok=True)
        handle, scratch = tempfile.mkstemp(
            dir=directory, prefix=self.cache_path.name + ".", suffix=".tmp"
        )
        try:
            with os.fdopen(handle, "w") as stream:
                stream.write(text)
            os.replace(scratch, self.cache_path)
        finally:
            Path(scratch).unlink(missing_ok=True)


def _parse_step_key(key: str) -> Optional[StepShapeClass]:
    """Inverse of :meth:`StepShapeClass.key`; ``None`` when malformed."""
    import re

    match = re.fullmatch(
        r"batch(\d+)-pool(\d+)-dim(\d+)-tables(\d+)-shards(\d+)", key
    )
    if match is None:
        return None
    b, p, d, t, s = (int(group) for group in match.groups())
    return StepShapeClass(
        batch_bucket=b, pooling_bucket=p, dim_bucket=d,
        num_tables=t, num_shards=s,
    )
