"""Executed hot-row embedding cache: RecNMP's RankCache idea, replayed.

:mod:`repro.sim.cache` *models* a hot-row cache analytically — ideal
placement, hit rate = the popularity distribution's head mass within
capacity.  This module *executes* the idea on the index stream: a
:class:`HotRowCache` runs a genuine replacement policy (LRU or LFU) over
the row ids a table's gathers would touch, measuring the hit rate an
actual software-managed cache would achieve — cold start, replacement
churn and all.  :func:`replay_hit_counts` feeds it a stream of batches,
one cache per table, the way RecNMP profiles hot rows offline from traces:
the hit rate is a function of the ids alone, so no model has to train for
it.

The two views cross-check each other: on a long i.i.d. skewed stream an
executed LFU cache converges toward the analytic
:class:`~repro.sim.cache.CachedCPUModel` prediction from below (LFU
approximates keep-the-hottest; the analytic number assumes it perfectly),
while LRU trails further under heavy skew because recency is a weaker
proxy for popularity than frequency.  The documented agreement tolerance
lives with the ``cache`` experiment
(:data:`repro.experiments.hotcache.HIT_RATE_TOLERANCE`) and is enforced with
pinned seeds by ``tests/model/test_hot_cache.py::TestAnalyticCrosscheck``.

The cache tracks *row ids*, not vectors: serving a hit from a separate
buffer would move the same bytes through the same NumPy kernels on a
single-memory host, so a cache would leave the gather's numerics untouched
— what it adds is a measured, policy-faithful hit rate the analytic models
can be validated against (and, on real tiered memory, the residency
decision itself).
"""

from __future__ import annotations

import heapq
from collections import OrderedDict, defaultdict
from typing import Dict, Iterable, List, Sequence, Tuple, TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from ..core.indexing import IndexArray

__all__ = ["HotRowCache", "replay_hit_counts"]


class HotRowCache:
    """A software-managed cache of embedding-table rows, executed per access.

    Parameters
    ----------
    capacity_rows:
        Maximum resident rows (per table — :func:`replay_hit_counts` keeps
        one cache per table).
    policy:
        ``"lru"`` — evict the least recently used row; ``"lfu"`` — evict
        the least frequently used row (ties broken oldest-first).

    Statistics (``hits`` / ``accesses`` / :attr:`hit_rate`) accumulate
    across :meth:`access` calls; :meth:`reset_stats` clears the counters
    while keeping the resident set, so steady-state hit rates can be
    measured after a warm-up phase.
    """

    POLICIES = ("lru", "lfu")

    def __init__(self, capacity_rows: int, policy: str = "lru") -> None:
        if capacity_rows <= 0:
            raise ValueError(
                f"capacity_rows must be positive, got {capacity_rows}"
            )
        if policy not in self.POLICIES:
            raise ValueError(
                f"policy must be one of {self.POLICIES}, got {policy!r}"
            )
        self.capacity_rows = int(capacity_rows)
        self.policy = policy
        self.hits = 0
        self.accesses = 0
        # LRU state: insertion/recency-ordered resident set.
        self._lru: "OrderedDict[int, None]" = OrderedDict()
        # LFU state: resident row -> frequency, plus a lazy min-heap of
        # (frequency, tick, row) snapshots (stale entries skipped on pop).
        self._counts: Dict[int, int] = {}
        self._heap: List[Tuple[int, int, int]] = []
        self._tick = 0

    # ------------------------------------------------------------------
    # Policies (single access)
    # ------------------------------------------------------------------
    def _access_lru(self, row: int) -> bool:
        lru = self._lru
        if row in lru:
            lru.move_to_end(row)
            return True
        lru[row] = None
        if len(lru) > self.capacity_rows:
            lru.popitem(last=False)
        return False

    def _compact_heap(self) -> None:
        """Rebuild the lazy heap from live entries only.

        Hit-heavy streams push one snapshot per access but pop stale ones
        only during evictions, so without compaction the heap would grow
        with the access count instead of the capacity.  Rebuilding keeps
        residency intact; tie ticks are reassigned in residency-set order.
        """
        self._heap = [
            (frequency, tick, row)
            for tick, (row, frequency) in enumerate(self._counts.items())
        ]
        heapq.heapify(self._heap)
        self._tick = len(self._heap)

    def _access_lfu(self, row: int) -> bool:
        counts = self._counts
        frequency = counts.get(row)
        if frequency is not None:
            counts[row] = frequency + 1
            heapq.heappush(self._heap, (frequency + 1, self._tick, row))
            self._tick += 1
            if len(self._heap) > max(64, 4 * self.capacity_rows):
                self._compact_heap()
            return True
        if len(counts) >= self.capacity_rows:
            # Pop until a live snapshot (frequency still current) surfaces.
            while self._heap:
                snapshot_freq, _, victim = heapq.heappop(self._heap)
                if counts.get(victim) == snapshot_freq:
                    del counts[victim]
                    break
        counts[row] = 1
        heapq.heappush(self._heap, (1, self._tick, row))
        self._tick += 1
        return False

    # ------------------------------------------------------------------
    # Public surface
    # ------------------------------------------------------------------
    def access(self, row_ids: "np.ndarray | Sequence[int]") -> int:
        """Run the replacement policy over ``row_ids`` in stream order.

        Returns the number of hits among these accesses (also accumulated
        into :attr:`hits` / :attr:`accesses`).  Row order matters — within
        a batch, a row's second lookup hits the entry its first lookup
        installed, exactly as hardware would see it.
        """
        rows = np.asarray(row_ids).ravel()
        policy = self._access_lru if self.policy == "lru" else self._access_lfu
        batch_hits = 0
        for row in rows.tolist():
            batch_hits += policy(row)
        self.hits += batch_hits
        self.accesses += int(rows.size)
        return batch_hits

    @property
    def hit_rate(self) -> float:
        """Measured fraction of accesses served from the cache so far."""
        if self.accesses == 0:
            return 0.0
        return self.hits / self.accesses

    @property
    def resident_rows(self) -> int:
        """Rows currently held (≤ ``capacity_rows``)."""
        return len(self._lru) if self.policy == "lru" else len(self._counts)

    def reset_stats(self) -> None:
        """Zero the hit/access counters, keeping the resident set warm."""
        self.hits = 0
        self.accesses = 0

    def clear(self) -> None:
        """Drop every resident row and zero the counters (cold restart)."""
        self.reset_stats()
        self._lru.clear()
        self._counts.clear()
        self._heap.clear()
        self._tick = 0

    def __repr__(self) -> str:
        return (
            f"HotRowCache(capacity_rows={self.capacity_rows}, "
            f"policy={self.policy!r}, resident={self.resident_rows}, "
            f"hit_rate={self.hit_rate:.3f})"
        )


def replay_hit_counts(
    batches: "Iterable[Sequence[IndexArray]]",
    capacity_rows: int,
    policy: str = "lru",
) -> Tuple[int, int]:
    """Replay an index stream through one cold cache per table.

    ``batches`` yields each step's per-table index arrays (a
    :class:`~repro.data.source.CTRBatch`'s ``indices``); every table's
    ``src`` row ids go to that table's :class:`HotRowCache` in stream
    order.  Returns ``(hits, accesses)`` summed over the tables.
    """
    caches: Dict[int, HotRowCache] = defaultdict(
        lambda: HotRowCache(capacity_rows, policy)
    )
    for indices in batches:
        for table, index in enumerate(indices):
            caches[table].access(index.src)
    return (
        sum(cache.hits for cache in caches.values()),
        sum(cache.accesses for cache in caches.values()),
    )
