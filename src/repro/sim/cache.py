"""Hot-row embedding cache model (the related-work alternative).

Prior NMP work for recommendation *inference* (RecNMP's RankCache, Section
II-D) exploits the skew of Figure 5(a) by pinning the hottest embedding
rows in a fast buffer.  This module models that idea applied to training on
the host: a software-managed cache of the top-``capacity_rows`` rows serves
gather and scatter hits at cache bandwidth, misses go to DRAM.

It exists to quantify a design question the paper's framing raises: caching
accelerates the primitives that are *already* the cheap ones (gather-reduce
and scatter scale with locality), while the dominant expand-coalesce
bottleneck is insensitive to row locality — its traffic scales with ``n``
no matter how hot the rows are.  Tensor Casting attacks exactly that
bottleneck, so the two techniques compose rather than compete; the ablation
bench (``bench_ablation_hot_cache.py``) measures both separately and
stacked.

The analytic hit rate here assumes ideal placement; its *executed*
counterpart — :class:`~repro.model.hot_cache.HotRowCache`, a real LRU/LFU
run over a replayed index stream — is cross-checked against this model
on the same workload by the ``cache`` experiment
(:mod:`repro.experiments.hotcache`), and held within a documented
tolerance with pinned seeds by ``tests/model/test_hot_cache.py::TestAnalyticCrosscheck``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core import traffic as traffic_model
from ..data.distributions import LookupDistribution
from .cpu import CPUModel
from .specs import CPUSpec

__all__ = ["HotRowCacheSpec", "CachedCPUModel"]


@dataclass(frozen=True)
class HotRowCacheSpec:
    """Geometry and speed of the hot-row cache.

    ``capacity_rows`` is per table; the ideal-placement assumption (the
    hottest rows are pinned) makes the modeled hit rate the distribution's
    top-``capacity`` probability mass — an upper bound for any real
    replacement policy, which is the right bound for a does-it-even-help
    ablation.
    """

    capacity_rows: int = 100_000
    hit_bandwidth: float = 250e9

    def __post_init__(self) -> None:
        if self.capacity_rows <= 0:
            raise ValueError("capacity_rows must be positive")
        if self.hit_bandwidth <= 0:
            raise ValueError("hit_bandwidth must be positive")


class CachedCPUModel(CPUModel):
    """A :class:`CPUModel` whose gather/scatter row traffic can hit a cache.

    Parameters
    ----------
    cache:
        The cache geometry/speed.
    distribution:
        The lookup-popularity model of the workload's tables; its head mass
        within the cache capacity is the hit rate.
    spec:
        Underlying CPU spec (defaults as usual).
    """

    def __init__(
        self,
        cache: HotRowCacheSpec,
        distribution: LookupDistribution,
        spec: CPUSpec | None = None,
    ) -> None:
        super().__init__(spec)
        self.cache = cache
        capacity = min(cache.capacity_rows, distribution.num_rows)
        self._hit_rate = distribution.top_mass(capacity / distribution.num_rows)

    @property
    def hit_rate(self) -> float:
        """Fraction of row accesses served by the cache."""
        return self._hit_rate

    def _split(self, row_bytes: int) -> tuple[float, float]:
        """(cache seconds, DRAM bytes) for ``row_bytes`` of row traffic."""
        hit_bytes = row_bytes * self._hit_rate
        return hit_bytes / self.cache.hit_bandwidth, row_bytes - hit_bytes

    def time_gather_reduce(
        self, n: int, num_outputs: int, dim: int, itemsize: int = 4
    ) -> float:
        if n == 0:
            return 0.0
        vec = dim * itemsize
        t = traffic_model.gather_reduce_traffic(n, num_outputs, dim, itemsize)
        row_read_bytes = n * vec
        index_read_bytes = t.reads - row_read_bytes
        cache_time, dram_read_bytes = self._split(row_read_bytes)
        return (
            cache_time
            + (dram_read_bytes + index_read_bytes) / self.gather_bandwidth(vec)
            + t.writes / self.stream_bandwidth()
        )

    def time_scatter(
        self, u: int, dim: int, itemsize: int = 4, optimizer: str = "sgd"
    ) -> float:
        if u == 0:
            return 0.0
        vec = dim * itemsize
        t = traffic_model.scatter_traffic(u, dim, itemsize, optimizer)
        gradient_read_bytes = u * vec
        rmw_bytes = t.total - gradient_read_bytes
        cache_time, dram_rmw_bytes = self._split(rmw_bytes)
        return (
            gradient_read_bytes / self.stream_bandwidth()
            + cache_time
            + dram_rmw_bytes / self.rmw_bandwidth(vec)
        )

    # Note deliberately absent: no override of time_expand /
    # time_coalesce_accumulate / time_casted_gather_reduce.  Expanded
    # gradients and the gradient table are *transient per-iteration
    # tensors*, not table rows - a hot-row cache cannot serve them, which
    # is precisely why caching does not touch the paper's bottleneck.
