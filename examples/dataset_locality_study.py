#!/usr/bin/env python
"""Dataset locality study: how lookup skew drives coalescing and caching.

Reproduces the paper's Section III-B analysis across the five dataset
profiles (Amazon, MovieLens, Alibaba, Criteo, Random): builds each sorted
lookup-probability function via the histogram methodology, then shows how
batch size and skew together determine how far the expanded gradient tensor
shrinks when coalesced — and what that means for the casting reduction
factor and for hot-row caching on real-shaped streams.

Batches are drawn through the streaming data plane: each profile becomes a
``SyntheticCTRStream`` (a ``BatchSource``), so the very same source object
could be handed to a trainer, recorded with ``record_trace``, bounded with
a ``TakeSource``, or replayed from disk.

Run:  python examples/dataset_locality_study.py
"""

import numpy as np

from repro import get_dataset
from repro.core.traffic import casting_reduction_factor
from repro.data import SyntheticCTRStream, dataset_names
from repro.data import empirical_probability_function, gini_coefficient
from repro.experiments import (
    fig5b_gradient_sizes,
    format_fig5b,
    scaled_distribution,
)
from repro.model.hot_cache import HotRowCache
from repro.sim.cache import CachedCPUModel, HotRowCacheSpec

#: Functional table height for the streamed sections (profiles rescaled).
STREAM_ROWS = 20_000


def profile_stream(name: str, gathers: int = 10) -> SyntheticCTRStream:
    """One dataset profile as a single-table BatchSource (rescaled shape)."""
    return SyntheticCTRStream(
        num_tables=1,
        num_rows=STREAM_ROWS,
        lookups_per_sample=gathers,
        dense_features=4,
        distributions=[scaled_distribution(name, STREAM_ROWS)],
        seed=1,
    )


def probability_functions() -> None:
    print("== Sorted lookup-probability functions (Figure 5a methodology) ==")
    print(f"{'dataset':12s} {'rows':>10s} {'top 0.1% mass':>14s} {'top 1% mass':>12s} "
          f"{'gini':>6s}")
    for name in dataset_names():
        profile = get_dataset(name)
        dist = profile.distribution()
        print(f"{profile.display_name:12s} {profile.num_rows:>10,d} "
              f"{dist.top_mass(0.001):>13.1%} {dist.top_mass(0.01):>11.1%} "
              f"{gini_coefficient(dist.probabilities()):>6.3f}")
    print()

    print("analytic vs histogram-measured probability (MovieLens, 200K lookups):")
    dist = get_dataset("movielens").distribution()
    ids = dist.sample(200_000, np.random.default_rng(0))
    measured = empirical_probability_function(ids, dist.num_rows)
    analytic = dist.probabilities()
    for rank in (0, 9, 99, 999):
        print(f"  rank {rank + 1:>4d}: analytic={analytic[rank]:.2e} "
              f"measured={measured[rank]:.2e}")
    print()


def gradient_sizes() -> None:
    print("== Gradient tensor sizes before/after coalescing (Figure 5b) ==")
    rows = fig5b_gradient_sizes()
    print(format_fig5b(rows))
    print("-> skewed datasets (MovieLens, Criteo) coalesce hardest, and harder "
          "as batch grows\n")


def casting_payoff() -> None:
    print("== What locality means for Tensor Casting (reduction factor) ==")
    batch = 4096
    for name in dataset_names():
        profile = get_dataset(name)
        # Draw one mini-batch through the BatchSource surface.
        data = profile_stream(name).next_batch(batch, np.random.default_rng(1))
        index = data.indices[0]
        factor = casting_reduction_factor(
            index.num_lookups, batch, index.num_unique_sources(), dim=64
        )
        print(f"  {profile.display_name:12s} u/n={index.coalescing_ratio():.2f} "
              f"-> casting moves {factor:.2f}x less data than expand-coalesce")
    print("-> the guarantee holds everywhere (>= 2x), and skew pushes it "
          "toward 4x\n")


def hot_cache_payoff() -> None:
    print("== What locality means for hot-row caching (executed LFU) ==")
    capacity = STREAM_ROWS // 10
    print(f"  (tables rescaled to {STREAM_ROWS:,} rows, cache capacity "
          f"{capacity:,} = 10%)")
    for name in dataset_names():
        profile = get_dataset(name)
        stream = profile_stream(name)
        cache = HotRowCache(capacity, policy="lfu")
        rng = np.random.default_rng(2)
        for _ in range(12):
            cache.access(stream.next_batch(2048, rng).indices[0].src)
        analytic = CachedCPUModel(
            HotRowCacheSpec(capacity_rows=capacity),
            scaled_distribution(name, STREAM_ROWS),
        ).hit_rate
        print(f"  {profile.display_name:12s} measured {cache.hit_rate:>6.1%}  "
              f"analytic {analytic:>6.1%}  (delta "
              f"{cache.hit_rate - analytic:+.1%})")
    print("-> caching pays only where the head is hot (MovieLens, Criteo); "
          "the Random control\n   pins the floor - exactly the skew story "
          "the casting reduction factor told above")


def main() -> None:
    probability_functions()
    gradient_sizes()
    casting_payoff()
    hot_cache_payoff()


if __name__ == "__main__":
    main()
