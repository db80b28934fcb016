"""Ablation: hot-row caching (RecNMP-style) vs Tensor Casting vs both.

Caching the hottest embedding rows — the inference-era optimization —
accelerates gather-reduce and scatter but cannot touch the expand-coalesce
bottleneck (its traffic scales with the lookup count regardless of row
locality).  Tensor Casting attacks exactly that bottleneck.  This bench
quantifies the paper's implicit argument for why training needed a new
idea: on a skewed workload, an *ideal* cache buys less than casting alone,
and the two compose.

The executed cache's agreement with the analytic model is tested in
``tests/model/test_hot_cache.py::TestAnalyticCrosscheck``.
"""

from conftest import run_once

from repro.data.datasets import get_dataset
from repro.model import get_model
from repro.runtime.systems import CPUGPUSystem, SystemHardware, compute_workload
from repro.sim.cache import CachedCPUModel, HotRowCacheSpec


def test_ablation_hot_cache(benchmark, hardware):
    def run():
        profile = get_dataset("criteo")
        distribution = profile.distribution()
        stats = compute_workload(get_model("RM1"), 2048, dataset=distribution)

        cached_cpu = CachedCPUModel(HotRowCacheSpec(), distribution)
        cached_hw = SystemHardware(
            cpu=cached_cpu, gpu=hardware.gpu, nmp=hardware.nmp,
            pcie=hardware.pcie, nmp_link=hardware.nmp_link,
        )
        variants = {
            "Baseline(CPU)": CPUGPUSystem(hardware, casting=False),
            "Baseline + hot-row cache": CPUGPUSystem(cached_hw, casting=False),
            "Ours(CPU) [casting]": CPUGPUSystem(hardware, casting=True),
            "Casting + hot-row cache": CPUGPUSystem(cached_hw, casting=True),
        }
        return (
            cached_cpu.hit_rate,
            {name: system.run_iteration(stats).total for name, system in variants.items()},
        )

    hit_rate, totals = run_once(benchmark, run)
    baseline = totals["Baseline(CPU)"]
    print(f"\n[Ablation] Hot-row cache vs Tensor Casting "
          f"(RM1, b2048, criteo profile, cache hit rate {hit_rate:.0%})")
    for name, total in totals.items():
        print(f"  {name:26s} {total * 1e3:7.2f} ms  ({baseline / total:4.2f}x)")
    # Caching helps, but less than casting; together they stack.
    assert totals["Baseline + hot-row cache"] < totals["Baseline(CPU)"]
    assert totals["Ours(CPU) [casting]"] < totals["Baseline + hot-row cache"]
    assert totals["Casting + hot-row cache"] < totals["Ours(CPU) [casting]"]

