"""Shared fixtures for the benchmark harness.

Every ``bench_figNN_*.py``/``bench_tableN_*.py`` regenerates one table or
figure of the paper: the ``benchmark`` fixture times the regeneration and
the bench prints the same rows/series the paper reports (run with ``-s`` to
see them inline).
"""

from __future__ import annotations

import pytest

from repro.runtime.systems import SystemHardware


@pytest.fixture(scope="session")
def hardware() -> SystemHardware:
    """One hardware description (and DRAM-sim cache) for the whole run."""
    return SystemHardware()


def run_once(benchmark, func, *args, **kwargs):
    """Time a heavy experiment exactly once (no warmup rounds)."""
    return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)
