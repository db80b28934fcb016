"""Seedable query-arrival processes for the serving plane.

DeepRecSys (Gupta et al.) makes the case that at-scale serving behaviour
only emerges under realistic query arrival patterns.  The serving plane's
request generator (:func:`repro.serving.request.generate_requests`) stamps
the scheduled arrival times of an :class:`ArrivalProcess` onto
:class:`~repro.serving.request.Request` objects, so two request streams
built from the same ``(rate, pattern, seed)`` follow the *identical*
schedule — the reproducibility contract pinned by
``tests/data/test_arrivals.py``.

Supported patterns:

``uniform``
    deterministic fixed-rate arrivals, one every ``1/rate`` seconds;
``poisson``
    a Poisson process: i.i.d. exponential gaps with mean ``1/rate``, drawn
    from ``numpy.random.default_rng(seed)`` — the memoryless open-loop
    traffic model DeepRecSys uses for its load generator.
"""

from __future__ import annotations

from typing import List

import numpy as np

__all__ = ["ArrivalProcess"]


class ArrivalProcess:
    """A seedable stream of inter-arrival gaps (uniform or Poisson).

    The process is stateful: every :meth:`next_gap` call advances the
    internal RNG (for ``poisson``), so consuming the same instance twice
    continues the sequence, while two fresh instances with equal seeds
    reproduce it exactly.  :meth:`offsets` is the cumulative view — the
    scheduled arrival times of the next ``count`` events, the first at the
    current cumulative offset (0.0 for a fresh process).
    """

    PATTERNS = ("uniform", "poisson")

    def __init__(
        self, rate_per_s: float, pattern: str = "poisson", seed: int = 0
    ) -> None:
        if not rate_per_s > 0:
            raise ValueError(f"rate_per_s must be positive, got {rate_per_s}")
        if pattern not in self.PATTERNS:
            raise ValueError(
                f"pattern must be one of {self.PATTERNS}, got {pattern!r}"
            )
        self.rate_per_s = float(rate_per_s)
        self.pattern = pattern
        self.seed = int(seed)
        self._rng = np.random.default_rng(seed)
        self._next_offset = 0.0

    @property
    def mean_gap_s(self) -> float:
        """Expected seconds between consecutive arrivals (``1/rate``)."""
        return 1.0 / self.rate_per_s

    def next_gap(self) -> float:
        """Seconds until the *next* arrival after the current one."""
        if self.pattern == "uniform":
            return 1.0 / self.rate_per_s
        return float(self._rng.exponential(1.0 / self.rate_per_s))

    def next_offset(self) -> float:
        """The next scheduled arrival offset; advances the process by one.

        The first call returns 0.0 (the stream starts at its own origin).
        """
        scheduled = self._next_offset
        self._next_offset += self.next_gap()
        return scheduled

    def offsets(self, count: int) -> List[float]:
        """Scheduled offsets of the next ``count`` arrivals (cumulative gaps)."""
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        return [self.next_offset() for _ in range(count)]
