"""The observability plane's clocks: the one sanctioned wall-clock module.

The repro-lint ``determinism`` rule confines direct wall-clock reads to a
short list of modules whose *job* is the clock; this is the observability
plane's one such module.  Everything else in :mod:`repro.obs` reads time
exclusively through an injected :class:`Clock`, which is what makes a
:class:`~repro.obs.tracer.Tracer` over a :class:`VirtualClock`
byte-deterministic:

* :class:`RealTimeClock` — wall seconds since construction, what a tracer
  falls back to when no clock is injected (measured training runs);
* :class:`VirtualClock` — time that moves only when
  :meth:`VirtualClock.charge` advances it, for byte-stable traces;
* :func:`unix_time` / :func:`utc_timestamp` — the run manifest's
  written-at stamp, which deliberately records when the run happened.
"""

from __future__ import annotations

import abc
import time

__all__ = [
    "Clock",
    "RealTimeClock",
    "VirtualClock",
    "unix_time",
    "utc_timestamp",
]


class Clock(abc.ABC):
    """The time authority a tracer reads."""

    @abc.abstractmethod
    def now(self) -> float:
        """Current time in seconds (0.0 at construction)."""


class VirtualClock(Clock):
    """Manual-advance clock: time moves only when charged."""

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    def now(self) -> float:
        return self._now

    def charge(self, seconds: float) -> None:
        """Advance time by ``seconds``."""
        if seconds < 0:
            raise ValueError(f"cannot charge negative time, got {seconds}")
        self._now += float(seconds)


class RealTimeClock(Clock):
    """Wall-clock seconds since construction."""

    def __init__(self) -> None:
        self._epoch = time.perf_counter()

    def now(self) -> float:
        return time.perf_counter() - self._epoch


def unix_time() -> float:
    """Seconds since the epoch — manifest stamps, never control flow."""
    return time.time()


def utc_timestamp() -> str:
    """ISO-8601 UTC stamp of :func:`unix_time` for run manifests."""
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(unix_time()))
