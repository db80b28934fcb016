"""Rule ``determinism``: no hidden entropy, no unsanctioned wall clock.

Bit-identity across runs is the repo's headline contract (every trainer,
backend, and replay path is pinned to it), and it dies the moment any code
path draws from an unseeded generator or branches on wall-clock time.

* Unseeded ``np.random.default_rng()`` (or ``RandomState()``) — every
  generator must be constructed from an explicit seed or threaded in from
  the caller.
* Any call into the *global-state* RNGs: ``np.random.<fn>(...)`` legacy
  functions and the stdlib ``random`` module-level functions.  Hidden
  global state defeats seeding-by-argument.
* Wall-clock reads (``time.time``/``perf_counter``/``sleep``,
  ``datetime.now``, ...) inside the library, outside the sanctioned
  timing modules: ``serving/clock.py`` (the injectable Clock — the one
  sanctioned wall-clock wrapper), ``obs/clock.py`` (the observability
  plane's manifest timestamps and default tracer clock),
  ``runtime/stages.py`` and ``runtime/engine.py`` (the stage timing
  instrumentation that fills ``PhaseTimings``) and
  ``backends/autotune.py`` (probe timing).
  Everything else must take a :class:`~repro.serving.clock.Clock` or
  report-side timings instead of reading the clock directly; genuinely
  real-time code (e.g. opt-in ``time.sleep`` pacing) carries an inline
  ``# repro-lint: ignore[determinism]`` so the exception stays visible
  at the call site.
"""

from __future__ import annotations

import ast
from typing import Iterable

from ..checker import Checker, ImportMap, Project, SourceFile, register
from ..findings import Finding

#: numpy's legacy global-RNG functions (operate on hidden module state).
_NP_GLOBAL_FNS = frozenset({
    "seed", "rand", "randn", "randint", "random", "random_sample", "ranf",
    "sample", "choice", "shuffle", "permutation", "normal", "uniform",
    "standard_normal", "binomial", "poisson", "beta", "gamma",
    "exponential", "bytes", "get_state", "set_state",
})

#: stdlib ``random`` module-level functions (same hidden-global hazard).
_STDLIB_RANDOM_FNS = frozenset({
    "seed", "random", "randint", "randrange", "choice", "choices",
    "shuffle", "sample", "uniform", "gauss", "betavariate", "expovariate",
    "normalvariate", "triangular", "getrandbits",
})

#: Wall-clock reads that make behavior time-dependent.
_WALLCLOCK = frozenset({
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.process_time",
    "time.process_time_ns", "time.sleep",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today", "datetime.now",
    "datetime.utcnow", "datetime.today", "date.today",
})

#: Library modules whose job *is* the wall clock.
_WALLCLOCK_ALLOWED_SUFFIXES = (
    "repro/serving/clock.py",     # the injectable Clock abstraction
    "repro/obs/clock.py",         # manifest timestamps / default trace clock
    "repro/runtime/stages.py",    # the stage timing collector
    "repro/runtime/engine.py",    # per-stage wall-clock instrumentation
    "repro/backends/autotune.py", # autotuner probe timing
)


@register
class DeterminismChecker(Checker):
    rule = "determinism"
    description = ("unseeded RNG constructors, global-state RNG calls, and "
                   "wall-clock reads outside the sanctioned timing modules")

    def check(self, project: Project) -> Iterable[Finding]:
        for source in project.files:
            yield from self._check_file(source)

    def _check_file(self, source: SourceFile) -> Iterable[Finding]:
        imports = ImportMap(source.tree)
        clock_exempt = source.rel.endswith(_WALLCLOCK_ALLOWED_SUFFIXES)
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            target = imports.resolve(node.func)
            if target is None:
                continue
            if target in ("numpy.random.default_rng",
                          "numpy.random.RandomState"):
                if not node.args and not node.keywords:
                    yield self.finding(
                        source, node,
                        f"unseeded {target}() — pass an explicit seed or "
                        "thread a Generator in from the caller",
                    )
                continue
            head, _, tail = target.rpartition(".")
            if head == "numpy.random" and tail in _NP_GLOBAL_FNS:
                yield self.finding(
                    source, node,
                    f"np.random.{tail}() uses numpy's hidden global RNG "
                    "state; use an explicitly seeded np.random.Generator",
                )
            elif head == "random" and tail in _STDLIB_RANDOM_FNS:
                yield self.finding(
                    source, node,
                    f"random.{tail}() uses the stdlib's hidden global RNG "
                    "state; use an explicitly seeded random.Random or a "
                    "numpy Generator",
                )
            elif (target in _WALLCLOCK and source.in_library()
                  and not clock_exempt):
                yield self.finding(
                    source, node,
                    f"{target}() read outside the sanctioned timing modules "
                    "(serving/clock.py, obs/clock.py, runtime/stages.py, "
                    "runtime/engine.py, backends/autotune.py); inject a "
                    "repro.serving.Clock instead",
                )
