"""The frozen oracle's one removed dependency, restored for it alone.

``_legacy_trainer.py`` never changes, and it imports
``repro.core.casting.precompute_casts``: the cast-every-table helper of the
pre-refactor loops, which the library dropped once the engine cast only
inside its shard plan.  Its body was exactly this list of
:func:`~repro.core.casting.tensor_casting` calls, so the oracle's numerics
are the ones it was frozen with.
"""

import repro.core.casting as casting


def _precompute_casts(indices):
    return [casting.tensor_casting(index) for index in indices]


casting.precompute_casts = _precompute_casts
