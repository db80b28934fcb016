"""Rule ``numeric-hazard``: one definition of accumulation order in kernels.

PR 3 established the accumulation contract for every gradient-coalescing
kernel: each output row is summed *sequentially*, one addend at a time in
lookup order, because ``np.ufunc.reduceat`` uses pairwise partial sums
whose float results drift from the sequential oracle by ulps — enough to
break the repo's bit-identity pins between backends, schedules, shard
counts, and checkpoint resumes.  ``repro.core.segment.segment_sum`` is
the NumPy engines' one implementation of that order.

This rule flags, inside the kernel layers (``core/`` and ``backends/``):

* any ``.reduceat(...)`` call — the wrong order;
* any ``np.add.at(...)`` call outside ``core/segment.py`` — the right
  order, but a second definition of it (and an order of magnitude slower
  than ``segment_sum`` over sorted destinations).

If a kernel genuinely wants either (a *documented* non-bit-identical fast
path, or a tile loop that must add per lookup into a running output), it
must carry an inline ``# repro-lint: ignore[numeric-hazard]`` so the
exception is visible at the call site.
"""

from __future__ import annotations

import ast
from typing import Iterable

from ..checker import Checker, Project, dotted_name, register
from ..findings import Finding


@register
class NumericHazardChecker(Checker):
    rule = "numeric-hazard"
    description = ("reduceat/pairwise-sum accumulation, or a scatter-add "
                   "that bypasses core.segment.segment_sum, in core/ or "
                   "backends/ kernels where sequential lookup order is the "
                   "bit-identity contract")

    def check(self, project: Project) -> Iterable[Finding]:
        for source in project.files:
            if not source.in_library():
                continue
            if not source.in_package_dir("core", "backends"):
                continue
            owns_order = source.rel.endswith("core/segment.py")
            for node in ast.walk(source.tree):
                if not (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)):
                    continue
                if node.func.attr == "reduceat":
                    yield self.finding(
                        source, node,
                        "reduceat accumulates with pairwise partial sums, "
                        "which drift by ulps from the sequential lookup "
                        "order the kernel bit-identity contract pins; use "
                        "repro.core.segment.segment_sum",
                    )
                elif (not owns_order
                      and (dotted_name(node.func) or "").endswith("add.at")):
                    yield self.finding(
                        source, node,
                        "np.add.at is a second definition of the kernels' "
                        "accumulation order; route the reduction through "
                        "repro.core.segment.segment_sum",
                    )
