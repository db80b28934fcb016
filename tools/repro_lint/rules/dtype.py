"""Rule ``dtype-discipline``: the step's hot modules never hard-code float64.

The model owns its dtype (``DLRM(dtype=)``): foreign data is coerced once,
at the seam where both dtypes are known, and from there every array a
training step produces carries the model's dtype.  A literal
``dtype=np.float64`` or ``.astype(np.float64)`` on that path silently
re-promotes a float32 model — which is how every benchmark workload came to
train its float32 model at double width, paying twice the memory traffic
the paper's model bills (``core/traffic.py`` charges 4-byte elements).

This rule flags, in the modules a step executes —
``model/{dlrm,embedding,layers,interaction,loss}.py`` and
``core/{gather_reduce,casting,coalesce,segment,scatter}.py`` —

* a call passing the keyword ``dtype=np.float64`` (or ``"float64"``);
* a call ``<x>.astype(np.float64)``;

outside functions named ``*_reference`` (the pure-Python oracles accumulate
in float64 on purpose).  A parameter *default* of ``np.float64`` is not a
call and is not flagged: a constructor may default to float64, it may not
insist on it.  Deliberate float64 evaluation (the ``(B,)`` loss, reported
probabilities) carries ``# repro-lint: ignore[dtype-discipline]`` and its
reason at the call site.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from ..checker import Checker, Project, SourceFile, dotted_name, register
from ..findings import Finding

#: ``<package dir>/<file>`` suffixes of the modules a training step runs.
HOT_MODULES = tuple(
    f"repro/{package}/{module}.py"
    for package, modules in (
        ("model", ("dlrm", "embedding", "layers", "interaction", "loss")),
        ("core", ("gather_reduce", "casting", "coalesce", "segment",
                  "scatter")),
    )
    for module in modules
)


def _is_float64(node: ast.AST) -> bool:
    if isinstance(node, ast.Constant):
        return node.value == "float64"
    return (dotted_name(node) or "").split(".")[-1] == "float64"


def _calls_outside_oracles(node: ast.AST) -> Iterator[ast.Call]:
    """Every call under ``node`` not inside a ``*_reference`` function."""
    for child in ast.iter_child_nodes(node):
        if (isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                and child.name.endswith("_reference")):
            continue
        if isinstance(child, ast.Call):
            yield child
        yield from _calls_outside_oracles(child)


@register
class DtypeDisciplineChecker(Checker):
    rule = "dtype-discipline"
    description = ("hard-coded dtype=np.float64 / .astype(np.float64) in the "
                   "modules a training step executes, where the model's own "
                   "dtype must flow from batch to table row")

    def check(self, project: Project) -> Iterable[Finding]:
        for source in project.files:
            if source.rel.endswith(HOT_MODULES):
                yield from self._check_file(source)

    def _check_file(self, source: SourceFile) -> Iterator[Finding]:
        for call in _calls_outside_oracles(source.tree):
            if any(keyword.arg == "dtype" and _is_float64(keyword.value)
                   for keyword in call.keywords):
                yield self.finding(
                    source, call,
                    "dtype=float64 hard-coded on the step's hot path "
                    "re-promotes a float32 model; take the dtype from the "
                    "model / table / array at hand",
                )
            elif (isinstance(call.func, ast.Attribute)
                  and call.func.attr == "astype"
                  and call.args and _is_float64(call.args[0])):
                yield self.finding(
                    source, call,
                    ".astype(float64) on the step's hot path re-promotes a "
                    "float32 model; cast to the model / table dtype instead",
                )
