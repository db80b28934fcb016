"""Rule ``api-contract``: the public API is typed.

Public module-level functions in ``src/repro`` must be fully annotated
(every parameter and the return type).  This is the lint-time floor under
mypy's per-module ``disallow_untyped_defs`` tightening: it runs with zero
dependencies, in the same pass as the other invariants, and points at the
exact parameter.
"""

from __future__ import annotations

import ast
from typing import Iterable, List

from ..checker import Checker, Project, register
from ..findings import Finding


def _missing_annotations(node: ast.FunctionDef) -> List[str]:
    args = node.args
    missing = [
        arg.arg
        for arg in args.posonlyargs + args.args + args.kwonlyargs
        if arg.annotation is None and arg.arg not in ("self", "cls")
    ]
    if args.vararg is not None and args.vararg.annotation is None:
        missing.append(f"*{args.vararg.arg}")
    if args.kwarg is not None and args.kwarg.annotation is None:
        missing.append(f"**{args.kwarg.arg}")
    if node.returns is None:
        missing.append("return")
    return missing


@register
class ApiContractChecker(Checker):
    rule = "api-contract"
    description = ("public module-level functions in src/repro must be "
                   "fully annotated")

    def check(self, project: Project) -> Iterable[Finding]:
        for source in project.files:
            if not source.in_library():
                continue
            for node in source.tree.body:
                if not isinstance(node, ast.FunctionDef):
                    continue
                if node.name.startswith("_"):
                    continue
                missing = _missing_annotations(node)
                if missing:
                    yield self.finding(
                        source, node,
                        f"public function {node.name} is not fully "
                        f"annotated (missing: {', '.join(missing)})",
                    )
