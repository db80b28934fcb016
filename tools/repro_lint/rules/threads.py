"""Rule ``thread-lifecycle``: classes that start workers must be closable.

The repo's background workers (``CastAheadWorker`` and
``PrefetchingSource``) earned their pinned lifecycles the hard way: a
thread with no shutdown path leaks across tests, deadlocks interpreter
exit, and an orphaned worker process outlives all of that.
The contract:

* any class that starts a ``threading.Thread`` (or ``Timer``), spins up a
  ``concurrent.futures`` executor, or forks a ``multiprocessing.Process``
  must expose an explicit teardown method named ``close`` or ``shutdown``,
  and
* must support the context-manager protocol (``__enter__``/``__exit__``)
  so ``with`` blocks pin the lifetime even on the error path.

Methods inherited from base classes *defined in the same module* count
(e.g. ``PrefetchingSource`` inherits ``__enter__``/``__exit__`` from
``BatchSource``); cross-module inheritance needs an inline suppression
naming the base that provides the protocol.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, Optional, Set

from ..checker import Checker, ImportMap, Project, SourceFile, register
from ..findings import Finding

_THREAD_FACTORIES = (
    "threading.Thread",
    "threading.Timer",
    "concurrent.futures.ThreadPoolExecutor",
    "concurrent.futures.ProcessPoolExecutor",
    "concurrent.futures.thread.ThreadPoolExecutor",
    "concurrent.futures.process.ProcessPoolExecutor",
    "multiprocessing.Process",
)


def _starts_thread(cls: ast.ClassDef, imports: ImportMap) -> bool:
    for node in ast.walk(cls):
        if isinstance(node, ast.Call):
            target = imports.resolve(node.func)
            if target in _THREAD_FACTORIES:
                return True
    return False


def _method_names(cls: ast.ClassDef) -> Set[str]:
    return {item.name for item in cls.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))}


def _inherited_method_names(
    cls: ast.ClassDef, module_classes: Dict[str, ast.ClassDef],
    _seen: Optional[Set[str]] = None,
) -> Set[str]:
    """Methods on ``cls`` plus same-module ancestors (cycle-safe)."""
    seen = _seen if _seen is not None else set()
    if cls.name in seen:
        return set()
    seen.add(cls.name)
    names = _method_names(cls)
    for base in cls.bases:
        base_name = base.id if isinstance(base, ast.Name) else None
        if base_name and base_name in module_classes:
            names |= _inherited_method_names(
                module_classes[base_name], module_classes, seen)
    return names


@register
class ThreadLifecycleChecker(Checker):
    rule = "thread-lifecycle"
    description = ("classes starting threads, executors, or worker "
                   "processes must define close/shutdown and the "
                   "context-manager protocol")

    def check(self, project: Project) -> Iterable[Finding]:
        for source in project.files:
            yield from self._check_file(source)

    def _check_file(self, source: SourceFile) -> Iterable[Finding]:
        imports = ImportMap(source.tree)
        module_classes: Dict[str, ast.ClassDef] = {
            node.name: node for node in ast.walk(source.tree)
            if isinstance(node, ast.ClassDef)
        }
        for cls in module_classes.values():
            if not _starts_thread(cls, imports):
                continue
            methods = _inherited_method_names(cls, module_classes)
            missing = []
            if not methods & {"close", "shutdown"}:
                missing.append("close()/shutdown()")
            if "__enter__" not in methods:
                missing.append("__enter__")
            if "__exit__" not in methods:
                missing.append("__exit__")
            if missing:
                yield self.finding(
                    source, cls,
                    f"class {cls.name} starts a background worker but "
                    f"lacks {', '.join(missing)}; threads, executors, and "
                    "worker processes need a pinned lifecycle (explicit "
                    "teardown + context-manager protocol)",
                )
