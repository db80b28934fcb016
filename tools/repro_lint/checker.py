"""Checker plugin protocol, rule registry, and the parsed-file model.

A *checker* owns exactly one rule id.  It receives the whole parsed
:class:`Project` (so cross-file rules like registry-consistency are first
class citizens, and per-file rules simply iterate ``project.files``) and
yields :class:`~tools.repro_lint.findings.Finding` objects.  Checkers
self-register via the :func:`register` decorator; the CLI and the test
suite both discover them through :data:`REGISTRY`.

Suppressions
------------
A finding at line *L* is dropped when line *L* or line *L-1* carries a
suppression comment::

    # repro-lint: ignore            — suppress every rule on that line
    # repro-lint: ignore[rule-id]   — suppress just those rule ids
    # repro-lint: ignore[a, b]      — comma-separated list

Comments are located with :mod:`tokenize`, so the marker is never matched
inside string literals.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Type

from .findings import Finding

__all__ = [
    "ALL_RULES",
    "Checker",
    "ImportMap",
    "Project",
    "REGISTRY",
    "SourceFile",
    "dotted_name",
    "register",
]

_SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*ignore(?:\[(?P<rules>[A-Za-z0-9_,\- ]*)\])?"
)

#: Sentinel stored in the suppression map meaning "every rule".
ALL_RULES = "*"


def _suppressions(text: str) -> Dict[int, set]:
    """Map line number -> set of suppressed rule ids (or {ALL_RULES})."""
    out: Dict[int, set] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(text).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            match = _SUPPRESS_RE.search(tok.string)
            if match is None:
                continue
            rules = match.group("rules")
            if rules is None:
                out.setdefault(tok.start[0], set()).add(ALL_RULES)
            else:
                names = {r.strip() for r in rules.split(",") if r.strip()}
                out.setdefault(tok.start[0], set()).update(names or {ALL_RULES})
    except (tokenize.TokenError, IndentationError, SyntaxError):
        pass  # unparsable files are reported separately by the runner
    return out


@dataclass
class SourceFile:
    """One parsed Python file plus everything rules need to scope on."""

    path: Path                      # as handed to the runner (for display)
    rel: str                        # posix-style path relative to the root
    text: str
    tree: ast.Module
    suppressions: Dict[int, set] = field(default_factory=dict)

    @property
    def parts(self) -> Tuple[str, ...]:
        return tuple(self.rel.split("/"))

    @property
    def dir_parts(self) -> Tuple[str, ...]:
        return self.parts[:-1]

    @property
    def name(self) -> str:
        return self.parts[-1]

    def in_library(self) -> bool:
        """True for files inside the installable ``repro`` package."""
        return "repro" in self.dir_parts

    def in_package_dir(self, *names: str) -> bool:
        """True when any directory component matches one of ``names``."""
        return any(name in self.dir_parts for name in names)

    def is_suppressed(self, finding: Finding) -> bool:
        for line in (finding.line, finding.line - 1):
            rules = self.suppressions.get(line)
            if rules and (ALL_RULES in rules or finding.rule in rules):
                return True
        return False

    @classmethod
    def parse(cls, path: Path, rel: str) -> "SourceFile":
        text = path.read_text(encoding="utf-8")
        tree = ast.parse(text, filename=str(path))
        return cls(path=path, rel=rel, text=text, tree=tree,
                   suppressions=_suppressions(text))


@dataclass
class Project:
    """Every file of one lint run; the unit a checker sees."""

    files: List[SourceFile]

    def by_suffix(self, suffix: str) -> Iterator[SourceFile]:
        for source in self.files:
            if source.rel.endswith(suffix):
                yield source


class Checker:
    """Base class for rule plugins.

    Subclasses set ``rule`` (the id used in reports and suppression
    comments) and ``description`` (one line, shown by ``--list-rules``)
    and implement :meth:`check`.
    """

    rule: str = ""
    description: str = ""

    def check(self, project: Project) -> Iterable[Finding]:
        raise NotImplementedError

    def finding(self, source: SourceFile, node: ast.AST, message: str) -> Finding:
        return Finding(path=source.rel, line=getattr(node, "lineno", 1),
                       rule=self.rule, message=message)


#: rule id -> checker instance, in registration order.
REGISTRY: Dict[str, Checker] = {}


def register(cls: Type[Checker]) -> Type[Checker]:
    """Class decorator: instantiate and add a checker to the registry."""
    instance = cls()
    if not instance.rule:
        raise ValueError(f"{cls.__name__} does not define a rule id")
    if instance.rule in REGISTRY:
        raise ValueError(f"rule id {instance.rule!r} is already registered")
    REGISTRY[instance.rule] = instance
    return cls


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class ImportMap:
    """Resolve local names to the dotted path they were imported from.

    Builds one map per file from every ``import``/``from ... import``
    statement (function-local imports included — a deferred import inside
    a function body resolves like a module-level one), then rewrites call
    targets: with ``import numpy as np``, ``np.random.rand`` resolves to
    ``numpy.random.rand``; with ``from time import perf_counter as clock``,
    ``clock`` resolves to ``time.perf_counter``.
    """

    def __init__(self, tree: ast.Module) -> None:
        self._alias: Dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for item in node.names:
                    local = item.asname or item.name.split(".")[0]
                    full = item.name if item.asname else item.name.split(".")[0]
                    self._alias[local] = full
            elif isinstance(node, ast.ImportFrom):
                # Relative imports keep their module path sans dots: good
                # enough for suffix matching.
                module = node.module or ""
                for item in node.names:
                    if item.name == "*":
                        continue
                    local = item.asname or item.name
                    full = f"{module}.{item.name}" if module else item.name
                    self._alias[local] = full

    def resolve(self, node: ast.AST) -> Optional[str]:
        """Dotted path of a Name/Attribute chain with aliases expanded."""
        dotted = dotted_name(node)
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        expanded = self._alias.get(head)
        if expanded is None:
            return dotted
        return f"{expanded}.{rest}" if rest else expanded
