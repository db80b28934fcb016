"""Rule ``registry-consistency``: the CLI and the registries move together.

``python -m repro`` is registry-driven by design (PR 3): parser choices,
``list`` output, and validation messages all derive from
``EXPERIMENTS``/``BUILTIN_COMMANDS``, optimizers from ``OPTIMIZERS``
(``model/optim.py``).  The one thing the registries cannot police
themselves is *drift between the literals*: a flag added to
``build_parser`` but never consumed, a runner reading ``args.foo`` nobody
declares, a ``FLAG_SCOPE`` entry that no longer names an experiment or a
flag, or a hard-coded default (``args.optimizer or "sgd"``) whose name
quietly leaves the registry.
This rule cross-checks them all via AST constant extraction:

* registry dict literals in ``cli.py`` — no duplicate keys, no overlap
  between ``EXPERIMENTS`` and ``BUILTIN_COMMANDS``, each runner named
  ``_run_<key>`` for its key;
* the flag-scope table ``FLAG_SCOPE`` (flag dest -> commands that accept
  it, the one table the CLI's exit-2 validation loops over): every key is
  a declared ``add_argument`` dest and every command it names — directly
  or through a module-level tuple such as ``TRAINER_EXPERIMENTS`` — is a
  key of ``EXPERIMENTS`` or ``BUILTIN_COMMANDS``;
* argparse lockstep — every ``args.<dest>`` read in ``cli.py`` has a
  matching ``add_argument`` and every declared dest is read somewhere;
* string-literal fallbacks, keywords and defaults: ``args.optimizer or
  "<name>"`` and ``optimizer="<name>"`` must name a key of
  ``OPTIMIZERS``.

Cross-file checks are skipped gracefully when the defining module is not
part of the lint run (e.g. linting a single file).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..checker import Checker, Project, SourceFile, register
from ..findings import Finding


def _module_assigns(tree: ast.Module) -> Dict[str, ast.expr]:
    """Module-level ``NAME = <expr>`` / ``NAME: T = <expr>`` map."""
    out: Dict[str, ast.expr] = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name):
                out[target.id] = node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            if isinstance(node.target, ast.Name):
                out[node.target.id] = node.value
    return out


def _string_keys(node: ast.expr) -> List[Tuple[str, ast.expr]]:
    """(key, key-node) pairs of a dict literal's constant-string keys."""
    if not isinstance(node, ast.Dict):
        return []
    return [
        (key.value, key)
        for key in node.keys
        if isinstance(key, ast.Constant) and isinstance(key.value, str)
    ]


def _string_elts(node: ast.expr) -> List[Tuple[str, ast.expr]]:
    """(value, node) pairs of a tuple/list literal's constant strings."""
    if not isinstance(node, (ast.Tuple, ast.List)):
        return []
    return [
        (elt.value, elt)
        for elt in node.elts
        if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
    ]


def _resolve_string_elts(
    node: ast.expr, assigns: Dict[str, ast.expr], _depth: int = 0,
) -> List[Tuple[str, ast.expr]]:
    """Constant strings of a tuple expression, following module names.

    Handles what the scope table is written with: tuple/list literals,
    names of module-level tuples, and ``+`` concatenations of either.
    Anything else contributes nothing (and is therefore not checked).
    """
    if isinstance(node, ast.Name) and _depth < 8:
        target = assigns.get(node.id)
        if target is None:
            return []
        return _resolve_string_elts(target, assigns, _depth + 1)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        return (_resolve_string_elts(node.left, assigns, _depth)
                + _resolve_string_elts(node.right, assigns, _depth))
    return _string_elts(node)


def _find_source(project: Project, suffix: str) -> Optional[SourceFile]:
    for source in project.files:
        if source.rel.endswith(suffix):
            return source
    return None


def _optimizer_names(project: Project) -> Optional[Set[str]]:
    """Keys of the OPTIMIZERS registry dict, or None when out of scope."""
    source = _find_source(project, "repro/model/optim.py")
    if source is None:
        return None
    optimizers = _module_assigns(source.tree).get("OPTIMIZERS")
    if optimizers is None:
        return None
    return {name for name, _ in _string_keys(optimizers)}


@register
class RegistryConsistencyChecker(Checker):
    rule = "registry-consistency"
    description = ("CLI argparse flags, experiment registries, and "
                   "optimizer name literals must stay in lockstep")

    def check(self, project: Project) -> Iterable[Finding]:
        optimizers = _optimizer_names(project)
        cli = _find_source(project, "repro/cli.py")
        if cli is not None:
            yield from self._check_cli(cli, optimizers)
        if optimizers is None:
            return
        for source in project.files:
            if source.in_library():
                yield from self._check_name_literals(source, optimizers)

    # ------------------------------------------------------------------ cli
    def _check_cli(
        self, source: SourceFile, optimizers: Optional[Set[str]],
    ) -> Iterable[Finding]:
        assigns = _module_assigns(source.tree)
        registries: Dict[str, Set[str]] = {}
        for registry_name in ("EXPERIMENTS", "BUILTIN_COMMANDS"):
            node = assigns.get(registry_name)
            if node is None:
                continue
            keys = _string_keys(node)
            seen: Set[str] = set()
            for key, key_node in keys:
                if key in seen:
                    yield self.finding(
                        source, key_node,
                        f"duplicate key {key!r} in {registry_name}; the "
                        "first entry is silently shadowed",
                    )
                seen.add(key)
            registries[registry_name] = seen
            yield from self._check_runner_names(
                source, registry_name, node)
        overlap = (registries.get("EXPERIMENTS", set())
                   & registries.get("BUILTIN_COMMANDS", set()))
        for name in sorted(overlap):
            yield self.finding(
                source, assigns["BUILTIN_COMMANDS"],
                f"{name!r} is registered in both EXPERIMENTS and "
                "BUILTIN_COMMANDS; dispatch order silently decides which "
                "one runs",
            )
        declared = self._declared_dests(source)
        scope = assigns.get("FLAG_SCOPE")
        experiments = registries.get("EXPERIMENTS")
        if experiments is not None:
            experiments = experiments | registries.get(
                "BUILTIN_COMMANDS", set())
        if isinstance(scope, ast.Dict):
            for key, value in zip(scope.keys, scope.values):
                if not (isinstance(key, ast.Constant)
                        and isinstance(key.value, str)):
                    continue
                if key.value not in declared:
                    yield self.finding(
                        source, key,
                        f"FLAG_SCOPE scopes {key.value!r}, which no "
                        "add_argument declares as a dest",
                    )
                if experiments is None:
                    continue
                for name, elt in _resolve_string_elts(value, assigns):
                    if name not in experiments:
                        yield self.finding(
                            source, elt,
                            f"FLAG_SCOPE[{key.value!r}] names {name!r}, "
                            "which is not a key of EXPERIMENTS or "
                            "BUILTIN_COMMANDS",
                        )
        yield from self._check_argparse_lockstep(source, declared)

    def _check_runner_names(
        self, source: SourceFile, registry_name: str, node: ast.expr,
    ) -> Iterable[Finding]:
        """Each registry value's runner must be named ``_run_<key>``."""
        if not isinstance(node, ast.Dict):
            return
        for key, value in zip(node.keys, node.values):
            if not (isinstance(key, ast.Constant)
                    and isinstance(key.value, str)):
                continue
            runner: Optional[ast.expr] = None
            if isinstance(value, ast.Tuple) and value.elts:
                runner = value.elts[0]
            if isinstance(runner, ast.Name):
                expected = f"_run_{key.value}"
                if runner.id != expected:
                    yield self.finding(
                        source, runner,
                        f"{registry_name}[{key.value!r}] maps to "
                        f"{runner.id}; the key/runner naming convention "
                        f"expects {expected} (rename one side or suppress "
                        "if the mismatch is deliberate)",
                    )

    @staticmethod
    def _declared_dests(source: SourceFile) -> Dict[str, ast.Call]:
        """Every ``add_argument`` dest in the file, with its call node."""
        declared: Dict[str, ast.Call] = {}
        for node in ast.walk(source.tree):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "add_argument"):
                dest = None
                for keyword in node.keywords:
                    if (keyword.arg == "dest"
                            and isinstance(keyword.value, ast.Constant)):
                        dest = keyword.value.value
                if dest is None and node.args:
                    first = node.args[0]
                    if (isinstance(first, ast.Constant)
                            and isinstance(first.value, str)):
                        dest = first.value.lstrip("-").replace("-", "_")
                if dest is not None:
                    declared.setdefault(dest, node)
        return declared

    def _check_argparse_lockstep(
        self, source: SourceFile, declared: Dict[str, ast.Call],
    ) -> Iterable[Finding]:
        reads: Dict[str, ast.Attribute] = {}
        for node in ast.walk(source.tree):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "args"):
                reads.setdefault(node.attr, node)
        for dest, node_attr in sorted(reads.items()):
            if dest not in declared:
                yield self.finding(
                    source, node_attr,
                    f"args.{dest} is read but no add_argument declares "
                    f"dest {dest!r}; the flag and its consumer drifted "
                    "apart",
                )
        for dest, call in sorted(declared.items()):
            if dest not in reads:
                yield self.finding(
                    source, call,
                    f"flag with dest {dest!r} is declared but args.{dest} "
                    "is never read; dead flags confuse --help and rot "
                    "silently",
                )

    # -------------------------------------------------- registered literals
    def _check_name_literals(
        self, source: SourceFile, optimizers: Set[str],
    ) -> Iterable[Finding]:
        """String literals naming optimizers must be registered."""
        for node in ast.walk(source.tree):
            if isinstance(node, ast.Call):
                for keyword in node.keywords:
                    if keyword.arg == "optimizer":
                        yield from self._check_name(
                            source, keyword.value, optimizers,
                            "optimizer={!r} does not name a registered "
                            "optimizer")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                positional = args.posonlyargs + args.args
                pairs = list(zip(positional[len(positional)
                                            - len(args.defaults):],
                                 args.defaults))
                pairs += [(arg, default) for arg, default
                          in zip(args.kwonlyargs, args.kw_defaults)
                          if default is not None]
                for arg, default in pairs:
                    if arg.arg == "optimizer":
                        yield from self._check_name(
                            source, default, optimizers,
                            "default optimizer={!r} does not name a "
                            "registered optimizer")
            elif (isinstance(node, ast.BoolOp)
                  and isinstance(node.op, ast.Or)
                  and isinstance(node.values[0], ast.Attribute)
                  and node.values[0].attr == "optimizer"):
                # ``args.optimizer or "sgd"`` — the fallback.
                for value in node.values[1:]:
                    yield from self._check_name(
                        source, value, optimizers,
                        "fallback optimizer name {!r} is not registered")

    def _check_name(
        self, source: SourceFile, node: ast.expr, registered: Set[str],
        message: str,
    ) -> Iterable[Finding]:
        if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and node.value not in registered):
            yield self.finding(
                source, node,
                f"{message.format(node.value)} "
                f"({', '.join(sorted(registered))})",
            )
