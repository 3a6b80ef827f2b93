"""Every module and definition under ``src/`` is reached by run code.

Code that only tests call is a second copy of behaviour nobody runs:
it is kept true by its own tests and by nothing else.  *Run code* is
``src/``, ``benchmarks/``, ``perfbench/``, ``scripts/`` and
``examples/``; ``tests/`` is not.  This test parses those trees and
fails naming

- each module under ``src/`` that no run-code file imports.  A
  package ``__init__`` that re-exports from it does not count, but a
  run-code import of a name that the ``__init__`` re-exports does;
- each function, class or method under ``src/`` that no run code
  reaches.  Run code reaches a definition by

  - calling it: ``f(...)``, or ``x.m(...)`` for a method ``m``;
  - importing it (an ``__init__`` re-export does not count);
  - naming it where the name resolves to it: in its own module, or
    in a module that imports it, as a base class, a value or an
    annotation (forward-reference strings included), in a scope where
    no local variable of that name hides it;
  - a ``module.f`` access;
  - a bound-method reference ``x.m`` (a callback), when no field or
    property shares the name ``m``.  A property is reached by any
    ``x.p``;
  - a ``getattr``/``setattr``/``hasattr`` string.

A same-named field, property, local variable, dict key or other
string does not reach anything: when some class has a field ``m``,
``x.m`` reads that field as far as this test can tell.  A few
definitions exist for tests on purpose; ``ALLOWED`` lists each with
its reason.
"""

import ast
import functools
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
RUN_CODE = ("benchmarks", "perfbench", "scripts", "examples")
ENTRY_POINTS = {"repro.__main__"}
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
SCOPES = FUNCTIONS + (ast.Lambda,)
REFLECTION = {"getattr", "setattr", "hasattr"}

ALLOWED = {
    "SSTableStore.run_count": "compaction bound",
    "TcpServer.connection_count": "leaked-connection check",
    "OpProfile.attributed_ms": "attribution completeness",
    "Event.processed": "kernel tests",
    "Environment.event": "kernel tests",
    "LockManager.holders": "lock-table snapshot for the lock property tests",
    "MetadataCache.paths": "cache contents for the cache property tests",
    "parse_prometheus_text": "reference parser for the Prometheus exporter",
    "load_report": "reference reader for IncidentReport.save",
    "Coordinator.watch_death": "the mechanism the watch_delay fault perturbs",
}


def _parsed(directory):
    for path in sorted(directory.rglob("*.py")):
        yield path, ast.parse(path.read_text(encoding="utf-8"))


@functools.lru_cache(maxsize=None)
def scan():
    """``(modules, run)``: ``{name: (tree, is_package)}`` for ``src/``,
    and ``(module or None, tree)`` for every run-code file."""
    modules = {}
    for path, tree in _parsed(SRC):
        parts = list(path.relative_to(SRC).with_suffix("").parts)
        is_package = parts[-1] == "__init__"
        if is_package:
            parts.pop()
        modules[".".join(parts)] = (tree, is_package)
    run = [(name, tree) for name, (tree, _) in modules.items()]
    for directory in RUN_CODE:
        run += [(None, tree) for _, tree in _parsed(ROOT / directory)]
    return modules, run


class Resolver:
    """Import resolution over one set of ``src/`` modules."""

    def __init__(self, modules):
        self.modules = modules
        self.reexports = {}
        for package, (tree, is_package) in modules.items():
            if is_package:
                for node in tree.body:
                    if isinstance(node, ast.ImportFrom):
                        origin = self.origin(package, node)
                        for alias in node.names:
                            key = package, alias.asname or alias.name
                            self.reexports[key] = origin

    def origin(self, module, node):
        """The absolute module an ``ImportFrom`` in ``module`` names."""
        if not node.level:
            return node.module
        package = module.split(".")
        if not self.modules[module][1]:
            package.pop()
        base = package[:len(package) - node.level + 1]
        return ".".join(base + ([node.module] if node.module else []))

    def is_package(self, module):
        return module is not None and self.modules[module][1]

    def sources(self, module, name):
        """``module`` and every module a re-export of ``name`` leads to."""
        found = [module]
        target = self.reexports.get((module, name))
        while target is not None:
            found.append(target)
            target = self.reexports.get((target, name))
        return found

    def bindings(self, module, tree):
        """``{local name: [module, ...]}`` for each name a file imports
        from a module, with every module a re-export leads to."""
        bound = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                origin = self.origin(module, node)
                for alias in node.names:
                    bound[alias.asname or alias.name] = self.sources(
                        origin, alias.name)
        return bound

    def aliases(self, module, tree):
        """``{local name: module}`` for each module a file imports
        whole, so ``alias.f`` resolves to ``(module, f)``."""
        found = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        found[alias.asname] = alias.name
                    else:
                        root = alias.name.split(".")[0]
                        found[root] = root
            elif isinstance(node, ast.ImportFrom):
                origin = self.origin(module, node)
                for alias in node.names:
                    if f"{origin}.{alias.name}" in self.modules:
                        found[alias.asname or alias.name] = (
                            f"{origin}.{alias.name}")
        return found

    def attribute(self, aliases, node):
        """``(module, name)`` when ``node`` is ``alias[.sub...].name``
        over an imported module, else ``None``."""
        chain = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name) or node.id not in aliases:
            return None
        path = aliases[node.id]
        for attr in reversed(chain):
            if path in self.modules and f"{path}.{attr}" not in self.modules:
                return path, attr
            path = f"{path}.{attr}"
        return None


def imported_modules():
    """Every module some run-code file, not a package ``__init__``,
    imports: directly, or through a name an ``__init__`` re-exports."""
    modules, run = scan()
    resolver = Resolver(modules)
    seen = set()
    for module, tree in run:
        if resolver.is_package(module):
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                seen.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                origin = resolver.origin(module, node)
                seen.add(origin)
                for alias in node.names:
                    seen.add(f"{origin}.{alias.name}")
                    seen.update(resolver.sources(origin, alias.name)[1:])
    return seen


def _is_property(function):
    return any(
        ast.unparse(decorator).endswith(
            ("property", ".setter", ".getter", ".deleter"))
        for decorator in function.decorator_list
    )


def definitions(modules):
    """``(qualname, module, class or None, name, is_property)`` for
    each top-level function or class and each non-dunder method."""
    found = []
    for module, (tree, _) in modules.items():
        for node in tree.body:
            if isinstance(node, FUNCTIONS + (ast.ClassDef,)):
                found.append((node.name, module, None, node.name, False))
            if isinstance(node, ast.ClassDef):
                found += [
                    (f"{node.name}.{item.name}", module, node.name,
                     item.name, _is_property(item))
                    for item in node.body
                    if isinstance(item, FUNCTIONS)
                    and not item.name.startswith("__")
                ]
    return found


def _declares_all(node):
    return isinstance(node, ast.Assign) and any(
        isinstance(target, ast.Name) and target.id == "__all__"
        for target in node.targets
    )


def _locals(scope):
    """Names a function or lambda binds itself (its parameters, stores
    and ``except`` targets), not counting nested scopes."""
    args = scope.args
    names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
    names.update(a.arg for a in (args.vararg, args.kwarg) if a)
    stack = list(scope.body) if isinstance(scope.body, list) else [scope.body]
    while stack:
        node = stack.pop()
        if isinstance(node, SCOPES + (ast.ClassDef,)):
            if not isinstance(node, ast.Lambda):
                names.add(node.name)
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
        stack.extend(ast.iter_child_nodes(node))
    return names


def _annotations(function):
    args = function.args
    every = (args.posonlyargs + args.args + args.kwonlyargs
             + [a for a in (args.vararg, args.kwarg) if a])
    found = [a.annotation for a in every if a.annotation]
    return found + ([function.returns] if function.returns else [])


def _annotation_names(annotation):
    """Names an annotation uses, forward-reference strings included."""
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                parsed = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            yield from (n.id for n in ast.walk(parsed)
                        if isinstance(n, ast.Name))


class Uses:
    """What run code does with names (see the module docstring)."""

    def __init__(self):
        self.top = set()        # (module, name) a name resolves to
        self.members = set()    # (class, name) named in a class body
        self.called = set()     # m in x.m(...)
        self.loaded = set()     # m in x.m, not called
        self.reflected = set()  # getattr/setattr/hasattr strings
        self.fields = set()     # attribute stores, class-body targets
        self.properties = set()

    def scan(self, resolver, module, tree):
        aliases = resolver.aliases(module, tree)
        calls = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                calls.add(id(node.func))
                if (isinstance(node.func, ast.Name)
                        and node.func.id in REFLECTION
                        and len(node.args) > 1
                        and isinstance(node.args[1], ast.Constant)):
                    self.reflected.add(node.args[1].value)
            elif (isinstance(node, ast.ImportFrom)
                    and not resolver.is_package(module)):
                origin = resolver.origin(module, node)
                for alias in node.names:
                    self.top.update(
                        (source, alias.name)
                        for source in resolver.sources(origin, alias.name))
            elif isinstance(node, ast.Attribute):
                if isinstance(node.ctx, ast.Store):
                    self.fields.add(node.attr)
                    continue
                used = self.called if id(node) in calls else self.loaded
                used.add(node.attr)
                target = resolver.attribute(aliases, node)
                if target is not None:
                    self.top.update((source, target[1])
                                    for source in resolver.sources(*target))
            elif isinstance(node, ast.ClassDef):
                self._scan_class(node)
        self._scan_names(module, resolver.bindings(module, tree), tree.body,
                         frozenset())

    def _scan_class(self, node):
        for item in node.body:
            if isinstance(item, ast.Assign):
                targets = item.targets
            elif isinstance(item, ast.AnnAssign):
                targets = [item.target]
            else:
                targets = []
            self.fields.update(t.id for t in targets if isinstance(t, ast.Name))
            if isinstance(item, FUNCTIONS) and _is_property(item):
                self.properties.add(item.name)
            if not isinstance(item, FUNCTIONS + (ast.ClassDef,)):
                self.members.update((node.name, n.id) for n in ast.walk(item)
                                    if isinstance(n, ast.Name))

    def _scan_names(self, module, bound, nodes, hidden):
        """Record what the names a file loads resolve to, where no local
        of an enclosing function hides them."""
        stack = list(nodes)
        while stack:
            node = stack.pop()
            if _declares_all(node):
                continue
            names = []
            if isinstance(node, SCOPES):
                args = node.args
                stack.extend(args.defaults + [d for d in args.kw_defaults if d])
                if isinstance(node, ast.Lambda):
                    body = [node.body]
                else:
                    stack.extend(node.decorator_list)
                    for annotation in _annotations(node):
                        names.extend(_annotation_names(annotation))
                    body = node.body
                self._scan_names(module, bound, body, hidden | _locals(node))
            elif isinstance(node, ast.AnnAssign):
                names.extend(_annotation_names(node.annotation))
                stack.extend(n for n in (node.target, node.value) if n)
            else:
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    names.append(node.id)
                stack.extend(ast.iter_child_nodes(node))
            for name in names:
                if name in hidden:
                    continue
                if module is not None:
                    self.top.add((module, name))
                self.top.update((source, name) for source in bound.get(name, ()))


def unreached(modules, run):
    """Qualnames of the definitions in ``modules`` that no file in
    ``run`` reaches, per the module docstring."""
    resolver = Resolver(modules)
    uses = Uses()
    for module, tree in run:
        uses.scan(resolver, module, tree)
    return {qualname for qualname, *where in definitions(modules)
            if not _reached(uses, *where)}


@functools.lru_cache(maxsize=None)
def unreached_in_tree():
    return unreached(*scan())


def _reached(uses, module, cls, name, is_property):
    if name in uses.reflected:
        return True
    if cls is None:
        return (module, name) in uses.top
    if name in uses.called or (cls, name) in uses.members:
        return True
    if is_property:
        return name in uses.loaded
    return name in uses.loaded and name not in uses.fields | uses.properties


def test_the_scan_sees_the_tree():
    modules, _ = scan()
    assert {"repro.core.fs", "repro.sim.core"} <= set(modules)
    assert {"LambdaFS", "Environment.run"} <= {
        q for q, *_ in definitions(modules)}
    assert "Environment.run" not in unreached_in_tree()


def test_every_module_is_imported_by_run_code():
    modules, _ = scan()
    seen = imported_modules()
    orphans = sorted(
        name for name, (_, is_package) in modules.items()
        if not is_package and name not in ENTRY_POINTS and name not in seen
    )
    assert not orphans, (
        f"{len(orphans)} module(s) under src/ that no run code imports; "
        f"delete each or give it a caller: {', '.join(orphans)}"
    )


def test_every_definition_is_used_by_run_code():
    unused = unreached_in_tree()
    extra = sorted(unused - set(ALLOWED))
    assert not extra, (
        f"{len(extra)} definition(s) under src/ that no run code reaches; "
        f"delete each or give it a caller: {', '.join(extra)}"
    )
    stale = sorted(set(ALLOWED) - unused)
    assert not stale, f"allowlisted but used by run code now: {stale}"


def _synthetic(sources, run_only=()):
    """``unreached`` over modules built from ``{name: source}``, with
    ``run_only`` sources as extra run-code files."""
    modules = {name: (ast.parse(textwrap.dedent(source)), False)
               for name, source in sources.items()}
    run = [(name, tree) for name, (tree, _) in modules.items()]
    run += [(None, ast.parse(textwrap.dedent(s))) for s in run_only]
    return unreached(modules, run)


def test_a_function_named_only_by_a_field_and_a_string_is_flagged():
    found = _synthetic({
        "pkg.fairness": """
            def burn_rate(fraction, target):
                return fraction / target

            def summarize(stats):
                burn_rate = stats.violations / 0.01
                return {"burn_rate": burn_rate}
        """,
        "pkg.stats": """
            from dataclasses import dataclass

            @dataclass
            class TenantStats:
                burn_rate: float = 0.0

            RULE_KINDS = ("threshold", "burn_rate")
        """,
    }, run_only=["from pkg.fairness import summarize\nsummarize(None)"])
    assert "burn_rate" in found
    assert "summarize" not in found


def test_a_method_hidden_by_a_same_named_field_is_flagged():
    found = _synthetic({
        "pkg.cache": """
            class Cache:
                def paths(self):
                    return []

                def _on_invalidation(self, path):
                    pass

                def attach(self, bus):
                    bus.subscribe(self._on_invalidation)

            class Op:
                def __init__(self, paths):
                    self.paths = paths

            def run(op, cache, bus):
                cache.attach(bus)
                return op.paths
        """,
    }, run_only=["from pkg.cache import run"])
    assert "Cache.paths" in found
    assert "Cache._on_invalidation" not in found
    assert "Cache.attach" not in found


def _bound_imports(tree):
    """``(local name, line)`` for each name the module-level imports
    of ``tree`` bind, ``__future__`` aside; imports nested in a
    top-level ``if``/``try`` (``TYPE_CHECKING``) count as module-level."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.If, ast.Try)):
            stack.extend(ast.iter_child_nodes(node))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _used_names(tree):
    """Names ``tree`` loads, in code or in a forward-reference string,
    and the entries of its ``__all__``."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                parsed = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(parsed) if isinstance(n, ast.Name))
    return used


def unused_imports(modules):
    """``module:line name`` for each module-level import a non-package
    module never uses (a package ``__init__`` re-exports)."""
    found = []
    for module, (tree, is_package) in sorted(modules.items()):
        if is_package:
            continue
        used = _used_names(tree)
        found += [f"{module}:{line} {name}"
                  for name, line in _bound_imports(tree) if name not in used]
    return found


def test_every_src_import_is_used():
    modules, _ = scan()
    unused = unused_imports(modules)
    assert not unused, (
        f"{len(unused)} import(s) under src/ that their module never uses; "
        f"delete each: {', '.join(unused)}"
    )


def test_an_unused_import_is_flagged():
    source = textwrap.dedent("""
        from __future__ import annotations
        import os
        from typing import TYPE_CHECKING, Dict, List
        if TYPE_CHECKING:
            from pkg.fs import LambdaFS
        __all__ = ["List"]

        def build(fs: "LambdaFS") -> None:
            return os.getcwd()
    """)
    modules = {"pkg.mod": (ast.parse(source), False),
               "pkg": (ast.parse("from pkg.mod import build"), True)}
    assert unused_imports(modules) == ["pkg.mod:4 Dict"]
