"""Every module and definition under ``src/`` is reached by run code.

Code that only tests call is a second copy of behaviour nobody runs:
it is kept true by its own tests and by nothing else.  *Run code* is
``src/``, ``benchmarks/``, ``perfbench/``, ``scripts/`` and
``examples/``; ``tests/`` is not.  This test parses those trees and
fails naming

- each module under ``src/`` that no run-code file imports.  A
  package ``__init__`` that re-exports from it does not count, but a
  run-code import of a name that the ``__init__`` re-exports does;
- each function, class or method under ``src/`` whose name no run
  code uses: as a bare name, as an attribute, or as an identifier
  string (``getattr`` dispatch, forward references).  An ``__all__``
  entry declares a name; it does not use it.

The check is by name, so a definition counts as used when any
same-named thing is used.  A few definitions exist for tests on
purpose; ``ALLOWED`` lists each with its reason.
"""

import ast
import functools
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
RUN_CODE = ("benchmarks", "perfbench", "scripts", "examples")
ENTRY_POINTS = {"repro.__main__"}

ALLOWED = {
    "SSTableStore.run_count": "compaction bound",
    "TcpServer.connection_count": "leaked-connection check",
    "OpProfile.attributed_ms": "attribution completeness",
    "Event.processed": "kernel tests",
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


def _origin(modules, module, node):
    """The absolute module an ``ImportFrom`` in ``module`` names."""
    if not node.level:
        return node.module
    package = module.split(".")
    if not modules[module][1]:
        package.pop()
    base = package[:len(package) - node.level + 1]
    return ".".join(base + ([node.module] if node.module else []))


def imported_modules():
    """Every module some run-code file, not a package ``__init__``,
    imports: directly, or through a name an ``__init__`` re-exports."""
    modules, run = scan()
    reexports = {}
    for package, (tree, is_package) in modules.items():
        if is_package:
            for node in tree.body:
                if isinstance(node, ast.ImportFrom):
                    origin = _origin(modules, package, node)
                    for alias in node.names:
                        reexports[package, alias.asname or alias.name] = origin
    seen = set()
    for module, tree in run:
        if module is not None and modules[module][1]:
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                seen.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                origin = _origin(modules, module, node)
                seen.add(origin)
                for alias in node.names:
                    seen.add(f"{origin}.{alias.name}")
                    target = reexports.get((origin, alias.name))
                    while target is not None:
                        seen.add(target)
                        target = reexports.get((target, alias.name))
    return seen


def definitions():
    """``(qualname, name)`` for each top-level function or class and
    each non-dunder method under ``src/``."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    found = []
    for tree, _ in scan()[0].values():
        for node in tree.body:
            if isinstance(node, functions + (ast.ClassDef,)):
                found.append((node.name, node.name))
            if isinstance(node, ast.ClassDef):
                found += [
                    (f"{node.name}.{item.name}", item.name)
                    for item in node.body
                    if isinstance(item, functions)
                    and not item.name.startswith("__")
                ]
    return found


def _declares_all(node):
    return isinstance(node, ast.Assign) and any(
        isinstance(target, ast.Name) and target.id == "__all__"
        for target in node.targets
    )


def used_names():
    """Every name run code uses (see the module docstring)."""
    names = set()
    for _, tree in scan()[1]:
        for top in tree.body:
            if _declares_all(top):
                continue
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif (isinstance(node, ast.Constant)
                        and isinstance(node.value, str)
                        and node.value.isidentifier()):
                    names.add(node.value)
    return names


def test_the_scan_sees_the_tree():
    assert {"repro.core.fs", "repro.sim.core"} <= set(scan()[0])
    assert {"LambdaFS", "Environment.run"} <= {q for q, _ in definitions()}
    assert "run" in used_names()


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
    names = used_names()
    unused = {qualname for qualname, name in definitions()
              if name not in names}
    extra = sorted(unused - set(ALLOWED))
    assert not extra, (
        f"{len(extra)} definition(s) under src/ that only tests use; "
        f"delete each or give it a caller: {', '.join(extra)}"
    )
    stale = sorted(set(ALLOWED) - unused)
    assert not stale, f"allowlisted but used by run code now: {stale}"
