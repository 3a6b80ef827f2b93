"""Every config field is set by some caller.

A field of a ``*Config`` / ``*Spec`` / ``*SLO`` class under ``src/``
that no run code sets is a constant wearing a knob's clothes: it
widens the configuration space without anyone using the width.  *Run
code* is ``src/``, ``benchmarks/``, ``perfbench/``, ``scripts/`` and
``examples/``; ``tests/`` is not, as in ``tests/test_reachability.py``.
A test that needs another value patches the module constant instead.
This test parses the run-code trees and fails naming each such field,
so dead options do not grow back.

A field counts as set when its name appears as a keyword argument,
an attribute-store target, a string dict-literal key, or an argparse
``dest=`` value anywhere in those trees.
"""

import ast
import functools
import re
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src", "benchmarks", "perfbench", "scripts", "examples")
CONFIG_CLASS = re.compile(r"(Config|Spec|SLO)$")

ALLOWED = {
    "NdbConfig.shards": "perfbench/probes.py's store_capacity reads it",
    "NdbConfig.workers_per_shard":
        "perfbench/probes.py's store_capacity reads it",
}


def _trees(directory):
    for path in sorted((ROOT / directory).rglob("*.py")):
        yield ast.parse(path.read_text(encoding="utf-8"))


@functools.lru_cache(maxsize=None)
def scan():
    """``{directory: trees}`` for every run-code directory."""
    return {directory: tuple(_trees(directory)) for directory in SCANNED}


def config_fields(src):
    """``(class, field)`` for every annotated field of a config class
    in the ``src`` trees."""
    fields = []
    for tree in src:
        for node in ast.walk(tree):
            if not (isinstance(node, ast.ClassDef)
                    and CONFIG_CLASS.search(node.name)):
                continue
            for stmt in node.body:
                if (isinstance(stmt, ast.AnnAssign)
                        and isinstance(stmt.target, ast.Name)
                        and "ClassVar" not in ast.unparse(stmt.annotation)):
                    fields.append((node.name, stmt.target.id))
    return fields


def set_names(trees):
    """Every name some code in ``trees`` sets."""
    names = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.keyword) and node.arg:
                names.add(node.arg)
                if (node.arg == "dest"
                        and isinstance(node.value, ast.Constant)):
                    names.add(node.value.value)
            elif (isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Store)):
                names.add(node.attr)
            elif isinstance(node, ast.Dict):
                names.update(
                    key.value for key in node.keys
                    if isinstance(key, ast.Constant)
                    and isinstance(key.value, str)
                )
    return names


def unset_fields(trees_by_directory):
    """``Class.field`` for each config field under ``src`` that no
    run-code tree sets; any other directory (``tests``) is ignored."""
    names = set_names(
        tree for directory in SCANNED
        for tree in trees_by_directory.get(directory, ()))
    return {
        f"{cls}.{field}" for cls, field in config_fields(
            trees_by_directory["src"])
        if field not in names
    }


def test_config_classes_are_found():
    fields = config_fields(scan()["src"])
    assert {"LambdaFSConfig", "RecoverySLO", "TenantSpec"} <= {
        cls for cls, _ in fields
    }


def test_every_config_field_is_set_by_some_caller():
    unset = unset_fields(scan())
    extra = sorted(unset - set(ALLOWED))
    assert not extra, (
        f"{len(extra)} config field(s) no run code sets; make each a "
        f"module-level constant beside its reader: {', '.join(extra)}"
    )
    stale = sorted(set(ALLOWED) - unset)
    assert not stale, f"allowlisted but set by run code now: {stale}"


def test_a_field_only_tests_set_is_flagged():
    def parsed(source):
        return (ast.parse(textwrap.dedent(source)),)

    found = unset_fields({
        "src": parsed("""
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class CacheConfig:
                capacity: int = 64
                ttl_ms: float = 0.0
                shards: int = 4
        """),
        "scripts": parsed("""
            import argparse
            parser = argparse.ArgumentParser()
            parser.add_argument("--cap", dest="capacity", type=int)
            CacheConfig(ttl_ms=5.0)
        """),
        "tests": parsed("CacheConfig(shards=1)"),
    })
    assert found == {"CacheConfig.shards"}
