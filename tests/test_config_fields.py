"""Every config field is set by some caller.

A field of a ``*Config`` / ``*Spec`` / ``*SLO`` class under ``src/``
that no code ever sets is a constant wearing a knob's clothes: it
widens the configuration space without anyone using the width.  This
test parses the source, test, benchmark and script trees and fails
naming each such field, so dead options do not grow back.

A field counts as set when its name appears as a keyword argument,
an attribute-store target, a string dict-literal key, or an argparse
``dest=`` value anywhere in those trees.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src", "tests", "benchmarks", "perfbench", "scripts", "examples")
CONFIG_CLASS = re.compile(r"(Config|Spec|SLO)$")


def _trees(directory):
    for path in sorted((ROOT / directory).rglob("*.py")):
        yield ast.parse(path.read_text(encoding="utf-8"))


def config_fields():
    """``(class, field)`` for every annotated field of a config class."""
    fields = []
    for tree in _trees("src"):
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


def set_names():
    """Every name some code in the scanned trees sets."""
    names = set()
    for directory in SCANNED:
        for tree in _trees(directory):
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


def test_config_classes_are_found():
    fields = config_fields()
    assert {"LambdaFSConfig", "RecoverySLO", "TenantSpec"} <= {
        cls for cls, _ in fields
    }


def test_every_config_field_is_set_by_some_caller():
    names = set_names()
    unset = [
        f"{cls}.{field}" for cls, field in config_fields()
        if field not in names
    ]
    assert not unset, (
        f"{len(unset)} config field(s) no caller sets; make each a "
        f"module-level constant beside its reader: {', '.join(unset)}"
    )
