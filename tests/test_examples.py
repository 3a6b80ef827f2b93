"""Smoke tests: the runnable examples actually run.

Examples count as callers for the reachability, config-field and
parameter guards, so an example that keeps code alive must run.
Every example that finishes in seconds runs here; the two long
scenario scripts (spotify_burst, elastic_scaling) are imported only,
and the benchmark suite runs their equivalent drivers.
"""

import importlib.util
import sys
from pathlib import Path

EXAMPLES = Path(__file__).parent.parent / "examples"


def load_example(name):
    spec = importlib.util.spec_from_file_location(name, EXAMPLES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def test_quickstart_runs(capsys):
    module = load_example("quickstart")
    module.main()
    out = capsys.readouterr().out
    assert "mkdirs  -> ok=True" in out
    assert "block locations" in out
    assert "pay-per-use cost so far" in out


def test_indexfs_port_runs(capsys):
    module = load_example("indexfs_port")
    # Shrink the scenario so the smoke test stays fast.
    module.CLIENTS = 8
    from repro.workloads import TreeTestConfig

    module.CONFIG = TreeTestConfig(writes_per_client=20, reads_per_client=20)
    module.main()
    out = capsys.readouterr().out
    assert "write throughput" in out
    assert "λIndexFS" in out


def test_fault_tolerance_runs(capsys):
    load_example("fault_tolerance").main()
    assert "operations completed : 38400/38400" in capsys.readouterr().out


def test_permissions_and_blocks_runs(capsys):
    load_example("permissions_and_blocks").main()
    out = capsys.readouterr().out
    assert "bob reads plan.txt again  -> ok=False  (AccessDeniedError" in out


def test_all_examples_importable():
    for path in sorted(EXAMPLES.glob("*.py")):
        spec = importlib.util.spec_from_file_location(path.stem + "_import", path)
        module = importlib.util.module_from_spec(spec)
        # Import only (no main()) — catches syntax/import rot.
        spec.loader.exec_module(module)
