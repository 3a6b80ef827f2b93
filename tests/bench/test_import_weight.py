"""Importing the bench drivers does not load the chaos, incident or
tenant layers.

Every perfbench pass imports ``repro.bench``; a module-level import of
a chaos helper there would load the chaos package (and the incident
engine behind its verifier) into every timed process, and a
re-export of the multi-tenant workload would load the tenant package.
A fresh interpreter keeps this honest: ``sys.modules`` of the test
process already holds everything earlier tests imported.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

PROBE = (
    "import sys, repro.bench.experiments; "
    "print('\\n'.join(sorted(sys.modules)))"
)


def test_bench_experiments_import_loads_no_chaos_or_incidents():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    loaded = subprocess.run(
        [sys.executable, "-c", PROBE],
        capture_output=True, text=True, check=True, env=env,
    ).stdout.split()
    assert "repro.bench.experiments" in loaded
    heavy = [
        name for name in loaded
        if name.split(".")[:2] in (
            ["repro", "chaos"], ["repro", "incidents"], ["repro", "tenants"]
        )
    ]
    assert heavy == []
