"""``BENCH_profile.json``'s event hash reproduces in the test suite.

Runs ``repro profile run`` in the shape that produced the committed
baseline (32 clients, 24 ops, 16 warm-up reads, 4 deployments) and
compares the kernel event-sequence hash it writes with the committed
one.  Ids are numbered per ``Environment``, so the run does not depend
on which tests ran before it in the same process.
"""

import json
from pathlib import Path

import pytest

from repro.cli import main

pytestmark = pytest.mark.profile

BASELINE = Path(__file__).resolve().parents[2] / "BENCH_profile.json"


def test_profile_run_reproduces_committed_event_hash(tmp_path, capsys):
    bench = tmp_path / "BENCH_profile.json"
    assert main([
        "profile", "run", "--clients", "32", "--ops", "24",
        "--warmup", "16", "--deployments", "4",
        "--bench-json", str(bench),
    ]) == 0
    capsys.readouterr()
    committed = json.loads(BASELINE.read_text())
    assert json.loads(bench.read_text())["event_hash"] == (
        committed["event_hash"]
    )
