"""Check perfbench's traced event hashes at seed 1 against their pins.

    python3 scripts/check_trace_hashes.py [WORKLOAD ...]

Runs one traced pass of ``perfbench/worker.py`` per workload (all
three by default), each in a fresh process under ``PYTHONHASHSEED=1``,
and compares its ``trace.event_hash`` with the pin in ``PINNED``.
Prints one line per workload and exits 1 if any hash moved.  A change
that moves the kernel's event order on purpose updates its pin here
and says why.  Takes ~30 s for all three on 2 vCPUs.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PINNED = {
    "read-hot": "62ba62c48b2ded1f605efe673cb32c06",
    "create-contended": "cbe02306d2cd16a1a7b0ea107c918ea0",
    "spotify-burst": "b78abab30eef2a847b8b1e529e0047bb",
}


def traced_hash(workload: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="1")
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"),
         "--workload", workload, "--seed", "1", "--pass", "traced"],
        env=env, cwd=ROOT, check=True, capture_output=True, text=True,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])["trace"]["event_hash"]


def main(argv) -> int:
    moved = 0
    for workload in argv or sorted(PINNED):
        got = traced_hash(workload)
        ok = got == PINNED[workload]
        moved += not ok
        print(f"{workload}: {got} {'ok' if ok else 'MOVED, pinned ' + PINNED[workload]}")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
