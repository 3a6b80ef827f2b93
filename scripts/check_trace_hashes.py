"""Check perfbench's traced pass at seed 1 against its pins.

    python3 scripts/check_trace_hashes.py [WORKLOAD ...]

Runs one traced pass of ``perfbench/worker.py`` per workload (all
three by default), each in a fresh process under ``PYTHONHASHSEED=1``,
and compares two fingerprints with the pins in ``PINNED``:

* the *schedule*: the kernel's event hash (``trace.event_hash``);
* the *outcome*: a digest of the pass's ``sim`` block (ops attempted
  and failed, sim-clock latencies, throughput, cost) without
  ``events_per_op``, which counts kernel steps and so is schedule.

Prints one line per workload: ``ok``, ``schedule moved, outcome held``
(the kernel ran a different event sequence to the same results) or
``outcome moved``.  Exits 1 if either fingerprint moved.  A change that
moves the event order on purpose updates the event-hash pin here only
if the outcome held, and says why.  Takes ~30 s for all three on
2 vCPUs.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: workload -> (event hash, sim-block digest)
PINNED = {
    "read-hot": (
        "1f59ec7c6153560039666ca0ac63576f", "d0c0d599e24b024f7f951ac1ffd9b603",
    ),
    "create-contended": (
        "e887a38bcb64d4a3f59b48b42c05ebd4", "bcbc11535c56081a1626cb6bbbd3b63b",
    ),
    "spotify-burst": (
        "a43e3dc401e2b1399da82f90af311e26", "a267e12599214354b994d5c47c977d95",
    ),
}


def sim_digest(sim: dict) -> str:
    """blake2b of the ``sim`` block minus ``events_per_op``."""
    outcome = {key: value for key, value in sim.items() if key != "events_per_op"}
    text = json.dumps(outcome, sort_keys=True)
    return hashlib.blake2b(text.encode(), digest_size=16).hexdigest()


def traced_pass(workload: str) -> tuple:
    """(event hash, sim digest) of one traced pass at seed 1."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="1")
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"),
         "--workload", workload, "--seed", "1", "--pass", "traced"],
        env=env, cwd=ROOT, check=True, capture_output=True, text=True,
    ).stdout
    result = json.loads(out.strip().splitlines()[-1])
    return result["trace"]["event_hash"], sim_digest(result["sim"])


def main(argv) -> int:
    moved = 0
    for workload in argv or sorted(PINNED):
        event_hash, digest = traced_pass(workload)
        pinned_hash, pinned_digest = PINNED[workload]
        if digest != pinned_digest:
            verdict = f"outcome moved, pinned sim {pinned_digest}"
        elif event_hash != pinned_hash:
            verdict = f"schedule moved, outcome held, pinned {pinned_hash}"
        else:
            verdict = "ok"
        moved += verdict != "ok"
        print(f"{workload}: {event_hash} sim {digest} {verdict}")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
