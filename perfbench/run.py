"""End-to-end λFS benchmark: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload read-hot --seed 1 --seconds 15 --trace 0

Run from the repository root.  Every pass of the workload runs in a
fresh single-threaded worker process (worker.py), one at a time, each
under its own PYTHONHASHSEED so hash-order bugs show as a mismatch:

* ``--trace 0``: untraced timed passes, repeated until ``--seconds`` of
  window wall time are measured (at least three); prints the
  end-to-end metrics, host-clock ones as the median over passes.
* ``--trace 1``: one timed pass, two traced passes and one cProfile
  pass; prints the per-layer metrics.

Checks (any failure exits 1): the window has no failed op; every
acknowledged create is visible to a later stat; the traced passes see
no invariant violation and no open client op; and every pass reports
identical sim-clock results (the traced passes also an identical
event hash), which shows the runs are deterministic and the wrappers
do not perturb them.  The last stdout line is the JSON result; the
line before it records the provenance of the numbers.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
LIMIT_S = 170.0
"""Whole-run budget; a run that needs longer fails instead."""
MIN_TIMED_PASSES = 3
MAX_TIMED_PASSES = 8


class BenchError(Exception):
    pass


class Runner:
    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + LIMIT_S
        self.passes = []
        self.failures = []

    def spawn(self, kind: str) -> dict:
        """Run one pass in a fresh worker process and return its result."""
        hash_seed = len(self.passes) + 1
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=str(hash_seed))
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError(f"out of time before the {kind} pass")
        try:
            proc = subprocess.run(
                [sys.executable, str(WORKER), "--workload", self.workload,
                 "--seed", str(self.seed), "--pass", kind],
                cwd=ROOT, env=env, capture_output=True, text=True, timeout=remaining,
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"{kind} pass did not finish within the run budget")
        if proc.returncode != 0:
            raise BenchError(f"{kind} pass failed:\n{proc.stderr[-2000:]}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["hash_seed"] = hash_seed
        self.passes.append(result)
        self.failures.extend(f"{kind} pass: {check}" for check in result["checks"])
        return result

    def check_determinism(self) -> None:
        reference = self.passes[0]["sim"]
        for result in self.passes[1:]:
            if result["sim"] != reference:
                differing = sorted(
                    key for key in reference if result["sim"].get(key) != reference[key]
                )
                self.failures.append(
                    f"{result['pass']} pass (PYTHONHASHSEED={result['hash_seed']}) "
                    f"differs from the first pass in {differing}"
                )
        if reference["failed"]:
            self.failures.append(f"{reference['failed']} ops failed in the window")

    def end_to_end(self, seconds: float) -> dict:
        timed = []
        while len(timed) < MIN_TIMED_PASSES or (
            sum(result["wall_s"] for result in timed) < seconds
            and len(timed) < MAX_TIMED_PASSES
        ):
            timed.append(self.spawn("timed"))
        sim = timed[0]["sim"]
        for name in ("op_p50_ms", "op_p99_ms"):
            if not sim[name]:
                raise BenchError(f"{name}: too few samples ({sim['op_samples']})")

        def median(key):
            return statistics.median(result[key] for result in timed)

        return {
            "host_ops_per_s": (median("host_ops_per_s"), "ops/s"),
            "peak_rss_mb": (median("peak_rss_mb"), "MB"),
            "setup_s": (median("setup_s"), "s"),
            "model_ops_per_s": (sim["model_ops_per_s"], "ops/s"),
            "op_p50_ms": (sim["op_p50_ms"], "ms"),
            "op_p99_ms": (sim["op_p99_ms"], "ms"),
            "cost_usd_per_mops": (sim["cost_usd_per_mops"], "usd/Mops"),
        }

    def per_layer(self) -> dict:
        timed = self.spawn("timed")
        traced = [self.spawn("traced"), self.spawn("traced")]
        profiled = self.spawn("profile")
        hashes = {result["trace"]["event_hash"] for result in traced}
        if len(hashes) != 1:
            self.failures.append(f"traced passes disagree on the event hash: {sorted(hashes)}")
        for result in traced:
            trace = result["trace"]
            if trace["violations"]:
                self.failures.append(f"{trace['violations']} invariant violations")
            if trace["open_client_ops"]:
                self.failures.append(f"{trace['open_client_ops']} client ops never closed")
        sim = timed["sim"]
        ops = sim["attempted"]
        metrics = {name: (value, _unit(name)) for name, value in traced[0]["layers"].items()}
        for package, seconds in profiled["self_s"].items():
            metrics[f"{package}.self_us_per_op"] = (seconds / ops * 1e6, "us/op")
        for kind in ("read", "write"):
            for q in (50, 99):
                metrics[f"client.{kind}_p{q}_ms"] = (sim[f"{kind}_p{q}_ms"], "ms")
        metrics["workload.shortfall_ratio"] = (sim["shortfall_ratio"], "1")
        metrics["trace.overhead_ratio"] = (
            statistics.median(result["wall_s"] for result in traced) / timed["wall_s"], "1",
        )
        return metrics


UNITS = {
    "sim.events_per_op": "events/op",
    "core.retries_per_op": "retries/op",
    "metastore.rows_read_per_op": "rows/op",
    "namespace.invalidations_per_write": "entries/write",
    "coordination.invs_per_write": "invs/write",
    "faas.cold_starts": "count",
    "faas.evictions": "count",
    "faas.peak_instances": "count",
    "trace.spans_dropped": "count",
}


def _unit(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_per_op"):
        return "calls/op"
    return "1"


def provenance(args, workload_params: dict, passes: list) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "params": workload_params,
        "git_sha": _git_sha(),
        "src_sha256": _source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "passes": [
            {"pass": result["pass"], "hash_seed": result["hash_seed"],
             "wall_s": result["wall_s"], "setup_s": result["setup_s"]}
            for result in passes
        ],
    }


def _git_sha():
    """HEAD of the repository at ROOT, or None when ROOT is not one."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _source_digest() -> str:
    """SHA-256 over the simulator's sources, for checkouts without git."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")

    runner = Runner(args.workload, args.seed)
    try:
        metrics = runner.per_layer() if args.trace else runner.end_to_end(args.seconds)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    runner.check_determinism()
    sim = runner.passes[0]["sim"]
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{name:40s} {value:14.6g} {unit}")
    print(f"window: {sim['attempted']} ops, {sim['read_samples']} reads, "
          f"{sim['write_samples']} writes, {sim['window_sim_s']:.3f} sim-s; "
          f"{len(runner.passes)} passes")
    for failure in runner.failures:
        print(f"CHECK FAILED: {failure}")
    print(json.dumps({"provenance": provenance(
        args, WORKLOADS[args.workload].params(), runner.passes)}))
    correct = not runner.failures
    print(json.dumps({
        "correct": correct,
        "attempted": sim["attempted"],
        "failed": sim["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
