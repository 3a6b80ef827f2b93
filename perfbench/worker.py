"""One pass of one workload in a fresh process; prints one JSON line.

    PYTHONPATH=src python3 perfbench/worker.py --workload read-hot \\
        --seed 1 --pass timed

Passes:

* ``timed``   — untraced; the only pass end-to-end numbers come from.
* ``traced``  — profiler-traced, with the boundary wrappers of
  probes.py; gives counts, sim-time percentiles and stage shares.
* ``profile`` — untraced under cProfile; gives host self time per
  package.  Its wall time is never reported.

Every pass runs the same setup and window, so every pass must report
the same sim-clock numbers; run.py checks that.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse
import cProfile
import json
import pstats
import resource
import sys

from benchmath import (
    ratio,
    reportable_percentile,
    self_time_by_package,
    shortfall_ratio,
    window_delta,
)
from repro.profile.critical_path import Profile
from probes import Probes, counters, peak_instances, store_capacity
from workloads import READ_OPS, WORKLOADS, WRITE_OPS, setup


def _percentiles(prefix: str, values, out: dict) -> None:
    for q in (50, 99):
        value = reportable_percentile(values, q)
        out[f"{prefix}_p{q}_ms"] = 0.0 if value is None else value
    out[f"{prefix}_samples"] = len(values)


def sim_metrics(run, delta: dict, records) -> dict:
    """Sim-clock results of the window; identical for a given seed."""
    attempted = len(records)
    completed = sum(1 for record in records if record.ok)
    window_s = delta["sim_ms"] / 1_000.0
    out = {
        "attempted": attempted,
        "failed": attempted - completed,
        "completed": completed,
        "window_sim_s": window_s,
        "model_ops_per_s": (
            # Little's law: a closed loop with no think time completes
            # clients / mean latency ops per second while every client
            # is busy.  completed / window would instead hinge on the
            # one slowest client draining its last op.
            len(run.clients) * completed / sum(r.latency_ms for r in records) * 1_000.0
            if run.target_ops is None else completed / window_s
        ),
        "cost_usd_per_mops": delta["cost_usd"] / completed * 1e6,
        "events_per_op": delta["steps"] / attempted,
    }
    # A closed loop asks for exactly the ops it attempts.
    target = attempted if run.target_ops is None else run.target_ops
    out["target_ops"] = target
    out["shortfall_ratio"] = shortfall_ratio(completed, target)
    _percentiles("op", [record.latency_ms for record in records], out)
    _percentiles("read", [r.latency_ms for r in records if r.op in READ_OPS], out)
    _percentiles("write", [r.latency_ms for r in records if r.op in WRITE_OPS], out)
    return out


def layer_metrics(run, delta: dict, sim: dict, live_at_start: int, start_ms: float) -> dict:
    """Windowed counter ratios of every layer (traced pass)."""
    ops = sim["attempted"]
    writes = sim["write_samples"]
    txns = delta["commits"] + delta["aborts"]
    return {
        "sim.events_per_op": sim["events_per_op"],
        "core.retries_per_op": delta["retries"] / ops,
        "namespace.cache_hit_ratio": ratio(delta["cache_hits"], delta["cache_lookups"]),
        "namespace.invalidations_per_write": ratio(delta["cache_invalidations"], writes),
        "metastore.rows_read_per_op": delta["rows_read"] / ops,
        "metastore.abort_ratio": ratio(delta["aborts"], txns),
        "metastore.shard_busy_share": delta["store_busy_ms"]
        / (delta["sim_ms"] * store_capacity(run.fs.store)),
        "rpc.http_share": ratio(delta["http_rpcs"], delta["http_rpcs"] + delta["tcp_rpcs"]),
        "faas.cold_starts": delta["cold_starts"],
        "faas.evictions": delta["evictions"],
        "faas.peak_instances": peak_instances(run.fs.platform, start_ms, live_at_start),
        "faas.busy_share": ratio(delta["nn_busy_ms"], delta["nn_provisioned_ms"]),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pass", dest="kind", required=True,
                        choices=("timed", "traced", "profile"))
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    run = setup(workload, args.seed, profile=args.kind == "traced")
    # Set-up is everything this process does before the window,
    # imports included, so work moved to import time still shows.
    setup_s = time.perf_counter() - PROCESS_START

    probes = Probes(run.env) if args.kind == "traced" else None
    live_at_start = run.fs.platform.total_live_instances()
    start_ms = run.env.now
    before = counters(run)
    profiler = cProfile.Profile() if args.kind == "profile" else None
    began = time.perf_counter()
    if profiler is not None:
        profiler.enable()
    run.window()
    if profiler is not None:
        profiler.disable()
    wall_s = time.perf_counter() - began
    delta = window_delta(before, counters(run))
    records = run.fs.metrics.records[before["records"]:]
    sim = sim_metrics(run, delta, records)

    result = {
        "pass": args.kind,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "sim": sim,
        "checks": [],
    }
    if args.kind == "timed":
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["host_ops_per_s"] = sim["completed"] / wall_s
        missing = run.unacknowledged_creates()
        if missing:
            result["checks"].append(
                f"{len(missing)} of {len(run.acked)} acknowledged creates not visible, "
                f"e.g. {missing[0]}"
            )
        result["acked_creates"] = len(run.acked)
    elif args.kind == "traced":
        layers = layer_metrics(run, delta, sim, live_at_start, start_ms)
        for name, value in probes.metrics(sim["attempted"]).items():
            layers[name] = value
        layers["coordination.invs_per_write"] = ratio(
            probes.stats["coordination.invalidate"].returned, sim["write_samples"]
        )
        tracer = run.handle.tracer
        summary = tracer.summary()
        profile = run.handle.profiler.analyze()
        # Only ops that start in the window: the prewarm cold starts
        # would otherwise dominate the stage shares.
        in_window = Profile([op for op in profile.ops if op.start_ms >= start_ms])
        for stage, share in in_window.stage_shares().items():
            layers[f"stage.{stage}.share"] = share
        layers["trace.spans_dropped"] = summary["dropped"]
        result["layers"] = layers
        result["trace"] = {
            "event_hash": summary["event_hash"],
            "violations": summary["violations"],
            "open_client_ops": profile.open_roots,
            "profiled_ops": len(in_window),
        }
    else:
        rows = [
            (filename, row[2])
            for (filename, _line, _func), row in pstats.Stats(profiler).stats.items()
        ]
        result["self_s"] = self_time_by_package(rows)
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
