"""Measuring each layer from outside: class-level wrappers on the seven
boundary methods, and snapshots of the counters the layers already keep.

The wrappers delegate with ``yield from`` and schedule nothing, so a
wrapped run takes the same kernel steps as a bare one; the runner
checks that by comparing ``sim.events_per_op`` across passes.
"""

from __future__ import annotations

import functools
from typing import Dict, List

from benchmath import reportable_percentile
from repro.coordination.coordinator import Coordinator
from repro.core.client import LambdaFSClient
from repro.core.namenode import LambdaNameNode
from repro.faas.platform import FaaSPlatform
from repro.metastore.ndb import NdbStore, Transaction
from repro.rpc.connections import TcpConnection

#: metric prefix -> (class, generator method) of each layer boundary.
BOUNDARIES = {
    "client.execute": (LambdaFSClient, "execute"),
    "rpc.tcp_call": (TcpConnection, "call"),
    "faas.invoke": (FaaSPlatform, "invoke"),
    "core.nn_handle": (LambdaNameNode, "handle"),
    "metastore.txn": (NdbStore, "run_transaction"),
    # Writes drive Transaction.begin/commit themselves, not run_transaction.
    "metastore.commit": (Transaction, "commit"),
    "coordination.invalidate": (Coordinator, "invalidate"),
}


class CallStats:
    __slots__ = ("calls", "durations", "returned")

    def __init__(self) -> None:
        self.calls = 0
        self.durations: List[float] = []
        self.returned = 0
        """Sum of integer return values (members sent an INV, for
        ``Coordinator.invalidate``)."""


class Probes:
    """Wraps every boundary method at class level and records each
    call's count and sim-time duration.  Installed at the start of the
    timed window, so only calls that start inside it are seen; never
    removed, because the worker process ends with its one pass."""

    def __init__(self, env) -> None:
        self.env = env
        self.stats = {name: CallStats() for name in BOUNDARIES}
        for name, (cls, method) in BOUNDARIES.items():
            setattr(cls, method, self._wrap(getattr(cls, method), self.stats[name]))

    def _wrap(self, original, stats: CallStats):
        env = self.env

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            start = env.now
            stats.calls += 1
            result = yield from original(*args, **kwargs)
            stats.durations.append(env.now - start)
            if type(result) is int:
                stats.returned += result
            return result

        return wrapper

    def metrics(self, ops: int) -> Dict[str, float]:
        out = {}
        for name, stats in self.stats.items():
            out[f"{name}_per_op"] = stats.calls / ops
            for q in (50, 99):
                value = reportable_percentile(stats.durations, q)
                out[f"{name}_p{q}_ms"] = 0.0 if value is None else value
        return out


def counters(run) -> Dict[str, float]:
    """Cumulative counters of every layer, read without side effects."""
    fs = run.fs
    cache = fs.aggregate_cache_stats()
    store = fs.store.stats
    instances = fs.all_instances()
    return {
        "steps": run.env.steps,
        "sim_ms": run.env.now,
        "records": len(fs.metrics.records),
        "cache_hits": cache.hits,
        "cache_lookups": cache.lookups,
        "cache_invalidations": cache.invalidations,
        "retries": sum(client.stats_retries for client in run.clients),
        "http_rpcs": sum(client.stats_http_rpcs for client in run.clients),
        "tcp_rpcs": sum(client.stats_tcp_rpcs for client in run.clients),
        "rows_read": store.rows_read,
        "commits": store.commits,
        "aborts": store.aborts,
        "store_busy_ms": store.busy_ms,
        "cold_starts": fs.platform.cold_starts,
        "evictions": fs.platform.evictions,
        "nn_busy_ms": sum(instance.busy_ms_snapshot() for instance in instances),
        "nn_provisioned_ms": sum(instance.provisioned_ms() for instance in instances),
        "cost_usd": fs.cost_usd(),
    }


def peak_instances(platform, since_ms: float, live_at_start: int) -> int:
    """Most live NameNodes at once from ``since_ms`` on, replayed from
    the platform's scale-event log (no sampler, so no extra events)."""
    live = live_at_start
    peak = live
    for event in platform.scale_events:
        if event.time_ms < since_ms:
            continue
        live += 1 if event.kind == "provision" else -1
        peak = max(peak, live)
    return peak


def store_capacity(store) -> int:
    """Shard workers that can serve store requests at once."""
    return store.config.shards * store.config.workers_per_shard
