"""End-to-end telemetry: instrumented runs on the real system.

These exercise the full wiring — registry installed before the build,
callback gauges over live structures, counters on the hot paths — and
the guarantees the subsystem advertises: determinism with telemetry
on, zero footprint with it off.
"""

import pytest

from repro.bench.harness import (
    build_hopsfs_cache,
    build_lambdafs,
    drive,
)
from repro.core import OpType
from repro.namespace.cache import CacheStats
from repro.namespace.treegen import TreeSpec, generate_tree
from repro.sim import Environment
from repro.workloads import MicroBenchmark

pytestmark = pytest.mark.telemetry


def _run_micro(telemetry: bool, trace: bool = False, clients: int = 16,
               ops: int = 8, replacement: float = 0.05, seed: int = 0):
    env = Environment()
    tree = generate_tree(TreeSpec(seed=seed))
    handle = build_lambdafs(
        env, tree, deployments=4, seed=seed,
        client_overrides={"replacement_probability": replacement},
        trace=trace, telemetry=telemetry, telemetry_interval_ms=100.0,
    )
    client_objects = handle.make_clients(clients)
    drive(env, handle.prewarm())
    bench = MicroBenchmark(env, tree, seed=seed)
    drive(env, bench.run(client_objects, OpType.READ_FILE, ops, 4))
    if handle.telemetry is not None:
        handle.telemetry.stop()
    return handle


def test_instrumented_run_populates_key_families():
    handle = _run_micro(telemetry=True)
    registry = handle.telemetry.registry
    snapshot = registry.collect()
    # RPC fabric: both transports seen (first contact is HTTP, the
    # rest TCP).
    assert snapshot['rpc_requests_total{transport="http"}'] > 0
    assert snapshot['rpc_requests_total{transport="tcp"}'] > 0
    # FaaS platform: invocations and cold starts counted, live
    # instances visible through the callback gauges.
    assert registry.get("faas_invocations_total").total() > 0
    assert registry.get("faas_cold_starts_total").total() > 0
    live = registry.get("faas_instances_live")
    assert live is not None
    assert sum(live.collect().values()) == handle.active_servers()
    # Metastore: the namespace install + reads committed transactions.
    assert registry.get("store_commits").value() > 0
    # Client ops and their latency distribution.
    assert registry.get("ops_total").total() > 0
    assert registry.get("op_latency_ms").aggregate_quantile(0.99) > 0


def test_cache_gauges_agree_with_cachestats():
    handle = _run_micro(telemetry=True)
    registry = handle.telemetry.registry
    stats = handle.system.aggregate_cache_stats()
    assert stats.lookups > 0
    hits_gauge = registry.get("cache_hits_total")
    assert sum(hits_gauge.collect().values()) == stats.hits


def test_coordinator_counters_on_subtree_move():
    handle = _run_micro(telemetry=True)
    registry = handle.telemetry.registry
    env = handle.env
    client = handle.make_clients(1)[0]

    def move(env):
        yield from client.mv("/bench/d0_0", "/bench/d0_0_moved")

    drive(env, move(env))
    assert registry.get("coord_inv_rounds_total").total() > 0
    assert registry.get("coord_acks_total").total() > 0
    invalidations = registry.get("cache_invalidations_total")
    assert sum(invalidations.collect().values()) > 0


def test_telemetry_off_leaves_no_registry():
    handle = _run_micro(telemetry=False)
    assert handle.env.metrics is None
    assert handle.telemetry is None


def test_same_seed_runs_are_byte_identical():
    def sample_stream():
        handle = _run_micro(telemetry=True, trace=True)
        ts = handle.telemetry.timeseries
        return ts.samples, handle.tracer.summary()["event_hash"]

    first_samples, first_hash = sample_stream()
    second_samples, second_hash = sample_stream()
    assert first_samples == second_samples
    assert first_hash == second_hash


def test_disabled_telemetry_preserves_event_hash():
    # The instrumentation sites must be invisible when telemetry is
    # off: a traced run hashes identically to the pre-telemetry
    # behavior (and trivially to any other telemetry-off run).
    hashes = set()
    for _ in range(2):
        handle = _run_micro(telemetry=False, trace=True)
        hashes.add(handle.tracer.summary()["event_hash"])
    assert len(hashes) == 1


def test_shared_env_builders_share_one_bundle():
    env = Environment()
    tree = generate_tree(TreeSpec())
    first = build_lambdafs(env, tree, deployments=2, telemetry=True)
    second = build_hopsfs_cache(env, tree, telemetry=True)
    assert first.telemetry is second.telemetry
    assert env.metrics is first.telemetry.registry


def test_hopsfs_cache_stats_aggregation():
    env = Environment()
    tree = generate_tree(TreeSpec())
    handle = build_hopsfs_cache(env, tree, vcpus=64.0)
    client_objects = handle.make_clients(4)
    bench = MicroBenchmark(env, tree, seed=0)
    drive(env, bench.run(client_objects, OpType.READ_FILE, 8, 2))
    stats = CacheStats.aggregate(nn.cache.stats for nn in handle.system.namenodes)
    assert stats.lookups > 0
    assert stats.hits == sum(r.cache_hit for r in handle.metrics.records)


def test_scale_out_follows_replacement_probability():
    """Fig 6's premise: the deliberate HTTP signal drives the fleet.

    With shared TCP connections pre-established, a p=0 run never
    scales past the connected fleet while a high-p run provisions
    extra NameNodes from the replacement invocations alone.
    """
    fleets = {}
    for p in (0.0, 0.5):
        env = Environment()
        tree = generate_tree(TreeSpec())
        handle = build_lambdafs(
            env, tree, deployments=4,
            client_overrides={"replacement_probability": p},
            telemetry=True, telemetry_interval_ms=250.0,
        )
        client_objects = handle.make_clients(64)
        drive(env, handle.prewarm())
        bench = MicroBenchmark(env, tree, seed=0)
        # Prelude: establish the VM-shared connections cheaply.
        drive(env, bench.run(client_objects[:4], OpType.READ_FILE, 0, 16))
        connected = handle.active_servers()
        drive(env, bench.run(client_objects, OpType.READ_FILE, 96, 0))
        handle.telemetry.stop()
        fleets[p] = (connected, handle.active_servers())
    assert fleets[0.0][1] == fleets[0.0][0]  # no signal, no growth
    assert fleets[0.5][1] > fleets[0.5][0]   # signal scales out
    assert fleets[0.5][1] > fleets[0.0][1]
