"""One driver per paper table/figure (see DESIGN.md experiment index).

All experiments run at a documented scale-down: systems keep their
paper-calibrated constants (NDB capacity, latencies, per-op CPU), so
*ratios and crossovers* are preserved, while client counts and load
targets are reduced so a full suite completes in minutes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.baselines import IndexFSCluster, IndexFSConfig, LambdaIndexFS, LambdaIndexFSConfig
from repro.bench.harness import (
    SystemHandle,
    build_cephfs,
    build_hopsfs,
    build_hopsfs_cache,
    build_infinicache,
    build_lambdafs,
    drive,
    run_micro,
)
from repro.core import OpType
from repro.core.subtree import SubtreeConfig
from repro.chaos.faults import NameNodeKiller
from repro.metastore import NdbConfig
from repro.metrics import VM_VCPU_SECOND_USD, latency_cdf, percentile
from repro.namespace.treegen import TreeSpec, flat_directory, generate_tree
from repro.sim import Environment
from repro.workloads import SpotifyConfig, SpotifyWorkload, TreeTest, TreeTestConfig

DEFAULT_TREE = TreeSpec(depth=3, dirs_per_dir=4, files_per_dir=8)

#: The Spotify experiments keep the paper-calibrated NDB (mixed
#: capacity ~23k ops/s, matching HopsFS' observed ceiling) and drive a
#: 6k-ops/s base whose Pareto bursts exceed that ceiling — the same
#: relationship as the paper's 25k base vs its testbed's capacity, at
#: a scale a simulation completes in minutes.
SPOTIFY_NDB = NdbConfig()


# ---------------------------------------------------------------------------
# Figures 8, 9, 10, 15 — the Spotify industrial workload suite
# ---------------------------------------------------------------------------


@dataclass
class SpotifyRun:
    """Everything measured during one system's Spotify execution."""

    name: str
    throughput_timeline: List[Tuple[float, float]]
    nn_timeline: List[Tuple[float, int]]
    cost_timeline: List[Tuple[float, float]]
    avg_throughput: float
    peak_throughput: float
    avg_latency_ms: float
    final_cost_usd: float
    simplified_cost_usd: Optional[float] = None
    latencies_by_op: Dict[str, List[float]] = field(default_factory=dict)
    issued: int = 0
    completed: int = 0
    trace_report: Optional[dict] = None
    """Tracer summary + invariant violations (``trace=True`` runs)."""

    def read_latency_cdf(self, op: str = "read file"):
        return latency_cdf(self.latencies_by_op.get(op, []))

    def perf_per_cost_timeline(self) -> List[Tuple[float, float]]:
        """ops/sec per incremental $ for each sampling interval."""
        series = []
        previous_cost = 0.0
        costs = dict(self.cost_timeline)
        for t, ops in self.throughput_timeline:
            cost_now = costs.get(t)
            if cost_now is None:
                continue
            delta = max(cost_now - previous_cost, 1e-12)
            previous_cost = cost_now
            series.append((t, ops / delta))
        return series


def _spotify_driver(
    handle: SystemHandle,
    tree,
    base_throughput: float,
    duration_ms: float,
    clients: int,
    seed: int,
    kill_interval_ms: Optional[float] = None,
    interval_ms: float = 10_000.0,
) -> SpotifyRun:
    env = handle.env
    client_objects = handle.make_clients(clients)
    if handle.prewarm is not None:
        drive(env, handle.prewarm())

    nn_timeline: List[Tuple[float, int]] = []
    cost_timeline: List[Tuple[float, float]] = []
    start = env.now

    def sampler(env):
        while True:
            nn_timeline.append((env.now - start, handle.active_servers()))
            cost_timeline.append((env.now - start, handle.cost_usd(env.now - start)))
            yield env.timeout(1_000.0)

    sampler_proc = env.process(sampler(env))

    killer = None
    if kill_interval_ms is not None and hasattr(handle.system, "platform"):
        killer = NameNodeKiller(env, handle.system.platform, kill_interval_ms)
        killer.start()

    workload = SpotifyWorkload(
        env,
        SpotifyConfig(
            base_throughput=base_throughput,
            duration_ms=duration_ms,
            interval_ms=interval_ms,
            seed=seed,
        ),
        tree,
    )
    drive(env, workload.run(client_objects))
    if killer is not None:
        killer.stop()
    if sampler_proc.is_alive:
        sampler_proc.interrupt()

    metrics = handle.metrics
    elapsed = env.now - start
    latencies_by_op: Dict[str, List[float]] = {}
    for record in metrics.records:
        latencies_by_op.setdefault(record.op, []).append(record.latency_ms)
    fs = handle.system
    simplified = (
        fs.simplified_cost_usd() if hasattr(fs, "simplified_cost_usd") else None
    )
    trace_report = None
    if handle.tracer is not None:
        trace_report = dict(handle.tracer.summary())
        trace_report["violation_detail"] = [
            str(v) for v in handle.tracer.violations()
        ]
    return SpotifyRun(
        name=handle.name,
        throughput_timeline=metrics.throughput_timeline(1_000.0),
        nn_timeline=nn_timeline,
        cost_timeline=cost_timeline,
        avg_throughput=metrics.average_throughput(elapsed),
        peak_throughput=metrics.peak_throughput(1_000.0),
        avg_latency_ms=metrics.average_latency(),
        final_cost_usd=handle.cost_usd(elapsed),
        simplified_cost_usd=simplified,
        latencies_by_op=latencies_by_op,
        issued=workload.issued,
        completed=workload.completed,
        trace_report=trace_report,
    )


def fig8_spotify(
    base_throughput: float = 6_000.0,
    duration_ms: float = 30_000.0,
    clients: int = 192,
    vcpus: float = 512.0,
    seed: int = 8,
    systems: Sequence[str] = (
        "lambda", "hopsfs", "hopsfs_cache", "lambda_reduced", "cn_hopsfs_cache"
    ),
    kill_interval_ms: Optional[float] = None,
    trace: bool = False,
) -> Dict[str, SpotifyRun]:
    """Figures 8(a)/8(b) (and 15 with ``kill_interval_ms``).

    Scaled down from the paper's 25k-ops/s configuration (see
    SPOTIFY_NDB); pass ``base_throughput=12_000`` for the Figure 8(b)
    analogue of the 50k run.
    """
    tree = generate_tree(DEFAULT_TREE)
    working_set = len(tree.files) + len(tree.directories)
    results: Dict[str, SpotifyRun] = {}

    lambda_cost_usd: Optional[float] = None
    # §5.2.1: each λFS NameNode gets 5 vCPUs and 6 GB of RAM for the
    # Spotify workloads (the 30 GB default is the microbenchmark
    # configuration) — this is where the pay-per-use cost gap
    # against the serverful 512-vCPU cluster comes from.
    spotify_faas = {
        "vcpus_per_instance": 5.0,
        "ram_gb_per_instance": 6.0,
        # Short idle grace so post-burst scale-in is visible within
        # the run (Figure 8's NN-count line comes back down).
        "idle_reclaim_ms": 8_000.0,
    }
    for system in systems:
        env = Environment()
        if system == "lambda":
            handle = build_lambdafs(
                env, tree, vcpus=vcpus, ndb=SPOTIFY_NDB, seed=seed,
                faas_overrides=dict(spotify_faas), trace=trace,
            )
        elif system == "lambda_reduced":
            # §5.2.3: cache capacity under half the working set size.
            # Each deployment caches ~1/n of the namespace; capacity
            # must be a fraction of that *partition* to actually bind.
            partition = max(1, working_set // 16)
            handle = build_lambdafs(
                env, tree, vcpus=vcpus, ndb=SPOTIFY_NDB, seed=seed,
                namenode_overrides={"cache_capacity": max(4, partition // 3)},
                faas_overrides=dict(spotify_faas),
                name="λFS (reduced cache)",
            )
        elif system == "hopsfs":
            handle = build_hopsfs(env, tree, vcpus=vcpus, ndb=SPOTIFY_NDB, seed=seed)
        elif system == "hopsfs_cache":
            handle = build_hopsfs_cache(env, tree, vcpus=vcpus, ndb=SPOTIFY_NDB, seed=seed)
        elif system == "cn_hopsfs_cache":
            # Cost-normalized: sized so its VM cost equals λFS' run cost.
            cost = lambda_cost_usd if lambda_cost_usd else 0.05
            cn_vcpus = max(
                16.0,
                16.0 * round(cost / (VM_VCPU_SECOND_USD * duration_ms / 1_000.0) / 16.0),
            )
            handle = build_hopsfs_cache(
                env, tree, vcpus=cn_vcpus, ndb=SPOTIFY_NDB, seed=seed,
                name="CN HopsFS+Cache",
            )
        elif system == "infinicache":
            handle = build_infinicache(
                env, tree, vcpus=vcpus, ndb=SPOTIFY_NDB, seed=seed, trace=trace
            )
        else:
            raise ValueError(f"unknown system {system!r}")
        run = _spotify_driver(
            handle, tree, base_throughput, duration_ms, clients, seed,
            kill_interval_ms=kill_interval_ms if system == "lambda" else None,
        )
        results[system] = run
        if system == "lambda":
            lambda_cost_usd = run.final_cost_usd
    return results


def fig15_fault_tolerance(
    base_throughput: float = 6_000.0,
    duration_ms: float = 30_000.0,
    clients: int = 192,
    kill_interval_ms: float = 5_000.0,
    seed: int = 8,
    trace: bool = False,
) -> Dict[str, SpotifyRun]:
    """§5.6: the Spotify run with a NameNode killed periodically
    (paper: every 30 s of a 300 s run; here every 7.5 s of 45 s)."""
    with_failures = fig8_spotify(
        base_throughput, duration_ms, clients, seed=seed,
        systems=("lambda",), kill_interval_ms=kill_interval_ms, trace=trace,
    )["lambda"]
    without = fig8_spotify(
        base_throughput, duration_ms, clients, seed=seed, systems=("lambda",),
        trace=trace,
    )["lambda"]
    with_failures.name = "λFS+Failures"
    return {"failures": with_failures, "baseline": without}


# ---------------------------------------------------------------------------
# Figures 11, 12, 13, 14 — scaling microbenchmarks
# ---------------------------------------------------------------------------

MICRO_OPS = (
    OpType.READ_FILE, OpType.LS, OpType.STAT, OpType.CREATE_FILE, OpType.MKDIRS
)

SYSTEM_BUILDERS: Dict[str, Callable] = {
    "lambda": build_lambdafs,
    "hopsfs": build_hopsfs,
    "hopsfs_cache": build_hopsfs_cache,
    "infinicache": build_infinicache,
    "cephfs": lambda env, tree, vcpus=512.0, seed=0, **_: build_cephfs(
        env, tree, vcpus=vcpus, seed=seed
    ),
}


@dataclass
class ScalingPoint:
    system: str
    op: OpType
    clients: int
    vcpus: float
    throughput: float
    errors: int
    active_servers: int
    cost_usd: float
    duration_ms: float


def _one_scaling_point(
    system: str,
    op: OpType,
    clients: int,
    vcpus: float,
    ops_per_client: int,
    warmup_per_client: int,
    seed: int,
    tree=None,
) -> ScalingPoint:
    tree = tree if tree is not None else generate_tree(DEFAULT_TREE)
    env = Environment()
    handle = SYSTEM_BUILDERS[system](env, tree, vcpus=vcpus, seed=seed)
    result = run_micro(
        handle, tree, op, clients, ops_per_client, warmup_per_client, seed=seed
    )
    return ScalingPoint(
        system=system,
        op=op,
        clients=clients,
        vcpus=vcpus,
        throughput=result.throughput,
        errors=result.errors,
        active_servers=handle.active_servers(),
        cost_usd=handle.cost_usd(result.duration_ms),
        duration_ms=result.duration_ms,
    )


def fig11_client_scaling(
    client_counts: Sequence[int] = (8, 32, 128, 256),
    ops: Sequence[OpType] = MICRO_OPS,
    systems: Sequence[str] = ("lambda", "hopsfs", "hopsfs_cache", "infinicache", "cephfs"),
    ops_per_client: int = 192,
    warmup_per_client: int = 48,
    vcpus: float = 512.0,
    seed: int = 0,
) -> List[ScalingPoint]:
    """Figure 11 (paper: 8→1024 clients at fixed 512 vCPUs)."""
    points = []
    for op in ops:
        for count in client_counts:
            for system in systems:
                points.append(_one_scaling_point(
                    system, op, count, vcpus, ops_per_client,
                    warmup_per_client, seed,
                ))
    return points


def fig12_resource_scaling(
    vcpu_list: Sequence[float] = (64.0, 128.0, 256.0, 512.0),
    ops: Sequence[OpType] = MICRO_OPS,
    systems: Sequence[str] = ("lambda", "hopsfs", "hopsfs_cache"),
    clients: int = 128,
    ops_per_client: int = 192,
    warmup_per_client: int = 48,
    seed: int = 0,
) -> List[ScalingPoint]:
    """Figure 12 (paper: 16→512 vCPUs)."""
    points = []
    for op in ops:
        for vcpus in vcpu_list:
            for system in systems:
                points.append(_one_scaling_point(
                    system, op, clients, vcpus, ops_per_client,
                    warmup_per_client, seed,
                ))
    return points


def fig13_perf_per_cost(
    client_counts: Sequence[int] = (8, 32, 128, 256),
    ops: Sequence[OpType] = (OpType.READ_FILE, OpType.LS, OpType.STAT),
    ops_per_client: int = 192,
    warmup_per_client: int = 48,
    seed: int = 0,
) -> List[dict]:
    """Figure 13: perf-per-cost for read ops, λFS vs HopsFS+Cache.

    λFS is billed per §5.2.5's activity model — a NameNode's
    resources are billed only while it serves requests — which §5.3.3
    notes is close to the simplified model's result here because the
    fleet is busy for the whole test.  HopsFS+Cache's VMs are billed
    for the full duration of the test.
    """
    rows = []
    tree = generate_tree(DEFAULT_TREE)
    for op in ops:
        for count in client_counts:
            env = Environment()
            handle = build_lambdafs(env, tree, seed=seed)
            result = run_micro(handle, tree, op, count, ops_per_client,
                               warmup_per_client, seed=seed)
            lambda_cost = handle.system.cost_usd()
            lambda_ppc = result.throughput / max(lambda_cost, 1e-12)

            env2 = Environment()
            handle2 = build_hopsfs_cache(env2, tree, seed=seed)
            result2 = run_micro(handle2, tree, op, count, ops_per_client,
                                warmup_per_client, seed=seed)
            cache_cost = handle2.cost_usd(env2.now)
            cache_ppc = result2.throughput / max(cache_cost, 1e-12)
            rows.append({
                "op": op, "clients": count,
                "lambda_throughput": result.throughput,
                "lambda_ppc": lambda_ppc,
                "hopsfs_cache_throughput": result2.throughput,
                "hopsfs_cache_ppc": cache_ppc,
            })
    return rows


def fig14_autoscaling_ablation(
    ops: Sequence[OpType] = MICRO_OPS,
    clients: int = 192,
    ops_per_client: int = 128,
    warmup_per_client: int = 32,
    deployments: int = 4,
    seed: int = 0,
) -> List[dict]:
    """Figure 14: auto-scaling enabled / limited (≤3) / disabled (1).

    Few deployments concentrate per-deployment load (hot partitions)
    so a single instance per deployment visibly saturates — the
    situation intra-deployment auto-scaling exists to solve.
    """
    modes = {"AS": None, "Limited AS": 3, "No AS": 1}
    tree = generate_tree(DEFAULT_TREE)
    rows = []
    for op in ops:
        row = {"op": op}
        for mode, cap in modes.items():
            env = Environment()
            handle = build_lambdafs(
                env, tree, seed=seed, deployments=deployments,
                faas_overrides={"max_instances_per_deployment": cap},
            )
            result = run_micro(handle, tree, op, clients, ops_per_client,
                               warmup_per_client, seed=seed)
            row[mode] = result.throughput
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Table 3 and Appendix D — subtree operations
# ---------------------------------------------------------------------------


def table3_subtree_mv(
    directory_sizes: Sequence[int] = (4_096, 8_192, 16_384),
    seed: int = 0,
    batch_size: int = 256,
    offload: bool = True,
) -> List[dict]:
    """Table 3: end-to-end latency of subtree ``mv`` (paper: 2^18–2^20
    files; here 2^10–2^12 — the store-bound linear scaling is the
    claim under test)."""
    rows = []
    for size in directory_sizes:
        tree = flat_directory("/big", size)
        row = {"files": size}
        for system in ("lambda", "hopsfs"):
            env = Environment()
            if system == "lambda":
                handle = build_lambdafs(env, tree, seed=seed)
                handle.system.subtree.config = SubtreeConfig(
                    batch_size=batch_size, offload_enabled=offload
                )
            else:
                handle = build_hopsfs(env, tree, seed=seed)
            client = handle.make_clients(1)[0]
            if handle.prewarm is not None:
                drive(env, handle.prewarm())

            def one_mv(client=client):
                start = env.now
                response = yield from client.mv("/big", "/big_moved")
                assert response.ok, response.error
                return env.now - start

            row[system] = drive(env, one_mv())
        rows.append(row)
    return rows


def appd_offload_ablation(
    directory_size: int = 4_096,
    batch_sizes: Sequence[int] = (64, 256, 1_024),
    seed: int = 0,
) -> List[dict]:
    """Appendix D: subtree latency vs batch size, offload on/off."""
    rows = []
    for batch in batch_sizes:
        row = {"batch_size": batch}
        for offload in (True, False):
            result = table3_subtree_mv(
                (directory_size,), seed=seed, batch_size=batch, offload=offload
            )[0]
            row["offload" if offload else "local"] = result["lambda"]
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Figure 16 — λIndexFS vs IndexFS
# ---------------------------------------------------------------------------


def fig16_indexfs(
    client_counts: Sequence[int] = (8, 32, 128),
    writes_per_client: int = 200,
    reads_per_client: int = 200,
    fixed_total: int = 12_800,
    seed: int = 0,
) -> List[dict]:
    """Figure 16: tree-test on IndexFS vs λIndexFS (paper: 2→256
    clients, 10k ops/client variable, 1M+1M fixed)."""
    rows = []
    for fixed in (False, True):
        for count in client_counts:
            config = TreeTestConfig(
                writes_per_client=writes_per_client,
                reads_per_client=reads_per_client,
                fixed_total_writes=fixed_total,
                fixed_total_reads=fixed_total,
                seed=seed,
            )

            env = Environment()
            vanilla = IndexFSCluster(env, IndexFSConfig(seed=seed))
            clients = [vanilla.new_client() for _ in range(count)]
            vanilla_result = drive(
                env, TreeTest(env, config).run(clients, fixed_size=fixed)
            )

            env2 = Environment()
            ported = LambdaIndexFS(env2, LambdaIndexFSConfig(seed=seed))
            ported.start()
            drive(env2, ported.prewarm())
            lambda_clients = [ported.new_client() for _ in range(count)]
            lambda_result = drive(
                env2, TreeTest(env2, config).run(lambda_clients, fixed_size=fixed)
            )

            rows.append({
                "workload": "fixed" if fixed else "variable",
                "clients": count,
                "indexfs_write": vanilla_result.write_throughput,
                "indexfs_read": vanilla_result.read_throughput,
                "indexfs_agg": vanilla_result.aggregate_throughput,
                "lambda_write": lambda_result.write_throughput,
                "lambda_read": lambda_result.read_throughput,
                "lambda_agg": lambda_result.aggregate_throughput,
            })
    return rows


# ---------------------------------------------------------------------------
# Appendices B & C, replacement-probability sweep
# ---------------------------------------------------------------------------


def appb_straggler_ablation(
    clients: int = 128,
    ops_per_client: int = 192,
    kill_interval_ms: float = 500.0,
    seed: int = 3,
) -> Dict[str, dict]:
    """Appendix B: tail latency with straggler mitigation on/off while
    NameNodes are being killed under the workload."""
    tree = generate_tree(DEFAULT_TREE)
    out = {}
    for enabled in (True, False):
        env = Environment()
        handle = build_lambdafs(
            env, tree, seed=seed,
            client_overrides={"straggler_enabled": enabled},
        )
        client_objects = handle.make_clients(clients)
        drive(env, handle.prewarm())
        killer = NameNodeKiller(env, handle.system.platform, kill_interval_ms)
        killer.start()
        from repro.workloads import MicroBenchmark

        bench = MicroBenchmark(env, tree, seed=seed)
        result = drive(env, bench.run(client_objects, OpType.READ_FILE,
                                      ops_per_client, warmup_per_client=16))
        killer.stop()
        latencies = handle.metrics.latencies()
        out["on" if enabled else "off"] = {
            "throughput": result.throughput,
            "p99": percentile(latencies, 99),
            "p999": percentile(latencies, 99.9),
            "max": max(latencies),
        }
    return out


def appc_antithrash_ablation(
    clients: int = 96,
    ops_per_client: int = 160,
    vcpus: float = 56.0,
    seed: int = 5,
) -> Dict[str, dict]:
    """Appendix C: a vCPU cap too small for every deployment forces
    container churn; anti-thrashing mode suppresses the HTTP storms
    that drive it."""
    tree = generate_tree(DEFAULT_TREE)
    out = {}
    for enabled in (True, False):
        env = Environment()
        handle = build_lambdafs(
            env, tree, vcpus=vcpus, deployments=16, seed=seed,
            client_overrides={
                "antithrash_enabled": enabled,
                "replacement_probability": 0.05,
            },
            faas_overrides={"idle_reclaim_ms": 2_000.0},
        )
        result = run_micro(handle, tree, OpType.READ_FILE, clients,
                           ops_per_client, warmup_per_client=16, seed=seed)
        platform = handle.system.platform
        out["on" if enabled else "off"] = {
            "throughput": result.throughput,
            "cold_starts": platform.cold_starts,
            "evictions": platform.evictions,
        }
    return out


def replacement_probability_sweep(
    probabilities: Sequence[float] = (0.0, 0.001, 0.01, 0.1),
    clients: int = 192,
    ops_per_client: int = 160,
    seed: int = 0,
) -> List[dict]:
    """§3.4 ablation: the HTTP-TCP replacement probability trades
    latency (HTTP fraction) against elasticity (fleet size)."""
    tree = generate_tree(DEFAULT_TREE)
    rows = []
    for probability in probabilities:
        env = Environment()
        handle = build_lambdafs(
            env, tree, seed=seed,
            client_overrides={"replacement_probability": probability},
        )
        result = run_micro(handle, tree, OpType.READ_FILE, clients,
                           ops_per_client, warmup_per_client=32, seed=seed)
        rows.append({
            "probability": probability,
            "throughput": result.throughput,
            "namenodes": handle.active_servers(),
            "avg_latency": handle.metrics.average_latency(),
        })
    return rows


def concurrency_level_sweep(
    levels: Sequence[int] = (1, 2, 4, 8),
    clients: int = 160,
    ops_per_client: int = 96,
    warmup_per_client: int = 24,
    deployments: int = 4,
    seed: int = 0,
) -> List[dict]:
    """Figure 6's coarse-grained knob: per-instance ConcurrencyLevel.

    Small values scale the fleet aggressively (each HTTP invocation
    beyond the limit provisions another instance); large values
    absorb load on fewer instances.
    """
    tree = generate_tree(DEFAULT_TREE)
    rows = []
    for level in levels:
        env = Environment()
        handle = build_lambdafs(
            env, tree, seed=seed, deployments=deployments,
            faas_overrides={"concurrency_level": level},
            client_overrides={"replacement_probability": 0.05},
        )
        result = run_micro(handle, tree, OpType.READ_FILE, clients,
                           ops_per_client, warmup_per_client, seed=seed)
        rows.append({
            "concurrency_level": level,
            "throughput": result.throughput,
            "namenodes": handle.active_servers(),
            "cold_starts": handle.system.platform.cold_starts,
        })
    return rows
