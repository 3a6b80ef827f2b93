"""System builders and run helpers shared by every experiment."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Generator, List, Optional

from repro.baselines import (
    CephFSCluster,
    CephFSConfig,
    HopsFSCachedCluster,
    HopsFSCluster,
    HopsFSConfig,
    make_infinicache,
)
from repro.core import LambdaFS, LambdaFSConfig, OpType
from repro.faas import FaaSConfig
from repro.metastore import NdbConfig
from repro.metrics import MetricsRecorder
from repro.namespace.treegen import GeneratedTree
from repro.sim import Environment
from repro.telemetry import Telemetry, install_telemetry
from repro.trace import install_tracer
from repro.workloads import MicroBenchmark


@dataclass
class SystemHandle:
    """A built system plus the uniform hooks experiments need."""

    name: str
    env: Environment
    metrics: MetricsRecorder
    make_clients: Callable[[int], List]
    cost_usd: Callable[[float], float]
    """duration_ms -> cumulative $ cost of the run so far."""
    active_servers: Callable[[], int]
    system: object = None
    prewarm: Optional[Callable[[], Generator]] = None
    tracer: Optional[object] = None
    """The :class:`repro.trace.Tracer` when built with ``trace=True``."""
    telemetry: Optional[Telemetry] = None
    """The :class:`repro.telemetry.Telemetry` bundle when built with
    ``telemetry=True``."""
    profiler: Optional[object] = None
    """The :class:`repro.profile.Profiler` when built with
    ``profile=True`` (implies ``trace=True``); call
    ``handle.profiler.analyze()`` after the workload."""


def _maybe_trace(env: Environment, trace: bool):
    """Install the tracing + invariant battery once per environment."""
    if not trace:
        return env.tracer
    if env.tracer is None:
        return install_tracer(env)
    return env.tracer


def _maybe_profile(tracer, profile: bool):
    """Attach a critical-path profiler to an installed tracer.

    Purely read-after-the-fact: the profiler holds a reference to the
    tracer and analyzes its spans on demand, so it cannot perturb the
    run (see :mod:`repro.profile`).
    """
    if not profile:
        return None
    from repro.profile import Profiler

    return Profiler(tracer)


def _maybe_telemetry(
    env: Environment, telemetry: bool, interval_ms: float
) -> Optional[Telemetry]:
    """Install the metrics registry + sampler once per environment.

    Must run *before* the system is built so constructors (store,
    platform, LambdaFS) see ``env.metrics`` and register their gauges.
    """
    if not telemetry:
        return None
    if env.metrics is None:
        return install_telemetry(env, interval_ms=interval_ms)
    return getattr(env.metrics, "bundle", None)


def drive(env: Environment, generator: Generator):
    """Run ``generator`` as a process to completion; return its value."""
    box = {}

    def proc(env):
        box["value"] = yield from generator

    done = env.process(proc(env))
    env.run(until=done)
    return box.get("value")


# -- builders --------------------------------------------------------------

def _lambda_config(
    vcpus: float,
    deployments: int,
    seed: int,
    ndb: Optional[NdbConfig],
    faas_overrides: dict,
    client_overrides: dict,
    namenode_overrides: dict,
    datanode_overrides: dict,
    resilience=None,
) -> LambdaFSConfig:
    base = LambdaFSConfig(num_deployments=deployments, seed=seed)
    faas = replace(base.faas, cluster_vcpus=float(vcpus), **faas_overrides)
    client = replace(base.client, **client_overrides)
    namenode = replace(base.namenode, **namenode_overrides)
    datanodes = replace(base.datanodes, **datanode_overrides)
    config = replace(
        base, faas=faas, client=client, namenode=namenode,
        datanodes=datanodes, resilience=resilience,
    )
    if ndb is not None:
        config = replace(config, ndb=ndb)
    return config


def build_lambdafs(
    env: Environment,
    tree: GeneratedTree,
    vcpus: float = 512.0,
    deployments: int = 16,
    seed: int = 0,
    ndb: Optional[NdbConfig] = None,
    faas_overrides: Optional[dict] = None,
    client_overrides: Optional[dict] = None,
    namenode_overrides: Optional[dict] = None,
    datanode_overrides: Optional[dict] = None,
    name: str = "λFS",
    trace: bool = False,
    telemetry: bool = False,
    telemetry_interval_ms: float = 500.0,
    profile: bool = False,
    resilience=None,
) -> SystemHandle:
    tracer = _maybe_trace(env, trace or profile)
    profiler = _maybe_profile(tracer, profile)
    bundle = _maybe_telemetry(env, telemetry, telemetry_interval_ms)
    config = _lambda_config(
        vcpus, deployments, seed, ndb,
        faas_overrides or {}, client_overrides or {}, namenode_overrides or {},
        datanode_overrides or {}, resilience=resilience,
    )
    # An admin sizes the deployment count to the platform's capacity
    # (n is configurable, §2 Terminology): more deployments than the
    # vCPU budget can host would guarantee container churn.
    fits = max(1, int(config.faas.cluster_vcpus // config.faas.vcpus_per_instance))
    if fits < config.num_deployments:
        config = replace(config, num_deployments=fits)
    fs = LambdaFS(env, config)
    fs.format()
    fs.start()
    fs.install_namespace(tree.directories, tree.files)
    vms = {}

    def make_clients(count: int) -> List:
        # One VM per 128 clients, as in the paper's 1024-clients/8-VM
        # split.
        vm_count = max(1, count // 128)
        for index in range(vm_count):
            vms.setdefault(index, fs.new_vm())
        return [fs.new_client(vms[i % vm_count]) for i in range(count)]

    return SystemHandle(
        name=name,
        env=env,
        metrics=fs.metrics,
        make_clients=make_clients,
        cost_usd=lambda duration_ms: fs.cost_usd(),
        active_servers=fs.active_namenodes,
        system=fs,
        prewarm=lambda: fs.prewarm(1),
        tracer=tracer,
        telemetry=bundle,
        profiler=profiler,
    )


def build_infinicache(
    env: Environment,
    tree: GeneratedTree,
    vcpus: float = 512.0,
    seed: int = 0,
    ndb: Optional[NdbConfig] = None,
    trace: bool = False,
) -> SystemHandle:
    tracer = _maybe_trace(env, trace)
    # A static fleet is sized to its resources up front: one function
    # per deployment, as many deployments as the vCPU budget fits
    # (at most 16, λFS's default).
    per_instance = FaaSConfig().vcpus_per_instance
    deployments = max(1, min(16, int(vcpus // per_instance)))
    base = LambdaFSConfig(
        num_deployments=deployments,
        seed=seed,
        faas=FaaSConfig(cluster_vcpus=float(vcpus)),
    )
    if ndb is not None:
        base = replace(base, ndb=ndb)
    fs = make_infinicache(env, base, deployments=deployments)
    fs.format()
    fs.start()
    fs.install_namespace(tree.directories, tree.files)
    vms = {}

    def make_clients(count: int) -> List:
        vm_count = max(1, count // 128)
        for index in range(vm_count):
            vms.setdefault(index, fs.new_vm())
        return [fs.new_client(vms[i % vm_count]) for i in range(count)]

    return SystemHandle(
        name="InfiniCache",
        env=env,
        metrics=fs.metrics,
        make_clients=make_clients,
        cost_usd=lambda duration_ms: fs.cost_usd(),
        active_servers=fs.active_namenodes,
        system=fs,
        prewarm=lambda: fs.prewarm(1),
        tracer=tracer,
    )


def _build_hops(
    env: Environment,
    tree: GeneratedTree,
    cached: bool,
    vcpus: float,
    seed: int,
    ndb: Optional[NdbConfig],
    name: str,
    telemetry: bool = False,
) -> SystemHandle:
    bundle = _maybe_telemetry(env, telemetry, 500.0)
    namenodes = max(1, int(vcpus // 16))
    config = HopsFSConfig(
        num_namenodes=namenodes,
        vcpus_per_namenode=16,
        seed=seed,
        ndb=ndb if ndb is not None else NdbConfig(),
    )
    cluster_class = HopsFSCachedCluster if cached else HopsFSCluster
    cluster = cluster_class(env, config)
    cluster.format()
    cluster.install_namespace(tree.directories, tree.files)
    return SystemHandle(
        name=name,
        env=env,
        metrics=cluster.metrics,
        make_clients=lambda count: [cluster.new_client() for _ in range(count)],
        cost_usd=lambda duration_ms: cluster.cost_usd(duration_ms),
        active_servers=lambda: len(cluster.namenodes),
        system=cluster,
        telemetry=bundle,
    )


def build_hopsfs(
    env, tree, vcpus: float = 512.0, seed: int = 0, ndb=None,
) -> SystemHandle:
    return _build_hops(env, tree, False, vcpus, seed, ndb, "HopsFS")


def build_hopsfs_cache(
    env, tree, vcpus: float = 512.0, seed: int = 0, ndb=None,
    name: str = "HopsFS+Cache", telemetry: bool = False,
) -> SystemHandle:
    return _build_hops(env, tree, True, vcpus, seed, ndb, name,
                       telemetry=telemetry)


def build_cephfs(env, tree, vcpus: float = 512.0, seed: int = 0) -> SystemHandle:
    mds_count = max(1, int(vcpus // 64))
    cluster = CephFSCluster(env, CephFSConfig(num_mds=mds_count, seed=seed))
    cluster.install_namespace(tree.directories, tree.files)
    return SystemHandle(
        name="CephFS",
        env=env,
        metrics=cluster.metrics,
        make_clients=lambda count: [cluster.new_client() for _ in range(count)],
        cost_usd=lambda duration_ms: cluster.cost_usd(duration_ms),
        active_servers=lambda: len(cluster.mds),
        system=cluster,
    )


# -- run helpers -------------------------------------------------------------

def run_micro(
    handle: SystemHandle,
    tree: GeneratedTree,
    op: OpType,
    clients: int,
    ops_per_client: int,
    warmup_per_client: int,
    seed: int = 0,
):
    """One microbenchmark point on a built system."""
    client_objects = handle.make_clients(clients)
    if handle.prewarm is not None:
        drive(handle.env, handle.prewarm())
    bench = MicroBenchmark(handle.env, tree, seed=seed)
    return drive(
        handle.env,
        bench.run(client_objects, op, ops_per_client, warmup_per_client),
    )
