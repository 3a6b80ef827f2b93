"""λFS system assembly: platform + store + coordinator + deployments.

:class:`LambdaFS` is the top-level object experiments interact with::

    env = Environment()
    fs = LambdaFS(env)
    fs.format()
    fs.start()
    vm = fs.new_vm()
    client = fs.new_client(vm)

    def workload(env):
        yield from client.mkdirs("/data")
        yield from client.create_file("/data/a")
        response = yield from client.stat("/data/a")

    env.process(workload(env))
    env.run()
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional, Tuple

from repro.coordination import Coordinator
from repro.core.autoscaling import desired_scale
from repro.core.client import ClientConfig, LambdaFSClient
from repro.core.maintenance import DataNodeConfig, DataNodeService
from repro.core.namenode import LambdaNameNode, NameNodeConfig
from repro.core.operations import NamespaceOps
from repro.core.partitioning import NamespacePartitioner
from repro.core.subtree import SubtreeConfig, SubtreeProtocol
from repro.faas import FaaSConfig, FaaSPlatform
from repro.metastore import NdbConfig, NdbStore
from repro.metrics import MetricsRecorder, lambda_cost, simplified_cost
from repro.namespace.cache import CacheStats
from repro.resilience import ResilienceConfig, ResilienceManager
from repro.rpc import ClientVM, LatencyModel
from repro.sim import AllOf, Environment, RngStreams


@dataclass(frozen=True)
class LambdaFSConfig:
    """Everything configurable about a λFS deployment."""

    num_deployments: int = 16
    seed: int = 0
    faas: FaaSConfig = field(default_factory=FaaSConfig)
    ndb: NdbConfig = field(default_factory=NdbConfig)
    namenode: NameNodeConfig = field(default_factory=NameNodeConfig)
    client: ClientConfig = field(default_factory=ClientConfig)
    subtree: SubtreeConfig = field(default_factory=SubtreeConfig)
    datanodes: DataNodeConfig = field(default_factory=DataNodeConfig)
    resilience: Optional[ResilienceConfig] = None
    """Opt-in resilience layer (deadlines, breakers, load shedding);
    None keeps every mechanism detached and runs byte-identical."""


class LambdaFS:
    """A running λFS metadata service."""

    def __init__(self, env: Environment, config: Optional[LambdaFSConfig] = None) -> None:
        self.env = env
        self.config = config or LambdaFSConfig()
        self.rngs = RngStreams(self.config.seed)
        self.latency = LatencyModel(self.rngs.stream("latency"))
        #: Optional resilience control plane; created before the store
        #: and platform so both can hold a reference at construction.
        self.resilience = (
            ResilienceManager(
                env, self.config.resilience, self.rngs.stream("resilience")
            )
            if self.config.resilience is not None
            else None
        )
        self.store = NdbStore(
            env, self.config.ndb, rng=self.rngs.stream("ndb-retry")
        )
        self.store.resilience = self.resilience
        self.ops = NamespaceOps(self.store)
        self.coordinator = Coordinator(env)
        self.platform = FaaSPlatform(
            env, self.config.faas, rng=self.rngs.stream("faas")
        )
        self.platform.resilience = self.resilience
        self.partitioner = NamespacePartitioner(self.config.num_deployments)
        self.subtree = SubtreeProtocol(self, self.config.subtree)
        self.datanodes = DataNodeService(env, self.store, self.config.datanodes)
        #: Optional live data plane (a :class:`repro.datanode.DataNodeFleet`);
        #: attached by the harness/runner, None in pure metadata runs.
        self.datanode_fleet = None
        self.metrics = MetricsRecorder()
        #: inode id -> the READ_FILE view of that file, one for the whole
        #: fleet (see :meth:`LambdaNameNode._file_view`).  It holds at
        #: most one view per live file: deletes and subtree INVs drop
        #: views, and a view over an old DataNode view is replaced by
        #: the next read.
        self.file_views: Dict[int, dict] = {}
        #: (DataNodes, their racks) -> the one list and rack map every
        #: NameNode with that DataNode view holds.
        self._datanode_views: Dict[tuple, Tuple[List[str], Optional[Dict[str, str]]]] = {}
        for name in self.partitioner.deployment_names():
            self.platform.register_deployment(
                name, lambda instance: LambdaNameNode(instance, self)
            )
        if env.metrics is not None:
            self._register_telemetry_gauges(env.metrics)

    def _register_telemetry_gauges(self, metrics) -> None:
        """Cache and fleet-scale gauges, evaluated at sample time, and
        the op records the client's op families are folded from."""
        for name in self.partitioner.deployment_names():
            deployment = self.platform.deployments[name]

            def caches(d=deployment):
                return [
                    instance.app.cache
                    for instance in d.all_instances
                    if instance.app is not None
                ]

            metrics.register_gauge(
                "cache_hit_ratio",
                lambda c=caches: CacheStats.aggregate(
                    cache.stats for cache in c()
                ).hit_ratio,
                help="Request-level cache hit ratio (CacheStats rollup)",
                deployment=name,
            )
            metrics.register_gauge(
                "cache_trie_size",
                lambda c=caches: float(sum(len(cache) for cache in c())),
                help="Cached INodes across live + dead instances",
                deployment=name,
            )
            for field_name in ("hits", "misses", "invalidations", "evictions"):
                metrics.register_gauge(
                    f"cache_{field_name}_total",
                    lambda f=field_name, c=caches: float(sum(
                        getattr(cache.stats, f) for cache in c()
                    )),
                    help="CacheStats field summed over the deployment",
                    deployment=name,
                )
        metrics.register_gauge(
            "fleet_actual_namenodes", lambda: float(self.active_namenodes()),
            help="Live NameNode instances across every deployment",
        )
        metrics.register_gauge(
            "fleet_desired_namenodes", self._desired_namenodes,
            help="Figure 6 expected scale for the instantaneous load",
        )
        if metrics.bundle is not None:
            metrics.bundle.track_ops(self.metrics)

    def _desired_namenodes(self) -> float:
        """Figure 6's expected scale, with in-flight requests as α."""
        alpha = float(sum(
            instance.active_requests
            for deployment in self.platform.deployments.values()
            for instance in deployment.instances
        ))
        expected = desired_scale(
            self.config.num_deployments,
            self.config.client.replacement_probability,
            alpha,
        )
        bound = (
            self.config.faas.cluster_vcpus
            / self.config.faas.vcpus_per_instance
        )
        return min(expected, bound)

    def aggregate_cache_stats(self) -> CacheStats:
        """Fleet-wide CacheStats rollup (every instance, dead or alive)."""
        return CacheStats.aggregate(
            instance.app.cache.stats
            for instance in self.all_instances()
            if instance.app is not None
        )

    # -- lifecycle ---------------------------------------------------------
    def intern_datanode_view(
        self, view: List[str], racks: Optional[Dict[str, str]]
    ) -> Tuple[List[str], Optional[Dict[str, str]]]:
        """The fleet's one copy of a DataNode view (sorted DataNode ids)
        and its rack map, so NameNodes that see the same DataNodes hold
        the same list and a shared READ_FILE view is checked by
        identity."""
        key = (tuple(view), None if racks is None else tuple(racks[dn] for dn in view))
        interned = self._datanode_views.get(key)
        if interned is None:
            interned = self._datanode_views[key] = (view, racks)
        return interned

    def format(self) -> None:
        """Install the root directory in the persistent store."""
        self.ops.format()

    def start(self) -> None:
        """Start platform maintenance and DataNode reporting."""
        self.platform.start()
        self.datanodes.start()

    def install_namespace(self, directories: List[str], files: List[str]) -> None:
        """Pre-create a namespace off the clock (experiment setup)."""
        self.ops.install_paths(directories, files)

    def prewarm(self, instances_per_deployment: int = 1) -> Generator:
        """Provision and await warm instances (the paper's workloads
        begin with a populated NameNode fleet, e.g. 36 NNs in §5.6)."""
        started = []
        for name in self.partitioner.deployment_names():
            deployment = self.platform.deployments[name]
            for _ in range(instances_per_deployment):
                if self.platform.can_provision(deployment):
                    instance = self.platform.provision(deployment)
                    started.append(instance.started)
        if started:
            yield AllOf(self.env, started)

    # -- clients -----------------------------------------------------------
    def new_vm(self) -> ClientVM:
        return ClientVM(self.env, self.latency)

    def new_client(self, vm: Optional[ClientVM] = None) -> LambdaFSClient:
        return LambdaFSClient(self, vm if vm is not None else self.new_vm())

    # -- observability -------------------------------------------------------
    def active_namenodes(self) -> int:
        return self.platform.total_live_instances()

    def all_instances(self):
        return [
            instance
            for deployment in self.platform.deployments.values()
            for instance in deployment.all_instances
        ]

    def total_http_requests(self) -> int:
        """Billable FaaS invocations (TCP RPCs carry no request fee)."""
        return sum(
            instance.http_requests_served for instance in self.all_instances()
        )

    def cost_usd(self) -> float:
        """Pay-per-use cost of the run so far (Figure 9 main model)."""
        return lambda_cost(
            (instance.busy_ms_snapshot() for instance in self.all_instances()),
            self.total_http_requests(),
            self.config.faas.ram_gb_per_instance,
        )

    def simplified_cost_usd(self) -> float:
        """Provisioned-lifetime cost ("λFS (Simplified)")."""
        return simplified_cost(
            (instance.provisioned_ms() for instance in self.all_instances()),
            self.total_http_requests(),
            self.config.faas.ram_gb_per_instance,
        )
