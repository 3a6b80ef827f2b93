"""IndexFS on BeeGFS, and λIndexFS — the λFS port of it (§4, §5.7).

Vanilla IndexFS is a scaled-out MDS middleware co-located with the
DFS client VMs; it packs metadata into LevelDB SSTables.  Following
§4, the port (a) decouples in-memory metadata handling from LevelDB
by moving it into serverless functions, keeping LevelDB only as the
persistent metadata store, and (b) replaces the GIGA+ partitioning
with hashing directories across LevelDB instances by directory name.

The Figure 16 experiment drives both with IndexFS' ``tree-test``
benchmark: ``mknod`` writes followed by random ``getattr`` reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional, Tuple

from repro.baselines.common import MetadataServer
from repro.coordination import Coordinator
from repro.core.errors import AlreadyExistsError, NotFoundError
from repro.core.partitioning import NamespacePartitioner
from repro.faas import FaaSConfig, FaaSPlatform
from repro.metastore import SSTableStore
from repro.metrics import MetricsRecorder
from repro.namespace.paths import normalize, split
from repro.rpc import ClientVM, LatencyModel
from repro.sim import Environment, RngStreams


def _meta_key(path: str) -> Tuple[str, str, str]:
    path = normalize(path)
    directory, name = split(path)
    return ("meta", directory, name)


#: IndexFS servers co-located with the BeeGFS client VMs.
NUM_SERVERS = 4
VCPUS_PER_SERVER = 8
RPC_HANDLERS = 64
TCP_ONEWAY_MS = 0.30

#: λIndexFS: one LevelDB instance per BeeGFS client VM (§5.7).
NUM_LEVELDB_PARTITIONS = 4


@dataclass(frozen=True)
class IndexFSConfig:
    cpu_ms_per_op: float = 1.20
    """Vanilla IndexFS couples in-memory metadata handling with
    LevelDB/SSTable management and GIGA+ splitting on the server;
    the λFS port moves that logic into lean serverless functions
    (§4), which is why its per-op CPU is lower."""
    seed: int = 0


class _IndexFSServer(MetadataServer):
    """One IndexFS server with its LevelDB instance."""

    def __init__(self, env: Environment, config: IndexFSConfig) -> None:
        super().__init__(
            env, VCPUS_PER_SERVER, RPC_HANDLERS, config.cpu_ms_per_op
        )
        self.db = SSTableStore(env)


class IndexFSCluster:
    """Vanilla IndexFS: fixed servers, LevelDB-resident metadata."""

    def __init__(self, env: Environment, config: Optional[IndexFSConfig] = None) -> None:
        self.env = env
        self.config = config or IndexFSConfig()
        self.rngs = RngStreams(self.config.seed)
        self.servers: List[_IndexFSServer] = [
            _IndexFSServer(env, self.config) for _ in range(NUM_SERVERS)
        ]
        self._partitioner = NamespacePartitioner(len(self.servers))
        self.metrics = MetricsRecorder()

    def server_for(self, path: str) -> _IndexFSServer:
        return self.servers[self._partitioner.index_for(path)]

    def install_namespace(self, files: List[str]) -> None:
        by_server: Dict[_IndexFSServer, Dict] = {}
        for path in files:
            server = self.server_for(path)
            by_server.setdefault(server, {})[_meta_key(path)] = {"path": path}
        for server, rows in by_server.items():
            server.db.load_bulk(rows)

    def new_client(self) -> "IndexFSClient":
        return IndexFSClient(self)


class IndexFSClient:
    """tree-test style client: mknod writes, getattr reads."""

    def __init__(self, cluster: IndexFSCluster) -> None:
        self.cluster = cluster
        self.id = f"ifs-client{cluster.env.next_id('ifs-client')}"

    def _call(self, path: str, body) -> Generator:
        env = self.cluster.env
        server = self.cluster.server_for(path)
        yield env.timeout(TCP_ONEWAY_MS)
        result = yield from server.serve(lambda: body(server))
        yield env.timeout(TCP_ONEWAY_MS)
        return result

    def mknod(self, path: str) -> Generator:
        start = self.cluster.env.now

        def body(server):
            existing = yield from server.db.get(_meta_key(path))
            if existing is not None:
                raise AlreadyExistsError(path)
            yield from server.db.put(_meta_key(path), {"path": path})
            return True

        try:
            result = yield from self._call(path, body)
            ok = True
        except AlreadyExistsError:
            result, ok = False, False
        self.cluster.metrics.record(
            op="mknod", start_ms=start, end_ms=self.cluster.env.now, ok=ok,
        )
        return result

    def getattr(self, path: str) -> Generator:
        start = self.cluster.env.now

        def body(server):
            row = yield from server.db.get(_meta_key(path))
            if row is None:
                raise NotFoundError(path)
            return row

        try:
            result = yield from self._call(path, body)
            ok = True
        except NotFoundError:
            result, ok = None, False
        self.cluster.metrics.record(
            op="getattr", start_ms=start, end_ms=self.cluster.env.now, ok=ok,
        )
        return result


# ---------------------------------------------------------------------------
# λIndexFS: the port of λFS onto IndexFS (§4, Figure 7b).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LambdaIndexFSConfig:
    num_deployments: int = 8
    cpu_ms_per_op: float = 0.25
    replacement_probability: float = 0.01
    seed: int = 0
    faas: FaaSConfig = field(default_factory=lambda: FaaSConfig(
        cluster_vcpus=64.0,
        vcpus_per_instance=4.0,
        concurrency_level=2,
    ))


class _LambdaIndexFSFunction:
    """The serverless function: in-memory metadata over LevelDB."""

    def __init__(self, instance, system: "LambdaIndexFS") -> None:
        self.instance = instance
        self.system = system
        self.cache: Dict[Tuple, dict] = {}

    @property
    def member_id(self) -> str:
        return self.instance.id

    @property
    def deployment_name(self) -> str:
        return self.instance.deployment_name

    def on_start(self):
        self.system.coordinator.register(
            self.deployment_name, self.member_id, self._on_invalidation
        )
        return None

    def on_terminate(self) -> None:
        self.system.coordinator.deregister(self.deployment_name, self.member_id)

    def _on_invalidation(self, inv) -> None:
        for path in inv.paths:
            self.cache.pop(_meta_key(path), None)

    def handle(self, request, via) -> Generator:
        kind, path = request
        yield from self.instance.compute(self.system.config.cpu_ms_per_op)
        key = _meta_key(path)
        db = self.system.db_for(path)
        if kind == "getattr":
            row = self.cache.get(key)
            if row is not None:
                return ("ok", row, True)
            row = yield from db.get(key)
            if row is None:
                return ("err", "NotFound", False)
            self.cache[key] = row
            return ("ok", row, False)
        # mknod: coherence first (peers drop the entry), then persist.
        existing = self.cache.get(key)
        if existing is None:
            existing = yield from db.get(key)
        if existing is not None:
            return ("err", "AlreadyExists", False)
        yield from self.system.coordinator.invalidate(
            self.deployment_name, paths=[path], exclude=[self.member_id]
        )
        row = {"path": path}
        yield from db.put(key, row)
        self.cache[key] = row
        return ("ok", True, False)


class LambdaIndexFS:
    """λIndexFS: serverless metadata functions over LevelDB."""

    def __init__(self, env: Environment, config: Optional[LambdaIndexFSConfig] = None) -> None:
        self.env = env
        self.config = config or LambdaIndexFSConfig()
        self.rngs = RngStreams(self.config.seed)
        self.latency = LatencyModel(self.rngs.stream("latency"))
        self.coordinator = Coordinator(env)
        self.platform = FaaSPlatform(env, self.config.faas, rng=self.rngs.stream("faas"))
        self.dbs: List[SSTableStore] = [
            SSTableStore(env) for _ in range(NUM_LEVELDB_PARTITIONS)
        ]
        self._db_partitioner = NamespacePartitioner(len(self.dbs))
        self.metrics = MetricsRecorder()
        self._partitioner = NamespacePartitioner(
            self.config.num_deployments, prefix="IndexNN"
        )
        self._deployments = self._partitioner.deployment_names()
        for name in self._deployments:
            self.platform.register_deployment(
                name, lambda instance: _LambdaIndexFSFunction(instance, self)
            )

    def start(self) -> None:
        self.platform.start()

    def prewarm(self, instances_per_deployment: int = 2):
        """Provision and await warm function instances (generator)."""
        from repro.sim import AllOf

        started = []
        for name in self._deployments:
            deployment = self.platform.deployments[name]
            for _ in range(instances_per_deployment):
                if self.platform.can_provision(deployment):
                    started.append(self.platform.provision(deployment).started)
        if started:
            yield AllOf(self.env, started)

    def deployment_for(self, path: str) -> str:
        return self._partitioner.deployment_for(path)

    def db_for(self, path: str) -> SSTableStore:
        return self.dbs[self._db_partitioner.index_for(path)]

    def install_namespace(self, files: List[str]) -> None:
        by_db: Dict[int, Dict] = {}
        for path in files:
            index = self._db_partitioner.index_for(path)
            by_db.setdefault(index, {})[_meta_key(path)] = {"path": path}
        for index, rows in by_db.items():
            self.dbs[index].load_bulk(rows)

    def new_vm(self) -> ClientVM:
        return ClientVM(self.env, self.latency)

    def new_client(self, vm: Optional[ClientVM] = None) -> "LambdaIndexFSClient":
        return LambdaIndexFSClient(self, vm if vm is not None else self.new_vm())


class LambdaIndexFSClient:
    """λIndexFS client: the λFS hybrid RPC pattern."""

    def __init__(self, system: LambdaIndexFS, vm: ClientVM) -> None:
        self.system = system
        self.vm = vm
        self.server = vm.assign_server()
        self.id = f"lifs-client{system.env.next_id('lifs-client')}"
        self._rng = system.rngs.stream(f"client:{self.id}")

    def _submit(self, kind: str, path: str) -> Generator:
        env = self.system.env
        deployment = self.system.deployment_for(path)
        request = (kind, path)
        for _attempt in range(8):
            connection = yield from self.vm.find_shared(deployment, self.server)
            use_tcp = connection is not None and (
                self._rng.random() >= self.system.config.replacement_probability
            )
            try:
                if use_tcp:
                    return (yield from connection.call(request))
                latency = self.system.latency
                yield env.timeout(latency.http_oneway() + latency.gateway())
                result, instance = yield from self.system.platform.invoke(
                    deployment, request
                )
                self.server.connect_from(instance)
                yield env.timeout(latency.http_oneway())
                return result
            except Exception:  # noqa: BLE001 - dropped conn / dead instance
                yield env.timeout(5.0)
        raise RuntimeError(f"{kind} on {path!r} kept failing")

    def mknod(self, path: str) -> Generator:
        start = self.system.env.now
        status, value, hit = yield from self._submit("mknod", path)
        self.system.metrics.record(
            op="mknod", start_ms=start, end_ms=self.system.env.now,
            ok=status == "ok", cache_hit=hit,
        )
        return status == "ok"

    def getattr(self, path: str) -> Generator:
        start = self.system.env.now
        status, value, hit = yield from self._submit("getattr", path)
        self.system.metrics.record(
            op="getattr", start_ms=start, end_ms=self.system.env.now,
            ok=status == "ok", cache_hit=hit,
        )
        return value if status == "ok" else None
