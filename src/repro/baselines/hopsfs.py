"""HopsFS and HopsFS+Cache baselines (§2, §5.1).

Vanilla HopsFS: a statically fixed cluster of *stateless* NameNodes
in front of MySQL NDB.  Statelessness means every metadata operation
— including reads — round-trips to the persistent store, so system
throughput is capped by NDB capacity and the NameNodes behave as
proxies with low CPU utilization (§5.3.2).

HopsFS+Cache: the paper's serverful cache baseline — the same fixed
cluster whose NameNodes carry λFS-style metadata caches, with
clients routing by consistent hashing on the parent directory.  The
fixed fleet cannot scale out, so hot directories bottleneck a single
NameNode (§5.3.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional, Tuple

from repro.baselines.common import MetadataServer
from repro.core.errors import FsError
from repro.core.messages import (
    MetadataRequest,
    MetadataResponse,
    OpType,
    PayloadClientOps,
)
from repro.core.operations import NamespaceOps, WriteResult
from repro.core.partitioning import NamespacePartitioner
from repro.metastore import NdbConfig, NdbStore
from repro.metastore.errors import TransactionAborted
from repro.metrics import MetricsRecorder, vm_cost
from repro.namespace.cache import MetadataCache
from repro.namespace.inode import INode
from repro.namespace.paths import is_descendant, normalize, parent_of
from repro.rpc import LatencyModel
from repro.sim import AllOf, Environment, RngStreams

TXN_RETRIES = 8
SUBTREE_BATCH_SIZE = 512
#: Executor pool of the NameNode that orchestrates a subtree op.
SUBTREE_EXECUTOR_THREADS = 4
RPC_HANDLERS = 200


@dataclass(frozen=True)
class HopsFSConfig:
    num_namenodes: int = 32
    vcpus_per_namenode: int = 16
    cpu_ms_per_op: float = 2.0
    """Serverful Java NameNodes burn ~2 vCPU-ms per op on the full
    RPC-handler stack (the paper observes they cannot fully utilize
    their resources, idling ~30% even at saturation); λFS' small
    function instances serve the same op in a fraction of that, which
    is where its latency edge over HopsFS+Cache comes from (§5.2.2:
    1.02 ms vs 3.35 ms) and why the cost-normalized H+C cluster fails
    the load bursts."""
    cache_capacity: int = 1_000_000
    seed: int = 0
    ndb: NdbConfig = field(default_factory=NdbConfig)


class HopsFSNameNode(MetadataServer):
    """One stateless HopsFS NameNode."""

    def __init__(self, cluster: "HopsFSCluster") -> None:
        super().__init__(
            cluster.env,
            cluster.config.vcpus_per_namenode,
            RPC_HANDLERS,
            cluster.config.cpu_ms_per_op,
        )
        self.cluster = cluster

    # -- op execution -----------------------------------------------------
    def execute(self, request: MetadataRequest) -> Generator:
        try:
            if request.op.is_write:
                value = yield from self._execute_write(request)
                hit = False
            else:
                value, hit = yield from self._execute_read(request)
            return MetadataResponse(
                request_id=request.request_id, ok=True, value=value,
                served_by=self.id, cache_hit=hit,
            )
        except (FsError, TransactionAborted) as exc:
            return MetadataResponse(
                request_id=request.request_id, ok=False,
                error=f"{type(exc).__name__}: {exc}", served_by=self.id,
            )

    def _known(self, path: str) -> Dict[str, INode]:
        """Stateless NameNodes know nothing between requests."""
        return {}

    def _execute_read(self, request: MetadataRequest) -> Generator:
        ops = self.cluster.ops
        path = normalize(request.path)
        known = self._known(path)
        if request.op is OpType.LS:

            def body(txn):
                return ops.ls(txn, path, known)

            resolved, names = yield from self.cluster.store.run_transaction(
                body, retries=TXN_RETRIES
            )
            self._after_read(resolved)
            ops.check_read(path, resolved)
            return names, False
        resolved = yield from self.cluster.store.run_transaction(
            lambda txn: ops.resolve(txn, path, known),
            retries=TXN_RETRIES,
        )
        self._after_read(resolved)
        return ops.check_read(path, resolved), False

    def _after_read(self, resolved: Dict[str, INode]) -> None:
        """Hook for the cached variant."""

    def _execute_write(self, request: MetadataRequest) -> Generator:
        if request.op.is_subtree_capable and (
            yield from self._is_directory(request.path)
        ) and (request.op is OpType.MV or request.recursive):
            return (yield from self._subtree_op(request))

        ops = self.cluster.ops
        env = self.env
        path = normalize(request.path)
        attempt = 0
        while True:
            txn = self.cluster.store.begin(label=request.op.value)
            try:
                result = yield from ops.write(txn, request, self._known(path))
                yield from self._before_commit(request, result)
                yield from txn.commit()
                self._after_write(result)
                return result.value
            except TransactionAborted:
                txn.abort()
                attempt += 1
                if attempt > TXN_RETRIES:
                    raise FsError(f"{request.op.value} kept aborting")
                yield env.timeout(2.0 * (2 ** min(attempt, 6)))
            except BaseException:
                txn.abort()  # release locks on application errors
                raise

    def _before_commit(self, request, result: WriteResult) -> Generator:
        """Hook for the cached variant (peer invalidation)."""
        return
        yield  # pragma: no cover

    def _after_write(self, result: WriteResult) -> None:
        """Hook for the cached variant."""

    def _is_directory(self, path: str) -> Generator:
        path = normalize(path)
        try:
            resolved = yield from self.cluster.store.run_transaction(
                lambda txn: self.cluster.ops.resolve(txn, path)
            )
        except FsError:
            return False
        return resolved[path].is_dir

    # -- subtree protocol (vanilla HopsFS, Appendix D baseline) ----------------
    def _subtree_op(self, request: MetadataRequest) -> Generator:
        """The three-phase HopsFS subtree protocol, executed locally."""
        store = self.cluster.store
        ops = self.cluster.ops
        root_path = normalize(request.path)
        root = yield from store.run_transaction(
            lambda txn: ops.take_subtree_flag(txn, root_path)
        )
        try:
            collected = yield from store.run_transaction(
                lambda txn: ops.collect_subtree(txn, root_path)
            )
            yield from self._run_batches(
                ops.subtree_actions(request.op, root_path, collected)
            )
            value = yield from store.run_transaction(
                lambda txn: ops.apply_subtree_root(txn, request, root_path, root)
            )
            self._after_subtree(root_path)
            return value
        finally:
            yield from store.run_transaction(
                lambda txn: ops.release_subtree_flag(txn, root)
            )

    def _run_batches(self, actions: List[Tuple]) -> Generator:
        """Phase 3: batched sub-operations on this NameNode.

        The orchestrating NameNode runs batches through a fixed-size
        executor pool (Appendix D: in-parallel *on the NameNode*), so
        its parallelism is bounded — the limitation λFS' serverless
        offloading removes.
        """
        if not actions:
            return
        size = SUBTREE_BATCH_SIZE
        window = SUBTREE_EXECUTOR_THREADS
        batches = [actions[i : i + size] for i in range(0, len(actions), size)]
        for start in range(0, len(batches), window):
            jobs = [
                self.env.process(self._exec_batch(batch))
                for batch in batches[start : start + window]
            ]
            yield AllOf(self.env, jobs)

    def _exec_batch(self, actions: List[Tuple]) -> Generator:
        yield from self.compute(0.2 + 0.05 * len(actions))
        return (
            yield from self.cluster.store.run_transaction(
                lambda txn: self.cluster.ops.apply_batch(txn, actions)
            )
        )

    def _after_subtree(self, root_path: str) -> None:
        """Hook for the cached variant."""


class HopsFSCachedNameNode(HopsFSNameNode):
    """A HopsFS NameNode with a λFS-style metadata cache."""

    def __init__(self, cluster: "HopsFSCluster") -> None:
        super().__init__(cluster)
        self.cache = MetadataCache(capacity=cluster.config.cache_capacity)
        self.cache.put("/", INode.root())
        self._listing_cache: Dict[str, List[str]] = {}

    def _known(self, path: str) -> Dict[str, INode]:
        return self.cache.get_path_prefix(path)

    # -- cached read fast path --------------------------------------------------
    def _execute_read(self, request: MetadataRequest) -> Generator:
        ops = self.cluster.ops
        path = normalize(request.path)
        known = self.cache.get_path_prefix(path)
        full = ops.full_chain(path, known)
        if request.op is OpType.LS:
            listing = self._listing_cache.get(path)
            if listing is not None and full:
                self.cache.stats.record_lookup(hit=True)
                ops.check_read(path, known)
                return list(listing), True
            self.cache.stats.record_lookup(hit=False)
            resolved, names = yield from self.cluster.store.run_transaction(
                lambda txn: ops.ls(txn, path, known),
                retries=TXN_RETRIES,
            )
            self._after_read(resolved)
            ops.check_read(path, resolved)
            if resolved[path].is_dir:
                self._listing_cache[path] = list(names)
            return names, False
        if full:
            self.cache.stats.record_lookup(hit=True)
            return ops.check_read(path, known), True
        self.cache.stats.record_lookup(hit=False)
        resolved = yield from self.cluster.store.run_transaction(
            lambda txn: ops.resolve(txn, path, known),
            retries=TXN_RETRIES,
        )
        self._after_read(resolved)
        return ops.check_read(path, resolved), False

    def _after_read(self, resolved: Dict[str, INode]) -> None:
        for path, inode in resolved.items():
            self.cache.put(path, inode)

    # -- invalidation among the fixed fleet ---------------------------------------
    def _before_commit(self, request, result: WriteResult) -> Generator:
        affected = set(result.new_entries) | set(result.removed)
        affected.add(parent_of(normalize(request.path)))
        if request.dst_path:
            affected.add(parent_of(normalize(request.dst_path)))
        yield from self.cluster.invalidate_peers(self, affected, result.broadcast)

    def _after_write(self, result: WriteResult) -> None:
        removed = result.removed
        for path in removed:
            self.cache.invalidate(path)
            self._listing_cache.pop(path, None)
            self._drop_parent_listing(path)
        for path, inode in result.resolved.items():
            if path not in removed:
                self.cache.put(path, inode)
        for path in result.new_entries:
            self._drop_parent_listing(path)

    def _after_subtree(self, root_path: str) -> None:
        self.cluster.invalidate_peers_prefix(root_path)

    def invalidate_paths(self, paths) -> None:
        for path in paths:
            self.cache.invalidate(path)
            self._listing_cache.pop(path, None)
            self._drop_parent_listing(path)

    def invalidate_prefix(self, prefix: str) -> None:
        self.cache.invalidate_prefix(prefix)
        for cached in list(self._listing_cache):
            if is_descendant(cached, prefix):
                del self._listing_cache[cached]
        self._drop_parent_listing(prefix)

    def _drop_parent_listing(self, path: str) -> None:
        if normalize(path) != "/":
            self._listing_cache.pop(parent_of(path), None)


class HopsFSCluster:
    """Vanilla HopsFS: fixed stateless NameNodes + NDB."""

    namenode_class = HopsFSNameNode

    def __init__(self, env: Environment, config: Optional[HopsFSConfig] = None) -> None:
        self.env = env
        self.config = config or HopsFSConfig()
        self.rngs = RngStreams(self.config.seed)
        self.latency = LatencyModel(self.rngs.stream("latency"))
        self.store = NdbStore(env, self.config.ndb)
        self.ops = NamespaceOps(self.store)
        self.namenodes: List[HopsFSNameNode] = [
            self.namenode_class(self) for _ in range(self.config.num_namenodes)
        ]
        self._partitioner = NamespacePartitioner(len(self.namenodes))
        self.metrics = MetricsRecorder()
        self._invalidation_latency_ms = 0.4

    # -- lifecycle --------------------------------------------------------
    def format(self) -> None:
        self.ops.format()

    def install_namespace(self, directories: List[str], files: List[str]) -> None:
        self.ops.install_paths(directories, files)

    def new_client(self) -> "HopsFSClient":
        return HopsFSClient(self)

    # -- routing -----------------------------------------------------------
    def pick_namenode(self, path: str, rng) -> HopsFSNameNode:
        """Vanilla HopsFS load-balances requests across NameNodes."""
        return self.namenodes[rng.randrange(len(self.namenodes))]

    # -- cost ----------------------------------------------------------------
    def total_vcpus(self) -> float:
        return self.config.num_namenodes * self.config.vcpus_per_namenode

    def cost_usd(self, duration_ms: float) -> float:
        return vm_cost(self.total_vcpus(), duration_ms)

    # -- peer invalidation (cached variant) -----------------------------------
    def owner_of(self, path: str) -> HopsFSNameNode:
        return self.namenodes[self._partitioner.index_for(path)]

    def invalidate_peers(
        self, leader: HopsFSNameNode, paths, broadcast: bool = False
    ) -> Generator:
        """Synchronously invalidate every peer cache before commit."""
        targets: Dict[HopsFSNameNode, List[str]] = {}
        if broadcast:
            for namenode in self.namenodes:
                targets[namenode] = list(paths)
        else:
            for path in paths:
                owner = self.owner_of(path)
                targets.setdefault(owner, []).append(path)
        others = [t for t in targets if t is not leader]
        if others:
            yield self.env.timeout(self._invalidation_latency_ms)
            for peer in others:
                if isinstance(peer, HopsFSCachedNameNode):
                    peer.invalidate_paths(targets[peer])
        if leader in targets and isinstance(leader, HopsFSCachedNameNode):
            leader.invalidate_paths(targets[leader])

    def invalidate_peers_prefix(self, prefix: str) -> None:
        for namenode in self.namenodes:
            if isinstance(namenode, HopsFSCachedNameNode):
                namenode.invalidate_prefix(prefix)


class HopsFSCachedCluster(HopsFSCluster):
    """HopsFS+Cache: cached NameNodes, consistent-hash routing."""

    namenode_class = HopsFSCachedNameNode

    def pick_namenode(self, path: str, rng) -> HopsFSNameNode:
        # Consistent hashing on the parent directory: cache-friendly
        # but hot directories all land on one fixed NameNode.
        return self.owner_of(path)


class HopsFSClient(PayloadClientOps):
    """A HopsFS client: TCP RPCs against the fixed NameNode fleet."""

    def __init__(self, cluster: HopsFSCluster) -> None:
        self.cluster = cluster
        self.id = f"hops-client{cluster.env.next_id('hops-client')}"
        self._rng = cluster.rngs.stream(f"client:{self.id}")

    def execute(
        self,
        op: OpType,
        path: str,
        dst_path: Optional[str] = None,
        recursive: bool = False,
        payload=None,
    ) -> Generator:
        env = self.cluster.env
        start = env.now
        request = MetadataRequest(
            op=op, path=path, dst_path=dst_path, recursive=recursive,
            request_id=env.next_id("request"), client_id=self.id,
            payload=payload,
        )
        namenode = self.cluster.pick_namenode(path, self._rng)
        yield env.timeout(self.cluster.latency.tcp_oneway())
        response = yield from namenode.serve(lambda: namenode.execute(request))
        yield env.timeout(self.cluster.latency.tcp_oneway())
        self.cluster.metrics.record(
            op=op.value, start_ms=start, end_ms=env.now,
            ok=response.ok, via="tcp", cache_hit=response.cache_hit,
        )
        return response
