"""A CephFS-flavoured MDS baseline (§5.1, §5.3).

CephFS keeps metadata in MDS memory (backed by RADOS) and hands out
*capabilities* that make write handling cheaper than the lock-heavy
permission system of HopsFS/λFS (§5.3.1).  Its MDS daemons are,
however, effectively single-threaded dispatchers in a statically
fixed cluster, so aggregate throughput plateaus once the dispatch
pipelines saturate — which is exactly the paper's observed shape:
CephFS wins reads at small client counts (lowest per-op latency) and
stops scaling beyond ~2^7 clients.

The namespace here is an in-memory tree ("MDS RAM"); journaled
writes contend on a shared journal resource.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, List, Optional, Set

from repro.core.errors import (
    AlreadyExistsError,
    FsError,
    NotADirectoryError,
    NotDirEmptyError,
    NotFoundError,
)
from repro.core.messages import (
    ClientOps,
    MetadataRequest,
    MetadataResponse,
    OpType,
)
from repro.core.partitioning import NamespacePartitioner
from repro.metrics import MetricsRecorder, vm_cost
from repro.namespace.inode import INode, ROOT_INODE_ID
from repro.namespace.paths import is_descendant, normalize, parent_of, split
from repro.sim import Environment, Resource, RngStreams


VCPUS_PER_MDS = 16
#: Ceph's MDS is effectively a single-threaded dispatcher.
DISPATCH_THREADS = 1
CPU_MS_READ = 0.10
CPU_MS_WRITE = 0.18
JOURNAL_WORKERS = 8
JOURNAL_SERVICE_MS = 0.20
TCP_ONEWAY_MS = 0.22
#: Dispatcher time per request before it reaches a CPU.
DISPATCH_MS = 0.04


@dataclass(frozen=True)
class CephFSConfig:
    num_mds: int = 8
    seed: int = 0


class _CephMDS:
    """One MDS daemon."""

    def __init__(self, env: Environment, config: CephFSConfig) -> None:
        self.env = env
        self.id = f"ceph-mds{env.next_id('ceph-mds')}"
        self.dispatch = Resource(env, capacity=DISPATCH_THREADS)
        self.cpu = Resource(env, capacity=VCPUS_PER_MDS)
        self.config = config
        self.requests_served = 0

    def admit(self, cpu_ms: float) -> Generator:
        with self.dispatch.request() as slot:
            yield slot
            yield self.env.timeout(DISPATCH_MS)
        with self.cpu.request() as core:
            yield core
            yield self.env.timeout(cpu_ms)
        self.requests_served += 1


class CephFSCluster:
    """A fixed cluster of CephFS MDS daemons."""

    def __init__(self, env: Environment, config: Optional[CephFSConfig] = None) -> None:
        self.env = env
        self.config = config or CephFSConfig()
        self.rngs = RngStreams(self.config.seed)
        self.mds: List[_CephMDS] = [
            _CephMDS(env, self.config) for _ in range(self.config.num_mds)
        ]
        self._partitioner = NamespacePartitioner(len(self.mds))
        self.journal = Resource(env, capacity=JOURNAL_WORKERS)
        self.metrics = MetricsRecorder()
        self._inodes: Dict[str, INode] = {}
        self._children: Dict[str, Set[str]] = {}
        self._next_id = ROOT_INODE_ID + 1
        self.format()

    # -- namespace state (MDS memory) -----------------------------------
    def format(self) -> None:
        self._inodes = {"/": INode.root()}
        self._children = {"/": set()}

    def install_namespace(self, directories: List[str], files: List[str]) -> None:
        for directory in directories:
            self._install(directory, is_dir=True)
        for file_path in files:
            self._install(file_path, is_dir=False)

    def _install(self, path: str, is_dir: bool) -> None:
        path = normalize(path)
        if path in self._inodes:
            return
        parent_path = parent_of(path)
        if parent_path not in self._inodes:
            self._install(parent_path, is_dir=True)
        _, name = split(path)
        inode = INode(
            id=self._alloc(), parent_id=self._inodes[parent_path].id,
            name=name, is_dir=is_dir,
        )
        self._inodes[path] = inode
        self._children[parent_path].add(name)
        if is_dir:
            self._children[path] = set()

    def _alloc(self) -> int:
        self._next_id += 1
        return self._next_id - 1

    # -- routing: dynamic subtree partitioning approximation ----------------
    def mds_for(self, path: str) -> _CephMDS:
        return self.mds[self._partitioner.index_for(path)]

    def new_client(self) -> "CephFSClient":
        return CephFSClient(self)

    def total_vcpus(self) -> float:
        return self.config.num_mds * VCPUS_PER_MDS

    def cost_usd(self, duration_ms: float) -> float:
        return vm_cost(self.total_vcpus(), duration_ms)

    # -- operations (executed after MDS admission) ----------------------------
    def _journal_write(self) -> Generator:
        with self.journal.request() as slot:
            yield slot
            yield self.env.timeout(JOURNAL_SERVICE_MS)

    def apply(self, request: MetadataRequest) -> Generator:
        op = request.op
        path = normalize(request.path)
        if op in (OpType.READ_FILE, OpType.STAT):
            inode = self._inodes.get(path)
            if inode is None:
                raise NotFoundError(f"{path!r} does not exist")
            return inode
        if op is OpType.LS:
            inode = self._inodes.get(path)
            if inode is None:
                raise NotFoundError(f"{path!r} does not exist")
            if not inode.is_dir:
                return [inode.name]
            return sorted(self._children.get(path, ()))
        if op is OpType.CREATE_FILE:
            yield from self._journal_write()
            return self._create(path, is_dir=False)
        if op is OpType.MKDIRS:
            yield from self._journal_write()
            return self._mkdirs(path)
        if op is OpType.DELETE:
            yield from self._journal_write()
            return self._delete(path, request.recursive)
        if op is OpType.MV:
            yield from self._journal_write()
            return self._mv(path, normalize(request.dst_path))
        raise FsError(f"unhandled op {op}")

    def _create(self, path: str, is_dir: bool) -> INode:
        if path in self._inodes:
            raise AlreadyExistsError(f"{path!r} already exists")
        parent_path = parent_of(path)
        parent = self._inodes.get(parent_path)
        if parent is None:
            raise NotFoundError(f"{parent_path!r} does not exist")
        if not parent.is_dir:
            raise NotADirectoryError(f"{parent_path!r} is not a directory")
        _, name = split(path)
        inode = INode(id=self._alloc(), parent_id=parent.id, name=name, is_dir=is_dir)
        self._inodes[path] = inode
        self._children[parent_path].add(name)
        if is_dir:
            self._children[path] = set()
        return inode

    def _mkdirs(self, path: str) -> INode:
        existing = self._inodes.get(path)
        if existing is not None:
            if not existing.is_dir:
                raise NotADirectoryError(f"{path!r} exists and is a file")
            return existing
        parent_path = parent_of(path)
        if parent_path not in self._inodes:
            self._mkdirs(parent_path)
        return self._create(path, is_dir=True)

    def _delete(self, path: str, recursive: bool) -> bool:
        inode = self._inodes.get(path)
        if inode is None:
            raise NotFoundError(f"{path!r} does not exist")
        if inode.is_dir and self._children.get(path) and not recursive:
            raise NotDirEmptyError(f"{path!r} is not empty")
        victims = [p for p in self._inodes if is_descendant(p, path)]
        for victim in victims:
            self._inodes.pop(victim, None)
            self._children.pop(victim, None)
        parent_path, name = split(path)
        self._children.get(parent_path, set()).discard(name)
        return True

    def _mv(self, src: str, dst: str) -> INode:
        inode = self._inodes.get(src)
        if inode is None:
            raise NotFoundError(f"{src!r} does not exist")
        if dst in self._inodes:
            raise AlreadyExistsError(f"{dst!r} already exists")
        dst_parent = parent_of(dst)
        parent = self._inodes.get(dst_parent)
        if parent is None or not parent.is_dir:
            raise NotADirectoryError(f"{dst_parent!r} is not a directory")
        moved_paths = [p for p in self._inodes if is_descendant(p, src)]
        _, dst_name = split(dst)
        renamed = {}
        for old in moved_paths:
            new = dst + old[len(src):]
            renamed[new] = self._inodes.pop(old)
            if old in self._children:
                self._children[new] = self._children.pop(old)
        moved = renamed[dst].with_updates(parent_id=parent.id, name=dst_name)
        renamed[dst] = moved
        self._inodes.update(renamed)
        src_parent, src_name = split(src)
        self._children.get(src_parent, set()).discard(src_name)
        self._children[dst_parent].add(dst_name)
        return moved


class CephFSClient(ClientOps):
    """A CephFS client issuing ops to the MDS cluster."""

    def __init__(self, cluster: CephFSCluster) -> None:
        self.cluster = cluster
        self.id = f"ceph-client{cluster.env.next_id('ceph-client')}"

    def execute(
        self,
        op: OpType,
        path: str,
        dst_path: Optional[str] = None,
        recursive: bool = False,
    ) -> Generator:
        env = self.cluster.env
        start = env.now
        request = MetadataRequest(
            op=op, path=path, dst_path=dst_path, recursive=recursive,
            request_id=env.next_id("request"), client_id=self.id,
        )
        mds = self.cluster.mds_for(path)
        yield env.timeout(TCP_ONEWAY_MS)
        cpu = CPU_MS_WRITE if op.is_write else CPU_MS_READ
        yield from mds.admit(cpu)
        try:
            value = yield from self.cluster.apply(request)
            response = MetadataResponse(
                request_id=request.request_id, ok=True, value=value,
                served_by=mds.id,
            )
        except FsError as exc:
            response = MetadataResponse(
                request_id=request.request_id, ok=False,
                error=f"{type(exc).__name__}: {exc}", served_by=mds.id,
            )
        yield env.timeout(TCP_ONEWAY_MS)
        self.cluster.metrics.record(
            op=op.value, start_ms=start, end_ms=env.now, ok=response.ok,
        )
        return response
