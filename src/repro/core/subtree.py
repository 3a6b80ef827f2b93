"""Subtree operations: the augmented HopsFS protocol (Appendix D).

Three phases, with λFS' two additions:

1. take the subtree lock flag on the root (subtree isolation),
2. quiesce — walk the subtree in a predefined total order taking and
   releasing write locks, building the in-memory tree and computing
   the set of deployments caching subtree metadata,
3. execute sub-operations in parallel batches.

λFS additions: a single **prefix invalidation** replaces per-INode
INVs (the trie cache prunes whole subtrees in one step), and batches
of sub-operations are **offloaded** to helper NameNodes in other
deployments to exploit FaaS parallelism ("serverless offloading").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Generator, List, Tuple

from repro.core.errors import FsError
from repro.core.messages import MetadataRequest, OpType
from repro.metastore.errors import TransactionAborted
from repro.namespace.inode import INode, dirent_key, inode_key
from repro.namespace.paths import normalize, parent_of, split
from repro.sim import AllOf

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.fs import LambdaFS
    from repro.core.namenode import LambdaNameNode


@dataclass(frozen=True)
class SubtreeConfig:
    batch_size: int = 256
    """Sub-operations per batch; larger favors less offload overhead,
    smaller favors parallelism (the Appendix D trade-off)."""
    offload_enabled: bool = True
    max_helpers: int = 8


class SubtreeProtocol:
    """Orchestrates subtree MV and DELETE for a leader NameNode."""

    def __init__(self, fs: "LambdaFS", config: SubtreeConfig | None = None) -> None:
        self.fs = fs
        self.config = config or SubtreeConfig()

    def execute(
        self,
        leader: "LambdaNameNode",
        request: MetadataRequest,
        span=None,
    ) -> Generator:
        root_path = normalize(request.path)
        root = yield from self._acquire_subtree_flag(root_path, span)
        try:
            collected = yield from self._quiesce(root_path, span)
            deployments = sorted({
                self.fs.partitioner.deployment_for(path) for path, _ in collected
            } | {self.fs.partitioner.deployment_for(parent_of(root_path))})
            # λFS: one prefix INV per deployment, not one per INode.
            yield from leader.run_subtree_coherence(root_path, deployments, span)
            descendants = [(p, i) for p, i in collected if p != root_path]
            if request.op is OpType.DELETE:
                actions = [
                    ("delete_inode", inode.id, inode.parent_id, split(path)[1])
                    for path, inode in descendants
                ]
            else:
                actions = [("touch_inode", inode.id) for path, inode in descendants]
            yield from self._run_batches(leader, actions, span)
            tracer = self.fs.env.tracer
            if tracer is not None:
                tracer.point(
                    "nn.commit", leader.member_id, parent=span,
                    paths=(root_path, parent_of(root_path)),
                    op=request.op.value, subtree=True,
                )
            value = yield from self._apply_root(request, root_path, root, span)
            return value
        finally:
            yield from self._release_subtree_flag(root, span)

    # -- phases ------------------------------------------------------------
    def _acquire_subtree_flag(self, root_path: str, span=None) -> Generator:
        """Phase 1: resolve the root and set its subtree-lock flag."""

        def body(txn):
            resolved = yield from self.fs.ops.resolve(txn, root_path)
            root = resolved[root_path]
            if not root.is_dir:
                raise FsError(f"{root_path!r} is not a directory")
            flag = yield from txn.read(("st_lock", root.id))
            if flag:
                raise TransactionAborted(f"subtree op already active on {root_path!r}")
            yield from txn.write(("st_lock", root.id), True)
            return root

        return (
            yield from self.fs.store.run_transaction(
                body, label="subtree flag", trace_parent=span
            )
        )

    def _quiesce(self, root_path: str, span=None) -> Generator:
        """Phase 2: lock-walk the whole subtree, then release."""

        def body(txn):
            return self.fs.ops.collect_subtree(txn, root_path)

        return (
            yield from self.fs.store.run_transaction(
                body, label="subtree quiesce", trace_parent=span
            )
        )

    def _run_batches(
        self, leader: "LambdaNameNode", actions: List[Tuple], span=None
    ) -> Generator:
        """Phase 3: execute sub-operations in parallel batches.

        The leader handles the first batch locally; the rest are
        offloaded round-robin to helper NameNodes in other
        deployments via HTTP invocations.
        """
        if not actions:
            return
        size = self.config.batch_size
        batches = [actions[i : i + size] for i in range(0, len(actions), size)]
        env = self.fs.env
        # Offloaded invocations carry the leader's span id so helper-
        # side spans (faas.queue, nn.handle, ...) attach to the client
        # op's tree instead of becoming orphan roots.
        trace_parent = span.span_id if span is not None else None

        local_request = MetadataRequest(
            op=OpType.EXEC_BATCH, path="/", payload=batches[0],
            request_id=env.next_id("request"), trace_parent=trace_parent,
        )
        jobs = [env.process(leader._exec_batch(local_request, span))]

        if self.config.offload_enabled and len(batches) > 1:
            helpers = [
                name
                for name in self.fs.partitioner.deployment_names()
                if name != leader.deployment_name
            ][: self.config.max_helpers]
            if not helpers:
                helpers = [leader.deployment_name]
            for index, batch in enumerate(batches[1:]):
                helper = helpers[index % len(helpers)]
                batch_request = MetadataRequest(
                    op=OpType.EXEC_BATCH, path="/", payload=batch,
                    request_id=env.next_id("request"),
                    trace_parent=trace_parent,
                )
                jobs.append(env.process(self._offload(helper, batch_request)))
        else:
            for batch in batches[1:]:
                batch_request = MetadataRequest(
                    op=OpType.EXEC_BATCH, path="/", payload=batch,
                    request_id=env.next_id("request"),
                    trace_parent=trace_parent,
                )
                jobs.append(env.process(leader._exec_batch(batch_request, span)))
        yield AllOf(env, jobs)

    def _offload(self, deployment: str, request: MetadataRequest) -> Generator:
        """Invoke a helper NameNode; a helper crash fails the whole op
        (clients resubmit, per §3.6)."""
        response, _instance = yield from self.fs.platform.invoke(deployment, request)
        if not response.ok:
            raise FsError(f"offloaded batch failed: {response.error}")
        return response.value

    def _apply_root(
        self, request: MetadataRequest, root_path: str, root: INode, span=None
    ) -> Generator:
        """Final phase: apply the root-level change."""

        def body(txn):
            if request.op is OpType.DELETE:
                parent_path, name = split(root_path)
                resolved = yield from self.fs.ops.resolve(txn, parent_path)
                parent = resolved[parent_path]
                yield from txn.delete(dirent_key(parent.id, name))
                yield from txn.delete(inode_key(root.id))
                return True
            moved, _resolved = yield from self.fs.ops.mv_single(
                txn, root_path, normalize(request.dst_path)
            )
            return moved

        return (
            yield from self.fs.store.run_transaction(
                body, label="subtree apply", trace_parent=span
            )
        )

    def _release_subtree_flag(self, root: INode, span=None) -> Generator:
        def body(txn):
            yield from txn.delete(("st_lock", root.id))

        yield from self.fs.store.run_transaction(
            body, label="subtree unflag", trace_parent=span
        )
