"""Subtree operations: the augmented HopsFS protocol (Appendix D).

Three phases, with λFS' two additions (the phases' transaction
bodies live in :class:`repro.core.operations.NamespaceOps`, which the
HopsFS baseline runs too):

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
from repro.namespace.paths import normalize, parent_of
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


#: Deployments a leader offloads a subtree op's batches to, at most.
MAX_HELPERS = 8


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
        ops = self.fs.ops
        store = self.fs.store
        root_path = normalize(request.path)
        root = yield from store.run_transaction(
            lambda txn: ops.take_subtree_flag(txn, root_path),
            label="subtree flag", trace_parent=span,
        )
        try:
            collected = yield from store.run_transaction(
                lambda txn: ops.collect_subtree(txn, root_path),
                label="subtree quiesce", trace_parent=span,
            )
            deployments = sorted({
                self.fs.partitioner.deployment_for(path) for path, _ in collected
            } | {self.fs.partitioner.deployment_for(parent_of(root_path))})
            # λFS: one prefix INV per deployment, not one per INode.
            yield from leader.run_subtree_coherence(root_path, deployments, span)
            actions = ops.subtree_actions(request.op, root_path, collected)
            yield from self._run_batches(leader, actions, span)
            tracer = self.fs.env.tracer
            if tracer is not None:
                tracer.point(
                    "nn.commit", leader.member_id, parent=span,
                    paths=(root_path, parent_of(root_path)),
                    op=request.op.value, subtree=True,
                )
            return (
                yield from store.run_transaction(
                    lambda txn: ops.apply_subtree_root(
                        txn, request, root_path, root
                    ),
                    label="subtree apply", trace_parent=span,
                )
            )
        finally:
            yield from store.run_transaction(
                lambda txn: ops.release_subtree_flag(txn, root),
                label="subtree unflag", trace_parent=span,
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
            ][:MAX_HELPERS]
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
