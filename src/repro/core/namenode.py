"""The λFS serverless NameNode application (§3.3, §3.5).

One :class:`LambdaNameNode` runs inside each FaaS function instance.
It keeps a trie metadata cache that survives invocations while the
instance stays warm, serves reads from the cache when possible, and
runs the ACK-INV coherence protocol before persisting writes.

It also re-implements the serverful DFS maintenance features in a
serverless-compatible way: rather than holding DataNode heartbeat
connections, it reads the DataNode reports that are published to the
persistent metadata store on a regular interval (§1, Fig. 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Generator, List, Optional, Tuple

from repro.coordination.coordinator import Invalidation
from repro.core.errors import FsError
from repro.core.messages import MetadataRequest, MetadataResponse, OpType
from repro.metastore.errors import TransactionAborted
from repro.namespace.cache import MetadataCache
from repro.namespace.inode import INode, inode_key
from repro.namespace.paths import is_descendant, normalize, parent_of
from repro.rpc.retry import RetryPolicy
from repro.sim import Event

#: Backoff curve for aborted write transactions: full jitter over the
#: same capped exponential the legacy fixed backoff followed
#: (4 → 128 ms).
_WRITE_BACKOFF = RetryPolicy(base_ms=4.0, factor=2.0, max_ms=128.0)

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.fs import LambdaFS

#: Extra CPU on the cache-miss path (building queries, caching).
CPU_MS_STORE_FETCH = 0.12

#: Extra CPU for write orchestration (locking, coherence).
CPU_MS_WRITE = 0.45

#: How long a NameNode reuses its view of the published DataNode
#: reports before reading them again.
DATANODE_REFRESH_MS = 5_000.0

TXN_RETRIES = 8

#: Under shed pressure a read may serve an invalidated cache entry no
#: older than this (the coherence checker verifies the bound).
STALE_READ_BOUND_MS = 1_000.0

#: Invalidated-entry snapshots retained per NameNode for bounded-
#: staleness serving.
STALE_KEEP = 512


@dataclass(frozen=True)
class NameNodeConfig:
    """Per-NameNode behaviour knobs."""

    cache_capacity: int = 1_000_000
    cpu_ms_per_op: float = 0.30
    """CPU to deserialize, dispatch, and serialize one RPC."""
    datanode_stale_after_ms: float | None = None
    """Drop DataNodes whose last published report is older than this
    from the placement view (a dead node stops publishing, so its row
    goes stale).  None keeps every published row, the legacy
    behaviour."""


class LambdaNameNode:
    """The Java-function NameNode, as a simulation application."""

    def __init__(self, instance, fs: "LambdaFS") -> None:
        self.instance = instance
        self.fs = fs
        self.config = fs.config.namenode
        self.cache = MetadataCache(capacity=self.config.cache_capacity)
        self.cache.put("/", INode.root())
        self._listing_cache: Dict[str, List[str]] = {}
        # A resubmitted duplicate can arrive while its original is
        # still executing (straggler watchdog + slow instance); the
        # duplicate waits here for the original's answer instead of
        # re-running the operation.  Each serve holds a one-slot list
        # (identifying it) whose Event is made only once a duplicate
        # arrives to wait on it.
        self._inflight: Dict[int, List[Optional[Event]]] = {}
        # Interned by the file system, so NameNodes with equal views
        # hold one list (see _file_view).
        self._datanode_view, self._datanode_racks = fs.intern_datanode_view([], None)
        self._datanode_view_at = -float("inf")
        self._backoff_rng = fs.rngs.stream("nn-retry")
        # Resilience control plane (None keeps every path identical).
        res = fs.resilience
        self._res = res
        self._shedder = res.shedder(instance.id) if res is not None else None
        # path -> (invalidated_at_ms, inode): snapshots of entries the
        # coherence protocol invalidated, retained briefly so reads
        # under shed pressure can degrade to bounded-staleness serving
        # instead of being dropped or hitting a browning-out store.
        self._stale_inodes: Dict[str, Tuple[float, INode]] = {}
        self._stale_ms: float | None = None

    # -- lifecycle hooks called by the FaaS instance ---------------------
    @property
    def member_id(self) -> str:
        return self.instance.id

    @property
    def deployment_name(self) -> str:
        return self.instance.deployment_name

    def on_start(self) -> None:
        self.fs.coordinator.register(
            self.deployment_name, self.member_id, self._on_invalidation
        )
        return None

    def on_terminate(self) -> None:
        self.fs.coordinator.deregister(self.deployment_name, self.member_id)

    # -- request handling ---------------------------------------------------
    def handle(self, request: MetadataRequest, via: str) -> Generator:
        """Serve one metadata RPC; returns a :class:`MetadataResponse`."""
        env = self.fs.env
        tracer = env.tracer
        # A resubmitted request (after a timeout or a dropped
        # connection) gets this NameNode's original answer instead of
        # re-running the op (§3.2).  The answer rides the request, so
        # it lives exactly as long as some attempt can deliver it.
        replies = request.replies
        cached = replies.get(self.member_id) if replies is not None else None
        if cached is not None:
            if tracer is not None:
                tracer.point(
                    "nn.result_cache", self.member_id,
                    parent=request.trace_parent,
                    request_id=request.request_id,
                )
            yield from self.instance.compute(self.config.cpu_ms_per_op / 2)
            return cached

        inflight = self._inflight
        first = inflight.get(request.request_id)
        if first is not None:
            # A duplicate racing its own original (straggler resubmit
            # or duplicated TCP delivery): wait for the first serve
            # and return its answer.
            if tracer is not None:
                tracer.point(
                    "nn.inflight", self.member_id,
                    parent=request.trace_parent,
                    request_id=request.request_id,
                )
            marker = first[0]
            if marker is None:
                marker = first[0] = Event(env)
            response = yield marker
            yield from self.instance.compute(self.config.cpu_ms_per_op / 2)
            if response is not None:
                return response
            # The original serve died without an answer; fall through
            # and execute the request ourselves.

        res = self._res
        res_on = res is not None and res.active
        if res_on:
            shed = self._admission(request)
            if shed is not None:
                return shed

        serve: List[Optional[Event]] = [None]
        inflight[request.request_id] = serve
        response = None
        try:
            span = None
            if tracer is not None:
                span = tracer.begin(
                    "nn.handle", self.member_id, parent=request.trace_parent,
                    op=request.op.value, path=request.path, via=via,
                )
            if res_on:
                # Measure this request's CPU-queue delay (compute time
                # beyond the service demand is time spent waiting for
                # a slot) and feed the CoDel shedder.
                self._stale_ms = None
                admitted_at = env.now
            yield from self.instance.compute(self.config.cpu_ms_per_op)
            if res_on:
                self._shedder.observe(
                    env.now,
                    env.now - admitted_at - self.config.cpu_ms_per_op,
                )
            try:
                if request.op is OpType.EXEC_BATCH:
                    value, hit = (yield from self._exec_batch(request, span)), False
                elif request.op.is_write:
                    value, hit = yield from self._handle_write(request, span)
                else:
                    value, hit = yield from self._handle_read(request, span)
                response = MetadataResponse(
                    request_id=request.request_id, ok=True, value=value,
                    served_by=self.member_id, cache_hit=hit,
                )
                if res_on and self._stale_ms is not None:
                    response.stale = True
                    response.staleness_ms = self._stale_ms
            except (FsError, TransactionAborted) as exc:
                # TransactionAborted surfaces when every retry of a
                # store transaction timed out (sustained lock convoys
                # under overload); the client sees a failed response and
                # decides whether to resubmit.
                response = MetadataResponse(
                    request_id=request.request_id, ok=False,
                    error=f"{type(exc).__name__}: {exc}", served_by=self.member_id,
                )
            if tracer is not None:
                tracer.end(span, ok=response.ok, cache_hit=response.cache_hit)
            if request.replies is None:
                request.replies = {}
            request.replies[self.member_id] = response
        finally:
            # A duplicate whose original died without an answer serves
            # the request itself; never clear the entry such a later
            # serve put here.
            if inflight.get(request.request_id) is serve:
                del inflight[request.request_id]
            marker = serve[0]
            if marker is not None:
                marker.succeed(response)
        if via == "http":
            self._connect_back(request)
        return response

    # -- resilience admission -------------------------------------------------
    def _admission(self, request: MetadataRequest):
        """Refuse work this NameNode should not execute.

        Two triggers: the op's end-to-end deadline already expired
        (executing it would be pure waste — the client gave up), or
        the CoDel shedder's drop schedule fired under sustained
        CPU-queue delay.  Degradable reads (a bounded-staleness
        snapshot exists) are admitted through pressure so they can be
        served stale rather than dropped.  Returns the shed response,
        or None to admit.
        """
        res = self._res
        env = self.fs.env
        deadline = request.deadline_ms
        if deadline is not None and env.now >= deadline:
            return res.shed_response(
                request, "namenode", "deadline", actor=self.member_id
            )
        if request.op is OpType.EXEC_BATCH:
            # Subtree helper batches ride their parent op's budget;
            # the parent was already admitted.
            return None
        shedder = self._shedder
        if (
            shedder.under_pressure
            and not request.op.is_write
            and self._stale_candidate(request) is not None
        ):
            return None
        if shedder.should_shed(env.now):
            return res.shed_response(
                request, "namenode", "overload", actor=self.member_id
            )
        return None

    def _stale_candidate(self, request: MetadataRequest):
        """A within-bound invalidated snapshot for this read, if any."""
        if request.op not in (OpType.STAT, OpType.READ_FILE):
            return None
        path = normalize(request.path)
        entry = self._stale_inodes.get(path)
        if entry is None:
            return None
        if self.fs.env.now - entry[0] > STALE_READ_BOUND_MS:
            del self._stale_inodes[path]
            return None
        return entry

    def _serve_stale(self, request: MetadataRequest, path: str, span=None):
        """Bounded-staleness degraded read (graceful degradation).

        Serves the snapshot taken when the entry was invalidated,
        flags the response (``stale`` + ``staleness_ms``), and emits a
        ``nn.cache_hit`` point carrying ``bounded_stale`` attrs so the
        coherence checker can *verify* the staleness bound instead of
        being disabled for this mode.
        """
        entry = self._stale_candidate(request)
        if entry is None:
            return None
        invalidated_at, inode = entry
        env = self.fs.env
        res = self._res
        staleness = env.now - invalidated_at
        self.cache.stats.record_lookup(hit=True)
        if env.tracer is not None:
            env.tracer.point(
                "nn.cache_hit", self.member_id, parent=span, path=path,
                bounded_stale=True, staleness_ms=staleness,
                stale_bound_ms=STALE_READ_BOUND_MS,
            )
        res.note_stale_read(staleness)
        self._stale_ms = staleness
        if request.op is OpType.READ_FILE:
            return self._file_view(inode), True
        return inode, True

    def _remember_stale(self, path: str) -> None:
        """Snapshot an entry the coherence protocol is invalidating."""
        res = self._res
        if res is None or not res.active:
            return
        inode = self.cache.peek(path)
        if inode is None:
            return
        stale = self._stale_inodes
        stale[path] = (self.fs.env.now, inode)
        while len(stale) > STALE_KEEP:
            del stale[next(iter(stale))]

    # -- reads ---------------------------------------------------------------
    def _handle_read(self, request: MetadataRequest, span=None) -> Generator:
        tracer = self.fs.env.tracer
        path = normalize(request.path)
        known = self.cache.get_path_prefix(path)
        if request.op is OpType.LS:
            return (yield from self._handle_ls(path, known, span))
        ops = self.fs.ops
        if ops.full_chain(path, known):
            self.cache.stats.record_lookup(hit=True)
            if tracer is not None:
                tracer.point("nn.cache_hit", self.member_id, parent=span,
                             path=path)
            inode = ops.check_read(path, known)
            if request.op is OpType.READ_FILE:
                yield from self._maybe_refresh_datanodes()
                return self._file_view(inode), True
            return inode, True
        res = self._res
        res_on = res is not None and res.active
        if res_on and self._shedder.under_pressure:
            served = self._serve_stale(request, path, span)
            if served is not None:
                return served
        self.cache.stats.record_lookup(hit=False)
        if tracer is not None:
            tracer.point("nn.cache_miss", self.member_id, parent=span,
                         path=path)
        yield from self.instance.compute(CPU_MS_STORE_FETCH)
        resolved = yield from self.fs.store.run_transaction(
            lambda txn: ops.resolve(txn, path, known),
            retries=TXN_RETRIES,
            label="resolve", trace_parent=span,
            deadline_ms=request.deadline_ms if res_on else None,
        )
        self._cache_resolved(resolved, span)
        inode = ops.check_read(path, resolved)
        if request.op is OpType.READ_FILE:
            yield from self._maybe_refresh_datanodes()
            return self._file_view(inode), False
        return inode, False

    def _handle_ls(self, path: str, known: Dict[str, INode], span=None) -> Generator:
        tracer = self.fs.env.tracer
        listing = self._listing_cache.get(path)
        ops = self.fs.ops
        if listing is not None and ops.full_chain(path, known):
            self.cache.stats.record_lookup(hit=True)
            if tracer is not None:
                tracer.point("nn.cache_hit", self.member_id, parent=span,
                             path=path, listing=True)
            ops.check_read(path, known)
            return list(listing), True
        self.cache.stats.record_lookup(hit=False)
        if tracer is not None:
            tracer.point("nn.cache_miss", self.member_id, parent=span,
                         path=path, listing=True)
        yield from self.instance.compute(CPU_MS_STORE_FETCH)

        resolved, names = yield from self.fs.store.run_transaction(
            lambda txn: ops.ls(txn, path, known), retries=TXN_RETRIES,
            label="ls", trace_parent=span,
        )
        self._cache_resolved(resolved, span)
        ops.check_read(path, resolved)
        if resolved[path].is_dir:
            self._listing_cache[path] = list(names)
        return names, False

    def _file_view(self, inode: INode) -> dict:
        """What a READ_FILE returns: metadata plus block locations.

        Placement is computed from the published DataNode reports via
        rendezvous hashing (rack-aware when every report has a rack),
        so every instance agrees without holding DataNode state (see
        :mod:`repro.core.blocks`).  The view is memoised once for the
        whole fleet, in ``fs.file_views`` by inode id, and shared by
        every response that returns it, so callers must treat it as
        read-only.  A NameNode serves a memoised view only if it holds
        the very INode this NameNode resolved and this NameNode's own
        (interned) DataNode view; otherwise it builds its own, and
        memoises it only if the INode is the file's committed row, so
        a read racing the file's delete or update leaves no view
        behind."""
        views = self.fs.file_views
        nodes = self._datanode_view
        view = views.get(inode.id)
        if view is not None and view["inode"] is inode and view["locations"] is nodes:
            return view
        view = {
            "inode": inode,
            "locations": nodes,
            "blocks": self.fs.ops.blocks.locations(
                inode.block_ids, nodes, self._datanode_racks
            ),
        }
        if self.fs.store.peek(inode_key(inode.id)) is inode:
            views[inode.id] = view
        return view

    def _forget(self, path: str, inode: Optional[INode] = None) -> None:
        """Drop ``path``'s cache entry and the fleet's READ_FILE view of
        it (of ``inode``, when the caller knows it, else of the cached
        INode)."""
        if inode is None:
            inode = self.cache.peek(path)
        if inode is not None:
            self.fs.file_views.pop(inode.id, None)
        self.cache.invalidate(path)

    def _maybe_refresh_datanodes(self) -> Generator:
        """Lazy DataNode discovery from the persistent store."""
        env = self.fs.env
        if env.now - self._datanode_view_at < DATANODE_REFRESH_MS:
            return
        self._datanode_view_at = env.now

        def body(txn):
            rows = yield from txn.scan_prefix(("datanode",))
            return rows

        rows = yield from self.fs.store.run_transaction(body)
        stale_after = self.config.datanode_stale_after_ms
        labels = {}
        for key, report in rows.items():
            if not getattr(report, "healthy", True):
                continue
            if stale_after is not None and (
                env.now - getattr(report, "published_at_ms", env.now)
                > stale_after
            ):
                continue
            labels[key[-1]] = getattr(report, "rack", None)
        view, racks = self.fs.intern_datanode_view(
            sorted(labels),
            labels if labels and None not in labels.values() else None,
        )
        # The fleet's memoised READ_FILE views stay: one built over
        # another DataNode view is never served here (see _file_view),
        # and the next read replaces it.
        self._datanode_view = view
        self._datanode_racks = racks

    # -- writes ---------------------------------------------------------------
    def _handle_write(self, request: MetadataRequest, span=None) -> Generator:
        yield from self.instance.compute(CPU_MS_WRITE)
        if request.op.is_subtree_capable and (
            yield from self._needs_subtree(request, span)
        ):
            value = yield from self.fs.subtree.execute(self, request, span)
            return value, False

        env = self.fs.env
        ops = self.fs.ops
        path = normalize(request.path)
        res = self._res
        res_on = res is not None and res.active
        attempt = 0
        while True:
            if res_on and res.expired(request):
                # The budget ran out between retries: refuse to start
                # another txn attempt for a client that already quit.
                res.note_deadline_expired(request, "namenode-txn",
                                          self.member_id)
                raise FsError(
                    f"{request.op.value} on {request.path!r} deadline "
                    f"expired during txn retries"
                )
            txn = self.fs.store.begin(
                label=request.op.value, trace_parent=span,
                deadline_ms=request.deadline_ms if res_on else None,
            )
            try:
                result = yield from ops.write(
                    txn, request, self.cache.get_path_prefix(path)
                )
                # Algorithm 1: INVs go out (and all ACKs return) while
                # the rows are exclusively locked, *before* persisting.
                yield from self.run_coherence(
                    result.affected, broadcast=result.broadcast,
                    trace_parent=span,
                )
                if (
                    res is not None
                    and request.deadline_ms is not None
                    and env.now >= request.deadline_ms
                ):
                    # The point of no return for gate 7: the mutation is
                    # about to persist on behalf of a client whose
                    # deadline already passed.  With enforcement active
                    # the write is refused here (counted as one more
                    # deadline give-up) so the executed-past-deadline
                    # tripwire is unreachable by construction; with the
                    # ``disable_shedding`` latch off it commits anyway
                    # and every late commit is counted — the noshed
                    # twin's smoking gun.
                    if res_on:
                        res.note_deadline_expired(
                            request, "namenode-commit", self.member_id
                        )
                        raise FsError(
                            f"{request.op.value} on {request.path!r} "
                            f"deadline expired before commit"
                        )
                    res.note_deadline_violation("namenode-commit")
                tracer = env.tracer
                if tracer is not None:
                    tracer.point(
                        "nn.commit", self.member_id, parent=span,
                        paths=tuple(result.affected), op=request.op.value,
                    )
                yield from txn.commit()
                break
            except TransactionAborted:
                txn.abort()
                attempt += 1
                if attempt > TXN_RETRIES:
                    raise FsError(f"{request.op.value} on {request.path!r} kept aborting")
                tracer = env.tracer
                retry_span = None
                if tracer is not None:
                    retry_span = tracer.begin(
                        "nn.retry_backoff", self.member_id, parent=span,
                        attempt=attempt, op=request.op.value,
                    )
                # Full jitter over the same capped exponential curve
                # the old hand-rolled 2·2^min(attempt,6) backoff
                # followed: synchronized abort storms decorrelate.
                yield env.timeout(
                    _WRITE_BACKOFF.full_jitter_delay(attempt, self._backoff_rng)
                )
                if tracer is not None:
                    tracer.end(retry_span)
            except BaseException:
                txn.abort()  # release locks on application errors
                raise

        self._apply_local(result.new_entries, result.removed, result.resolved)
        return result.value, False

    def _needs_subtree(self, request: MetadataRequest, span=None) -> Generator:
        """True when MV/DELETE targets a directory (subtree protocol)."""
        if request.op is OpType.DELETE and not request.recursive:
            return False
        path = normalize(request.path)
        known = self.cache.get_path_prefix(path)
        if path in known:
            return known[path].is_dir
        try:
            resolved = yield from self.fs.store.run_transaction(
                lambda txn: self.fs.ops.resolve(txn, path, known),
                label="resolve", trace_parent=span,
            )
        except FsError:
            return False
        self._cache_resolved(resolved, span)
        return resolved[path].is_dir

    def run_coherence(
        self,
        affected_paths: List[str],
        broadcast: bool = False,
        trace_parent=None,
    ) -> Generator:
        """Send INVs for ``affected_paths`` and await every ACK.

        With ``broadcast`` the INVs go to *every* deployment — needed
        when a directory's own metadata changes, since directories
        are cached as ancestors across the whole fleet.  Every
        deployment's INV rides one coordinator round, and the write
        waits once for all of their ACKs (Algorithm 1).
        """
        # Sets of strings iterate in a per-process salted order; sort
        # so the INV fan-out (and therefore the event sequence) is a
        # function of the seed alone.
        paths = sorted(set(affected_paths))
        partitioner = self.fs.partitioner
        if broadcast:
            by_deployment = dict.fromkeys(partitioner.deployment_names(), paths)
        else:
            by_deployment = {}
            for path in paths:
                by_deployment.setdefault(
                    partitioner.deployment_for(path), []
                ).append(path)
        yield from self.fs.coordinator.invalidate(
            by_deployment, exclude=(self.member_id,),
            initiator=self.member_id, trace_parent=trace_parent,
        )

    def run_subtree_coherence(
        self, prefix: str, deployments: List[str], trace_parent=None
    ) -> Generator:
        """One prefix INV per deployment caching subtree metadata, all
        in one coordinator round."""
        yield from self.fs.coordinator.invalidate(
            dict.fromkeys(deployments, ()), prefix=prefix,
            exclude=(self.member_id,), initiator=self.member_id,
            trace_parent=trace_parent,
        )
        # Leader applies the same invalidation to its own cache.
        self._invalidate_prefix_local(prefix)

    def _apply_local(
        self,
        new_entries: Dict[str, INode],
        removed: List[str],
        resolved: Dict[str, INode],
    ) -> None:
        """Refresh the leader's own cache after a committed write."""
        tracer = self.fs.env.tracer
        gone = set(removed)
        for path in removed:
            self._forget(path, resolved.get(path))
            if self._stale_inodes:
                # The leader deleted it: a stale snapshot must not
                # resurrect the entry under shed pressure.
                self._stale_inodes.pop(path, None)
            if tracer is not None:
                tracer.point("nn.cache_invalidate", self.member_id, path=path)
            self._listing_cache.pop(path, None)
            self._drop_listing_of_parent(path)
        for path, inode in resolved.items():
            if path not in gone:
                self.cache.put(path, inode)
                if self._stale_inodes:
                    self._stale_inodes.pop(path, None)
                if tracer is not None:
                    tracer.point("nn.cache_put", self.member_id, path=path)
        for path, inode in new_entries.items():
            self.cache.put(path, inode)
            if self._stale_inodes:
                self._stale_inodes.pop(path, None)
            if tracer is not None:
                tracer.point("nn.cache_put", self.member_id, path=path)
            self._drop_listing_of_parent(path)

    # -- subtree batch execution (helper role) ---------------------------------
    def _exec_batch(self, request: MetadataRequest, span=None) -> Generator:
        """Execute offloaded sub-operations (Appendix D phase 3)."""
        actions = request.payload or []
        yield from self.instance.compute(0.2 + 0.05 * len(actions))

        return (
            yield from self.fs.store.run_transaction(
                lambda txn: self.fs.ops.apply_batch(txn, actions),
                label="exec batch", trace_parent=span,
            )
        )

    # -- invalidation handling (follower role) -----------------------------------
    def _on_invalidation(self, inv: Invalidation) -> None:
        if inv.is_subtree:
            # Subtree INVs are not snapshotted for stale serving:
            # capturing a whole detached subtree is unbounded work,
            # and MV/DELETE targets are exactly what must not be
            # served stale-by-structure.
            self._invalidate_prefix_local(inv.prefix)
            return
        # Most members cache none of the paths: do only the work that
        # can change this member's state.
        cache = self.cache
        listings = self._listing_cache
        for path in inv.paths:
            if path in cache:
                self._remember_stale(path)
                self._forget(path)
            if listings:
                listings.pop(path, None)
                self._drop_listing_of_parent(path)

    def _invalidate_prefix_local(self, prefix: str) -> None:
        tracer = self.fs.env.tracer
        if tracer is not None:
            tracer.point(
                "nn.cache_invalidate", self.member_id,
                path=prefix, prefix=prefix,
            )
        self.cache.invalidate_prefix(prefix)
        self.fs.file_views.clear()
        for cached_path in list(self._listing_cache):
            if is_descendant(cached_path, prefix):
                del self._listing_cache[cached_path]
        self._drop_listing_of_parent(prefix)

    def _drop_listing_of_parent(self, path: str) -> None:
        if normalize(path) != "/":
            self._listing_cache.pop(parent_of(path), None)

    # -- misc ----------------------------------------------------------------------
    def _cache_resolved(self, resolved: Dict[str, INode], span=None) -> None:
        tracer = self.fs.env.tracer
        for path, inode in resolved.items():
            self.cache.put(path, inode)
            if self._stale_inodes:
                # A fresh copy supersedes any stale snapshot.
                self._stale_inodes.pop(path, None)
            if tracer is not None:
                tracer.point("nn.cache_put", self.member_id, parent=span,
                             path=path)

    def _connect_back(self, request: MetadataRequest) -> None:
        """Proactively open TCP connections to the client's servers."""
        for server in request.tcp_servers:
            server.connect_from(self.instance)
