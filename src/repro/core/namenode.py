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
from repro.namespace.inode import INode, dirent_key, inode_key
from repro.namespace.paths import components, is_descendant, normalize, parent_of
from repro.rpc.retry import RetryPolicy
from repro.sim import AllOf, Event

#: Backoff curve for aborted write transactions: full jitter over the
#: same capped exponential the legacy fixed backoff followed
#: (4 → 128 ms).
_WRITE_BACKOFF = RetryPolicy(base_ms=4.0, factor=2.0, max_ms=128.0)

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.fs import LambdaFS


@dataclass(frozen=True)
class NameNodeConfig:
    """Per-NameNode behaviour knobs."""

    cache_capacity: int = 1_000_000
    cpu_ms_per_op: float = 0.30
    """CPU to deserialize, dispatch, and serialize one RPC."""
    cpu_ms_store_fetch: float = 0.12
    """Extra CPU on the cache-miss path (building queries, caching)."""
    cpu_ms_write: float = 0.45
    """Extra CPU for write orchestration (locking, coherence)."""
    result_cache_ttl_ms: float = 30_000.0
    datanode_refresh_ms: float = 5_000.0
    datanode_stale_after_ms: float | None = None
    """Drop DataNodes whose last published report is older than this
    from the placement view (a dead node stops publishing, so its row
    goes stale).  None keeps every published row, the legacy
    behaviour."""
    txn_retries: int = 8


class LambdaNameNode:
    """The Java-function NameNode, as a simulation application."""

    def __init__(self, instance, fs: "LambdaFS") -> None:
        self.instance = instance
        self.fs = fs
        self.config = fs.config.namenode
        self.cache = MetadataCache(capacity=self.config.cache_capacity)
        self.cache.put("/", INode.root())
        self._listing_cache: Dict[str, List[str]] = {}
        # Results are retained briefly so resubmitted requests (after
        # timeouts or dropped connections) get the original answer
        # instead of re-running the operation (§3.2).
        self._result_cache: Dict[int, Tuple[float, MetadataResponse]] = {}
        # A resubmitted duplicate can arrive while its original is
        # still executing (straggler watchdog + slow instance); the
        # duplicate waits here for the original's answer instead of
        # re-running the operation.
        self._inflight: Dict[int, Event] = {}
        self._datanode_view: List[str] = []
        self._datanode_racks: Optional[Dict[str, str]] = None
        self._datanode_view_at = -float("inf")
        # inode id -> the READ_FILE view of that INode over the current
        # DataNode view (see _file_view); cleared when the view changes.
        self._file_views: Dict[int, dict] = {}
        self._last_result_purge = 0.0
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
        self._purge_result_cache()
        cached = self._result_cache.get(request.request_id)
        if cached is not None:
            if tracer is not None:
                tracer.point(
                    "nn.result_cache", self.member_id,
                    parent=request.trace_parent,
                    request_id=request.request_id,
                )
            yield from self.instance.compute(self.config.cpu_ms_per_op / 2)
            return cached[1]

        inflight = self._inflight.get(request.request_id)
        if inflight is not None:
            # A duplicate racing its own original (straggler resubmit
            # or duplicated TCP delivery): wait for the first serve
            # and return its answer.
            if tracer is not None:
                tracer.point(
                    "nn.inflight", self.member_id,
                    parent=request.trace_parent,
                    request_id=request.request_id,
                )
            response = yield inflight
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

        marker = Event(env)
        self._inflight[request.request_id] = marker
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
            self._result_cache[request.request_id] = (env.now, response)
        finally:
            if self._inflight.get(request.request_id) is marker:
                del self._inflight[request.request_id]
            if not marker.triggered:
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
        if self.fs.env.now - entry[0] > self._res.config.stale_read_bound_ms:
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
                stale_bound_ms=res.config.stale_read_bound_ms,
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
        while len(stale) > res.config.stale_keep:
            del stale[next(iter(stale))]

    # -- reads ---------------------------------------------------------------
    @staticmethod
    def _full_chain(path: str, known) -> bool:
        """True when every component of ``path`` (and the root) is
        cached — required for a safe cache hit, since permission
        enforcement must see every ancestor."""
        if "/" not in known or path not in known:
            return False
        current = ""
        for part in components(path):
            current = f"{current}/{part}"
            if current not in known:
                return False
        return True

    def _handle_read(self, request: MetadataRequest, span=None) -> Generator:
        tracer = self.fs.env.tracer
        path = normalize(request.path)
        known = self.cache.get_path_prefix(path)
        if request.op is OpType.LS:
            return (yield from self._handle_ls(path, known, span))
        if self._full_chain(path, known):
            self.cache.stats.record_lookup(hit=True)
            if tracer is not None:
                tracer.point("nn.cache_hit", self.member_id, parent=span,
                             path=path)
            inode = known[path]
            self.fs.ops.check_traversal(path, known)
            self.fs.ops.check_readable(path, inode)
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
        yield from self.instance.compute(self.config.cpu_ms_store_fetch)
        resolved = yield from self.fs.store.run_transaction(
            lambda txn: self.fs.ops.resolve(txn, path, known),
            retries=self.config.txn_retries,
            label="resolve", trace_parent=span,
            deadline_ms=request.deadline_ms if res_on else None,
        )
        self._cache_resolved(resolved, span)
        inode = resolved[path]
        self.fs.ops.check_traversal(path, resolved)
        self.fs.ops.check_readable(path, inode)
        if request.op is OpType.READ_FILE:
            yield from self._maybe_refresh_datanodes()
            return self._file_view(inode), False
        return inode, False

    def _handle_ls(self, path: str, known: Dict[str, INode], span=None) -> Generator:
        tracer = self.fs.env.tracer
        listing = self._listing_cache.get(path)
        if listing is not None and self._full_chain(path, known):
            self.cache.stats.record_lookup(hit=True)
            if tracer is not None:
                tracer.point("nn.cache_hit", self.member_id, parent=span,
                             path=path, listing=True)
            self.fs.ops.check_traversal(path, known)
            self.fs.ops.check_readable(path, known[path])
            return list(listing), True
        self.cache.stats.record_lookup(hit=False)
        if tracer is not None:
            tracer.point("nn.cache_miss", self.member_id, parent=span,
                         path=path, listing=True)
        yield from self.instance.compute(self.config.cpu_ms_store_fetch)

        def body(txn):
            return self.fs.ops.ls(txn, path, known)

        resolved, names = yield from self.fs.store.run_transaction(
            body, retries=self.config.txn_retries,
            label="ls", trace_parent=span,
        )
        self._cache_resolved(resolved, span)
        if resolved[path].is_dir:
            self._listing_cache[path] = list(names)
        return names, False

    def _file_view(self, inode: INode) -> dict:
        """What a READ_FILE returns: metadata plus block locations.

        Placement is computed from the published DataNode reports via
        rendezvous hashing (rack-aware when every report has a rack),
        so every instance agrees without holding DataNode state (see
        :mod:`repro.core.blocks`).  The view is memoised per inode id
        for the current DataNode view and shared by every response
        that returns it, so callers must treat it as read-only."""
        views = self._file_views
        view = views.get(inode.id)
        if view is not None and view["inode"] is inode:
            return view
        if len(views) > len(self.cache):
            views.clear()  # entries of LRU-evicted INodes
        nodes = self._datanode_view
        views[inode.id] = view = {
            "inode": inode,
            "locations": nodes,
            "blocks": self.fs.ops.blocks.locations(
                inode.block_ids, nodes, self._datanode_racks
            ),
        }
        return view

    def _forget(self, path: str) -> None:
        """Drop ``path``'s cache entry and its memoised READ_FILE view."""
        if self._file_views:
            inode = self.cache.peek(path)
            if inode is not None:
                self._file_views.pop(inode.id, None)
        self.cache.invalidate(path)

    def _maybe_refresh_datanodes(self) -> Generator:
        """Lazy DataNode discovery from the persistent store."""
        env = self.fs.env
        if env.now - self._datanode_view_at < self.config.datanode_refresh_ms:
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
        view = sorted(labels)
        racks = labels if labels and None not in labels.values() else None
        if view != self._datanode_view or racks != self._datanode_racks:
            self._datanode_view = view
            self._datanode_racks = racks
            self._file_views.clear()

    # -- writes ---------------------------------------------------------------
    def _handle_write(self, request: MetadataRequest, span=None) -> Generator:
        yield from self.instance.compute(self.config.cpu_ms_write)
        if request.op.is_subtree_capable and (
            yield from self._needs_subtree(request, span)
        ):
            value = yield from self.fs.subtree.execute(self, request, span)
            return value, False

        env = self.fs.env
        ops = self.fs.ops
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
                path = normalize(request.path)
                known = self.cache.get_path_prefix(path)
                if request.op is OpType.CREATE_FILE:
                    inode, resolved = yield from ops.create_file(txn, path, known)
                    affected = [path, parent_of(path)]
                    new_entries = {path: inode}
                    removed: List[str] = []
                    value: object = inode
                elif request.op is OpType.MKDIRS:
                    target, resolved, created = yield from ops.mkdirs(txn, path, known)
                    affected = [path]
                    if created:
                        top = min(
                            (p for p, i in resolved.items() if i in created),
                            key=len, default=path,
                        )
                        affected.append(parent_of(top))
                    new_entries = {
                        p: i for p, i in resolved.items() if i in created
                    }
                    removed = []
                    value = target
                elif request.op is OpType.DELETE:
                    target, resolved = yield from ops.delete_single(txn, path, known)
                    affected = [path, parent_of(path)]
                    new_entries = {}
                    removed = [path]
                    value = True
                elif request.op is OpType.MV:
                    dst = normalize(request.dst_path)
                    moved, resolved = yield from ops.mv_single(txn, path, dst, known)
                    affected = [path, dst, parent_of(path), parent_of(dst)]
                    new_entries = {dst: moved}
                    removed = [path]
                    value = moved
                elif request.op is OpType.SET_PERMISSION:
                    updated, resolved = yield from ops.set_permission(
                        txn, path, request.payload, known
                    )
                    affected = [path]
                    # Directory INodes are cached as *ancestors* by
                    # every deployment resolving paths beneath them,
                    # so a directory-metadata change must reach all
                    # deployments, not just the path's owner.
                    broadcast = updated.is_dir
                    new_entries = {path: updated}
                    removed = []
                    value = updated
                else:  # pragma: no cover - dispatch guard
                    raise FsError(f"unhandled write op {request.op}")

                # Algorithm 1: INVs go out (and all ACKs return) while
                # the rows are exclusively locked, *before* persisting.
                yield from self.run_coherence(
                    affected, broadcast=locals().get("broadcast", False),
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
                        paths=tuple(affected), op=request.op.value,
                    )
                yield from txn.commit()
                break
            except TransactionAborted:
                txn.abort()
                attempt += 1
                if attempt > self.config.txn_retries:
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

        self._apply_local(new_entries, removed, resolved)
        return value, False

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
        are cached as ancestors across the whole fleet.
        """
        # Sets of strings iterate in a per-process salted order; sort
        # so the INV fan-out (and therefore the event sequence) is a
        # function of the seed alone.
        by_deployment: Dict[str, List[str]] = {}
        if broadcast:
            for deployment in self.fs.partitioner.deployment_names():
                by_deployment[deployment] = sorted(set(affected_paths))
        else:
            for path in sorted(set(affected_paths)):
                deployment = self.fs.partitioner.deployment_for(path)
                by_deployment.setdefault(deployment, []).append(path)
        env = self.fs.env
        waits = []
        for deployment, paths in by_deployment.items():
            exclude = [self.member_id] if deployment == self.deployment_name else []
            waits.append(env.process(
                self.fs.coordinator.invalidate(
                    deployment, paths=paths, exclude=exclude,
                    initiator=self.member_id, trace_parent=trace_parent,
                )
            ))
        if waits:
            yield AllOf(env, waits)

    def run_subtree_coherence(
        self, prefix: str, deployments: List[str], trace_parent=None
    ) -> Generator:
        """One prefix INV per deployment caching subtree metadata."""
        env = self.fs.env
        waits = []
        for deployment in deployments:
            exclude = [self.member_id] if deployment == self.deployment_name else []
            waits.append(env.process(
                self.fs.coordinator.invalidate(
                    deployment, prefix=prefix, exclude=exclude,
                    initiator=self.member_id, trace_parent=trace_parent,
                )
            ))
        if waits:
            yield AllOf(env, waits)
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
            self._forget(path)
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

        def body(txn):
            for action in actions:
                kind = action[0]
                if kind == "delete_inode":
                    _, target_id, parent_id, name = action
                    yield from txn.delete(dirent_key(parent_id, name))
                    yield from txn.delete(inode_key(target_id))
                elif kind == "touch_inode":
                    _, target_id = action
                    inode = txn._visible(inode_key(target_id))
                    if inode is not None:
                        yield from txn.write(inode_key(target_id), inode)
            return len(actions)

        return (
            yield from self.fs.store.run_transaction(
                body, label="exec batch", trace_parent=span
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
        for path in inv.paths:
            self._remember_stale(path)
            self._forget(path)
            self._listing_cache.pop(path, None)
            self._drop_listing_of_parent(path)

    def _invalidate_prefix_local(self, prefix: str) -> None:
        tracer = self.fs.env.tracer
        if tracer is not None:
            tracer.point(
                "nn.cache_invalidate", self.member_id,
                path=prefix, prefix=prefix,
            )
        self.cache.invalidate_prefix(prefix)
        self._file_views.clear()
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

    def _purge_result_cache(self) -> None:
        now = self.fs.env.now
        ttl = self.config.result_cache_ttl_ms
        # Purging is amortized: scan at most once per quarter-TTL so
        # a full cache does not trigger a rescan on every request.
        if (
            len(self._result_cache) < 4096
            or now - self._last_result_purge < ttl / 4
        ):
            return
        self._last_result_purge = now
        expired = [
            request_id
            for request_id, (at, _) in self._result_cache.items()
            if now - at > ttl
        ]
        for request_id in expired:
            del self._result_cache[request_id]
