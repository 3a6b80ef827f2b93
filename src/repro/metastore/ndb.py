"""A MySQL-Cluster-NDB-like persistent metadata store.

The store is sharded; each shard has a finite pool of worker threads
(a :class:`~repro.sim.Resource`) and a per-row service time, so the
store saturates realistically: cache-less systems (HopsFS) hit its
read ceiling and every system hits its write ceiling — the effects
the paper's evaluation leans on (§5.3: "the persistent metadata store
quickly becomes a bottleneck").

Transactions provide strict two-phase locking over row keys, ACID
apply-at-commit semantics, and NDB-style lock-wait timeouts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import count
from typing import Any, Callable, Dict, Generator, Iterable, List, Optional, Set, Tuple

from repro._util import stable_hash
from repro.metastore.errors import TransactionAborted
from repro.metastore.locks import LockManager, LockMode
from repro.rpc.retry import RetryPolicy
from repro.sim import Environment, Resource


@dataclass(frozen=True)
class NdbConfig:
    """Capacity and latency knobs for the store.

    Defaults approximate the paper's 4-data-node NDB deployment,
    scaled to simulation units (milliseconds).
    """

    shards: int = 4
    workers_per_shard: int = 8
    read_service_ms: float = 0.30
    write_service_ms: float = 1.30
    commit_service_ms: float = 0.50
    rtt_ms: float = 0.5
    lock_timeout_ms: float = 2_000.0
    batch_row_discount: float = 0.25
    """Extra rows in one batched query cost this fraction of a full row
    (models NDB batched primary-key reads; §2's single batch query)."""


@dataclass
class NdbStats:
    """Aggregate counters, including busy-time for utilization."""

    reads: int = 0
    rows_read: int = 0
    writes: int = 0
    commits: int = 0
    aborts: int = 0
    scans: int = 0
    busy_ms: float = 0.0


class NdbStore:
    """The sharded transactional store."""

    def __init__(
        self,
        env: Environment,
        config: Optional[NdbConfig] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.env = env
        self.config = config or NdbConfig()
        # Jitter stream for transaction-retry backoff; callers (e.g.
        # LambdaFS) pass a named RngStreams stream for reproducibility.
        self._retry_rng = rng if rng is not None else random.Random(0)
        self._data: Dict[Any, Any] = {}
        self._prefix_index: Dict[Any, Set[Any]] = {}
        self.locks = LockManager(env, self.config.lock_timeout_ms)
        self._shards: List[Resource] = [
            Resource(env, capacity=self.config.workers_per_shard)
            for _ in range(self.config.shards)
        ]
        self._txn_ids = count(1)
        self.stats = NdbStats()
        #: Optional :class:`~repro.resilience.ResilienceManager`; when
        #: attached, shard accesses report latency to per-shard circuit
        #: breakers and transactions honor request deadlines.
        self.resilience = None
        if env.metrics is not None:
            self._register_gauges(env.metrics)

    def _register_gauges(self, metrics: Any) -> None:
        """Expose NdbStats and shard queues as sample-time callbacks."""
        stats = self.stats
        for field_name in ("reads", "rows_read", "writes", "commits",
                          "aborts", "scans", "busy_ms"):
            metrics.register_gauge(
                f"store_{field_name}",
                lambda f=field_name, s=stats: float(getattr(s, f)),
                help="NdbStats field (cumulative)",
            )
        for index, shard in enumerate(self._shards):
            metrics.register_gauge(
                "store_shard_queue_depth",
                lambda r=shard: float(r.queue_length),
                help="Requests waiting for a shard worker",
                shard=str(index),
            )

    # -- direct (non-transactional) access ------------------------------
    def peek(self, key: Any) -> Any:
        """Committed value without cost or locks (tests/bootstrap only)."""
        return self._data.get(key)

    def load_bulk(self, items: Dict[Any, Any]) -> None:
        """Install rows instantly (experiment setup, not on the clock)."""
        for key, value in items.items():
            self._apply_write(key, value)

    def keys_with_prefix(self, prefix: Tuple) -> List[Any]:
        """Committed keys whose ``key[:-1]`` equals ``prefix``."""
        return sorted(self._prefix_index.get(prefix, ()), key=repr)

    def __len__(self) -> int:
        return len(self._data)

    # -- transactions ----------------------------------------------------
    def begin(
        self,
        label: str = "",
        trace_parent=None,
        deadline_ms: Optional[float] = None,
    ) -> "Transaction":
        """Start a new transaction.

        ``deadline_ms`` is the absolute sim-time deadline of the op this
        transaction serves; lock waits are capped by the remaining
        budget so a doomed transaction fails fast instead of camping on
        rows for the full NDB lock-wait timeout.
        """
        txn = Transaction(self, next(self._txn_ids), label,
                          deadline_ms=deadline_ms)
        tracer = self.env.tracer
        if tracer is not None:
            txn._trace_span = tracer.begin(
                "txn", repr(txn), parent=trace_parent, label=label
            )
        return txn

    def run_transaction(
        self,
        body: Callable[["Transaction"], Generator],
        retries: int = 8,
        backoff_ms: float = 2.0,
        backoff_cap_ms: float = 64.0,
        label: str = "",
        trace_parent=None,
        deadline_ms: Optional[float] = None,
    ) -> Generator:
        """Run ``body`` with retry-on-abort; returns the body's value.

        ``body`` is a generator function taking the transaction; it is
        retried when aborted (lock timeouts) after a full-jitter
        exponential backoff capped at ``backoff_cap_ms``: aborts come
        in storms (one timeout aborts every waiter on the row), and
        uncapped, lock-step retries would re-collide indefinitely.

        With ``deadline_ms`` set, each (re)attempt first checks the
        remaining budget and aborts permanently once it is exhausted —
        retrying a transaction whose caller has already given up only
        feeds metastable overload.
        """
        attempt = 0
        policy = RetryPolicy(
            base_ms=backoff_ms, factor=2.0, max_ms=backoff_cap_ms
        )
        while True:
            if deadline_ms is not None and self.env.now >= deadline_ms:
                raise TransactionAborted(
                    f"deadline expired before txn attempt ({label or 'txn'})"
                )
            txn = self.begin(label, trace_parent, deadline_ms=deadline_ms)
            try:
                result = yield from body(txn)
                yield from txn.commit()
                return result
            except TransactionAborted:
                txn.abort()
                attempt += 1
                if attempt > retries:
                    raise
                delay = policy.full_jitter_delay(attempt, self._retry_rng)
                tracer = self.env.tracer
                retry_span = None
                if tracer is not None:
                    retry_span = tracer.begin(
                        "txn.backoff", repr(txn), parent=trace_parent,
                        attempt=attempt, label=label, backoff_ms=delay,
                    )
                yield self.env.timeout(delay)
                if tracer is not None:
                    tracer.end(retry_span)
            except BaseException:
                # Application errors (NotFound, AlreadyExists, ...)
                # must release the transaction's locks on the way out
                # or the rows stay poisoned forever.
                txn.abort()
                raise

    # -- internals shared with Transaction ------------------------------
    def _shard_of(self, key: Any) -> Resource:
        return self._shards[stable_hash(key) % len(self._shards)]

    def _service(self, shard: Resource, service_ms: float) -> Generator:
        """One shard access: half RTT, queue for a worker, serve, half RTT."""
        res = self.resilience
        breaker = None
        if res is not None and res.active:
            breaker = res.breaker("shard", str(self._shards.index(shard)))
            if not breaker.allow(self.env.now):
                res.breaker_rejected("shard")
                raise TransactionAborted(
                    f"{breaker.name} breaker open"
                )
        started = self.env.now
        chaos = self.env.chaos
        if chaos is not None:
            index = self._shards.index(shard)
            hold = chaos.store_hold_ms(index)
            if hold > 0.0:
                # Shard unavailability window: the request stalls
                # until the shard (NDB data-node failover) comes back.
                yield self.env.timeout(hold)
            service_ms = service_ms * chaos.store_factor(index)
        half_rtt = self.config.rtt_ms / 2.0
        if half_rtt:
            yield self.env.timeout(half_rtt)
        with shard.request() as slot:
            yield slot
            self.stats.busy_ms += service_ms
            yield self.env.timeout(service_ms)
        if half_rtt:
            yield self.env.timeout(half_rtt)
        if breaker is not None:
            # Brownouts (chaos slowdowns, failover holds, queueing) show
            # up as latency, so a slow completion is a failure signal to
            # the breaker even though the access ultimately succeeded.
            elapsed = self.env.now - started
            if elapsed > res.config.shard_latency_threshold_ms:
                breaker.record_failure(self.env.now)
            else:
                breaker.record_success(self.env.now)

    def _service_batch(self, keys: Iterable[Any], base_ms: float) -> Generator:
        """Access several rows as one batched request.

        NDB routes a transaction through one transaction coordinator,
        which fans out to data nodes; we model the batch as a single
        access on the coordinating shard (chosen by the first key)
        whose cost grows sub-linearly with the row count — the same
        capacity semantics with far fewer simulation events.
        """
        key_list = list(keys)
        if not key_list:
            return
        cost = base_ms * (
            1 + self.config.batch_row_discount * (len(key_list) - 1)
        )
        # The coordinating shard is picked by the whole key set, not
        # the first key: distinct batches spread across shards even
        # when they share a common prefix (e.g. the root dirent that
        # every path resolution touches).
        coordinator = self._shards[stable_hash(tuple(key_list)) % len(self._shards)]
        yield from self._service(coordinator, cost)

    def _apply_write(self, key: Any, value: Any) -> None:
        if value is _TOMBSTONE:
            self._data.pop(key, None)
            prefix = key[:-1] if isinstance(key, tuple) and len(key) > 1 else None
            if prefix is not None:
                bucket = self._prefix_index.get(prefix)
                if bucket is not None:
                    bucket.discard(key)
                    if not bucket:
                        del self._prefix_index[prefix]
            return
        self._data[key] = value
        if isinstance(key, tuple) and len(key) > 1:
            self._prefix_index.setdefault(key[:-1], set()).add(key)


_TOMBSTONE = object()


class Transaction:
    """One ACID transaction against an :class:`NdbStore`.

    Reads take shared locks, writes take exclusive locks; staged
    writes become visible only at :meth:`commit`.  All time-costing
    methods are generators (``yield from`` them inside a process).
    """

    def __init__(
        self,
        store: NdbStore,
        txn_id: int,
        label: str = "",
        deadline_ms: Optional[float] = None,
    ) -> None:
        self.store = store
        self.id = txn_id
        self.label = label
        self.deadline_ms = deadline_ms
        self._staged: Dict[Any, Any] = {}
        self._locked: Set[Any] = set()
        self._done = False
        self._trace_span = None
        # Canonical-order locking is promised per acquisition batch
        # (one lock_many call, or one standalone lock), not across a
        # transaction's lifetime; the epoch labels each batch so the
        # lock-discipline checker scopes its ordering rule correctly.
        self._lock_epoch = 0

    def __repr__(self) -> str:
        tag = f" {self.label}" if self.label else ""
        return f"<Txn {self.id}{tag}>"

    # -- locking ---------------------------------------------------------
    def lock(self, key: Any, exclusive: bool = False, _batched: bool = False) -> Generator:
        """Acquire a row lock (aborting this txn on timeout)."""
        self._check_open()
        if not _batched:
            self._lock_epoch += 1
        mode = LockMode.EXCLUSIVE if exclusive else LockMode.SHARED
        timeout_ms = None
        if self.deadline_ms is not None:
            # Cap the lock wait by the op's remaining deadline budget:
            # once the caller would give up anyway, waiting the full
            # NDB lock-wait timeout just keeps rows poisoned longer.
            remaining = self.deadline_ms - self.store.env.now
            timeout_ms = min(self.store.config.lock_timeout_ms, remaining)
        try:
            yield from self.store.locks.acquire(
                self, key, mode, timeout_ms=timeout_ms
            )
        except TransactionAborted:
            self.abort()
            raise
        self._locked.add(key)

    def lock_many(
        self,
        keys: Iterable[Any],
        exclusive: bool = False,
        exclusive_keys: Iterable[Any] = (),
    ) -> Generator:
        """Lock several keys in canonical order (deadlock avoidance).

        ``exclusive_keys`` names keys to lock in write mode even when
        ``exclusive`` is False — callers that know they will modify a
        row take the write lock up front instead of upgrading later
        (upgrades between concurrent readers deadlock).
        """
        strong = set(exclusive_keys)
        self._lock_epoch += 1
        for key in sorted(set(keys) | strong, key=repr):
            yield from self.lock(key, exclusive or key in strong, _batched=True)

    # -- reads -------------------------------------------------------------
    def read(self, key: Any) -> Generator:
        """Read one row (shared lock + one shard access)."""
        self._check_open()
        yield from self.lock(key)
        yield from self.store._service(
            self.store._shard_of(key), self.store.config.read_service_ms
        )
        self.store.stats.reads += 1
        self.store.stats.rows_read += 1
        return self._visible(key)

    def read_many(
        self, keys: Iterable[Any], exclusive_keys: Iterable[Any] = ()
    ) -> Generator:
        """Batched multi-row read (the HopsFS "single batch query")."""
        self._check_open()
        key_list = list(keys)
        yield from self.lock_many(key_list, exclusive_keys=exclusive_keys)
        yield from self.store._service_batch(key_list, self.store.config.read_service_ms)
        self.store.stats.reads += 1
        self.store.stats.rows_read += len(key_list)
        return {key: self._visible(key) for key in key_list}

    def scan_prefix(self, prefix: Tuple) -> Generator:
        """Read every row under ``prefix`` (index scan, shared locks)."""
        self._check_open()
        keys = self.store.keys_with_prefix(prefix)
        # Include rows this txn itself staged under the prefix.
        for key in self._staged:
            if isinstance(key, tuple) and key[:-1] == prefix and key not in keys:
                keys.append(key)
        yield from self.lock_many(keys)
        yield from self.store._service_batch(keys, self.store.config.read_service_ms)
        self.store.stats.scans += 1
        self.store.stats.rows_read += len(keys)
        result = {}
        for key in keys:
            value = self._visible(key)
            if value is not None:
                result[key] = value
        return result

    # -- writes ------------------------------------------------------------
    def write(self, key: Any, value: Any) -> Generator:
        """Stage a row write (exclusive lock now, visible at commit)."""
        self._check_open()
        yield from self.lock(key, exclusive=True)
        self._staged[key] = value

    def delete(self, key: Any) -> Generator:
        """Stage a row delete."""
        self._check_open()
        yield from self.lock(key, exclusive=True)
        self._staged[key] = _TOMBSTONE

    # -- completion ----------------------------------------------------------
    def commit(self) -> Generator:
        """Apply staged writes and release all locks."""
        self._check_open()
        env = self.store.env
        if self._staged:
            tracer = env.tracer
            commit_span = None
            if tracer is not None:
                commit_span = tracer.begin(
                    "txn.commit", repr(self), parent=self._trace_span,
                    rows=len(self._staged),
                )
            yield from self.store._service_batch(
                self._staged.keys(), self.store.config.write_service_ms
            )
            yield from self.store._service(
                self.store._shard_of(("__commit__", self.id)),
                self.store.config.commit_service_ms,
            )
            if tracer is not None:
                tracer.end(commit_span)
            for key, value in self._staged.items():
                self.store._apply_write(key, value)
            self.store.stats.writes += len(self._staged)
        self.store.stats.commits += 1
        if env.metrics is not None:
            env.metrics.inc("store_txns_total", outcome="commit")
        self._finish(committed=True)

    def abort(self) -> None:
        """Discard staged writes and release all locks (instantaneous)."""
        if self._done:
            return
        self.store.stats.aborts += 1
        env = self.store.env
        if env.metrics is not None:
            env.metrics.inc("store_txns_total", outcome="abort")
        self._finish(committed=False)

    # -- internals -------------------------------------------------------------
    def _visible(self, key: Any) -> Any:
        if key in self._staged:
            value = self._staged[key]
            return None if value is _TOMBSTONE else value
        return self.store.peek(key)

    def _finish(self, committed: bool = False) -> None:
        # ``_locked`` is a set; released sorted so the wake order of
        # waiters parked on different keys never depends on the
        # per-process hash salt (lock_many acquires in the same
        # canonical order).
        self.store.locks.release_all(self, sorted(self._locked, key=repr))
        self._locked.clear()
        self._staged.clear()
        self._done = True
        env = self.store.env
        tracer = env.tracer
        if tracer is not None:
            # txn.end comes after release_all so the lock-discipline
            # checker has seen every lock.release for this owner.
            tracer.point("txn.end", repr(self), committed=committed)
            tracer.end(self._trace_span, committed=committed)
            self._trace_span = None

    def _check_open(self) -> None:
        if self._done:
            raise TransactionAborted(f"{self!r} is already finished")
