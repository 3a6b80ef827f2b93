"""A shared/exclusive row-lock manager with FIFO fairness.

Grant rules follow classic strict two-phase locking:

* any number of holders may share a key in ``SHARED`` mode;
* ``EXCLUSIVE`` requires sole ownership;
* a lone ``SHARED`` holder may upgrade to ``EXCLUSIVE`` in place;
* waiters are served FIFO, except that compatible ``SHARED`` waiters
  are granted in batches, which prevents writer starvation without
  serializing readers.

Deadlock handling is by timeout: a request that waits longer than its
budget fails with :class:`~repro.metastore.errors.LockTimeout` (callers
also keep deadlocks rare by locking keys in a canonical order, the
same discipline HopsFS uses for its subtree protocol).
"""

from __future__ import annotations

import enum
from collections import deque
from typing import TYPE_CHECKING, Any, Deque, Dict, Optional

from repro.metastore.errors import LockTimeout
from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Environment


class LockMode(enum.Enum):
    SHARED = "shared"
    EXCLUSIVE = "exclusive"


class _LockRequest(Event):
    __slots__ = ("owner", "mode")

    def __init__(self, env: "Environment", owner: Any, mode: LockMode) -> None:
        super().__init__(env)
        self.owner = owner
        self.mode = mode


class _KeyLock:
    __slots__ = ("holders", "queue", "exclusive_holder")

    def __init__(self) -> None:
        # owner -> mode currently held
        self.holders: Dict[Any, LockMode] = {}
        self.queue: Deque[_LockRequest] = deque()
        # At most one exclusive holder can exist; tracking it directly
        # keeps grant checks O(1) even with hundreds of sharers on a
        # hot ancestor row.
        self.exclusive_holder: Any = None

    def grant(self, owner: Any, mode: LockMode) -> None:
        self.holders[owner] = mode
        if mode is LockMode.EXCLUSIVE:
            self.exclusive_holder = owner

    def revoke(self, owner: Any) -> None:
        del self.holders[owner]
        if self.exclusive_holder == owner:
            self.exclusive_holder = None


class LockManager:
    """Row locks keyed by arbitrary hashable keys."""

    def __init__(self, env: "Environment", default_timeout_ms: float = 10_000.0) -> None:
        self.env = env
        self.default_timeout_ms = default_timeout_ms
        self._locks: Dict[Any, _KeyLock] = {}
        if env.metrics is not None:
            env.metrics.register_gauge(
                "lock_queue_depth",
                lambda locks=self._locks: float(
                    sum(len(lock.queue) for lock in locks.values())
                ),
                help="Total transactions parked waiting for row locks",
            )

    def holders(self, key: Any) -> Dict[Any, LockMode]:
        """Snapshot of current holders for ``key`` (for tests)."""
        lock = self._locks.get(key)
        return dict(lock.holders) if lock else {}

    def queue_length(self, key: Any) -> int:
        lock = self._locks.get(key)
        return len(lock.queue) if lock else 0

    def acquire(self, owner: Any, key: Any, mode: LockMode, timeout_ms: Optional[float] = None):
        """Generator: acquire ``key`` in ``mode`` for ``owner``.

        Raises :class:`LockTimeout` if not granted within the budget.
        """
        budget = self.default_timeout_ms if timeout_ms is None else timeout_ms
        lock = self._locks.setdefault(key, _KeyLock())
        env = self.env
        # One env.instrumented read covers tracer + metrics on the
        # hottest lock path (every row access comes through here).
        if env.instrumented:
            tracer = env.tracer
            metrics = env.metrics
        else:
            tracer = None
            metrics = None

        held = lock.holders.get(owner)
        if held is not None:
            if held is LockMode.EXCLUSIVE or mode is LockMode.SHARED:
                return  # already strong enough
            if len(lock.holders) == 1:
                # Lone holder: upgrade in place.
                lock.grant(owner, LockMode.EXCLUSIVE)
                if tracer is not None:
                    tracer.point("lock.acquire", repr(owner), key=repr(key),
                                 mode="exclusive", upgrade=True,
                                 epoch=getattr(owner, "_lock_epoch", None))
                return
            # Upgrade with other sharers present: holding the shared
            # lock while waiting would deadlock against a concurrent
            # upgrader, so release and requeue for exclusive (the
            # caller must treat previously read values as stale).
            lock.revoke(owner)
            if tracer is not None:
                tracer.point("lock.release", repr(owner), key=repr(key),
                             upgrade_requeue=True)
            self._grant_waiters(key, lock)
            lock = self._locks.setdefault(key, _KeyLock())

        if self._grantable(lock, owner, mode) and not lock.queue:
            lock.grant(owner, mode)
            if tracer is not None:
                tracer.point("lock.acquire", repr(owner), key=repr(key),
                             mode=mode.value,
                             epoch=getattr(owner, "_lock_epoch", None))
            return

        if budget <= 0.0:
            # Deadline-capped callers can arrive with no wait budget
            # left; fail fast without enqueuing (no events, no timer —
            # detached runs never reach here, so hashes are safe).
            if metrics is not None:
                metrics.inc("lock_waits_total", mode=mode.value)
                metrics.inc("lock_wait_timeouts_total")
            if tracer is not None:
                tracer.point("lock.wait_timeout", repr(owner), key=repr(key),
                             budget_ms=budget)
            raise LockTimeout(f"lock wait on {key!r} exceeded {budget} ms")

        wait_span = None
        if tracer is not None:
            # A *span*, not a point: its duration is the lock-wait
            # stage on the critical path (begin at enqueue, end at
            # grant or timeout).  The discipline checker consumes the
            # begin edge exactly like the old point.
            wait_span = tracer.begin(
                "lock.wait", repr(owner),
                parent=getattr(owner, "_trace_span", None),
                key=repr(key), mode=mode.value,
                epoch=getattr(owner, "_lock_epoch", None),
            )
        if metrics is not None:
            metrics.inc("lock_waits_total", mode=mode.value)
        wait_started = self.env.now
        request = _LockRequest(self.env, owner, mode)
        lock.queue.append(request)
        timer = self.env.timeout(budget)
        result = yield request | timer
        if metrics is not None:
            metrics.observe("lock_wait_ms", self.env.now - wait_started)
        if request not in result:
            try:
                lock.queue.remove(request)
            except ValueError:
                pass
            if metrics is not None:
                metrics.inc("lock_wait_timeouts_total")
            if tracer is not None:
                tracer.end(wait_span, granted=False, budget_ms=budget)
                tracer.point("lock.wait_timeout", repr(owner), key=repr(key),
                             budget_ms=budget)
            raise LockTimeout(f"lock wait on {key!r} exceeded {budget} ms")
        if tracer is not None:
            tracer.end(wait_span, granted=True)
        return

    def release(self, owner: Any, key: Any) -> None:
        """Release ``owner``'s lock on ``key`` (no-op if not held)."""
        lock = self._locks.get(key)
        if lock is None or owner not in lock.holders:
            return
        lock.revoke(owner)
        tracer = self.env.tracer if self.env.instrumented else None
        if tracer is not None:
            tracer.point("lock.release", repr(owner), key=repr(key))
        self._grant_waiters(key, lock)

    def release_all(self, owner: Any, keys) -> None:
        for key in keys:
            self.release(owner, key)

    # -- internals -----------------------------------------------------
    def _grantable(self, lock: _KeyLock, owner: Any, mode: LockMode) -> bool:
        if mode is LockMode.SHARED:
            exclusive = lock.exclusive_holder
            return exclusive is None or exclusive == owner
        if not lock.holders:
            return True
        return len(lock.holders) == 1 and owner in lock.holders

    def _grant_waiters(self, key: Any, lock: _KeyLock) -> None:
        tracer = self.env.tracer if self.env.instrumented else None
        granted_any = True
        while granted_any and lock.queue:
            granted_any = False
            head = lock.queue[0]
            if head.triggered:
                lock.queue.popleft()
                granted_any = True
                continue
            if self._grantable(lock, head.owner, head.mode):
                lock.queue.popleft()
                lock.grant(head.owner, head.mode)
                if tracer is not None:
                    tracer.point("lock.acquire", repr(head.owner),
                                 key=repr(key), mode=head.mode.value,
                                 epoch=getattr(head.owner, "_lock_epoch", None))
                head.succeed()
                granted_any = True
                # Batch-grant further compatible shared requests.
                if head.mode is LockMode.SHARED:
                    remaining = deque()
                    for request in lock.queue:
                        if request.triggered:
                            continue
                        if request.mode is LockMode.SHARED:
                            lock.grant(request.owner, LockMode.SHARED)
                            if tracer is not None:
                                tracer.point("lock.acquire",
                                             repr(request.owner),
                                             key=repr(key), mode="shared",
                                             epoch=getattr(request.owner,
                                                           "_lock_epoch", None))
                            request.succeed()
                        else:
                            remaining.append(request)
                    lock.queue = remaining
        if not lock.holders and not lock.queue:
            self._locks.pop(key, None)
