"""Causal op-tracing for the discrete-event simulation.

A :class:`Tracer` attaches to an :class:`~repro.sim.Environment`
(``env.tracer``) and observes the whole stack: the sim kernel folds
every executed event into a streaming **determinism hash**, and the
instrumented subsystems (rpc, namenode, coordinator, metastore) emit
:class:`Span` records that carry sim-time, an actor id, and a parent
span id — so a single client operation yields a complete causal tree:

    client.op
    └── rpc.tcp (attempt 1)
        └── nn.handle
            ├── txn (resolve)
            ├── coord.inv (deployment d3)
            └── txn (create file)

Tracing is strictly opt-in and zero-cost when disabled: every
instrumentation site is guarded by a single ``env.tracer is None``
check and no tracer object exists unless one was installed.  The
tracer never schedules events or consumes simulated time, so enabling
it cannot change simulation behaviour — same-seed runs produce the
same event sequence (and therefore the same hash) traced or not.

Online invariant checkers (see :mod:`repro.trace.invariants`)
subscribe to the span stream and validate protocol correctness as the
simulation runs.
"""

from __future__ import annotations

import hashlib
from itertools import count
from typing import Any, Dict, List, Optional


class Span:
    """One traced operation (or point event, when ``end_ms == start_ms``)."""

    __slots__ = ("span_id", "parent_id", "kind", "actor", "start_ms", "end_ms", "attrs")

    def __init__(
        self,
        span_id: int,
        parent_id: Optional[int],
        kind: str,
        actor: str,
        start_ms: float,
        attrs: Dict[str, Any],
    ) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.kind = kind
        self.actor = actor
        self.start_ms = start_ms
        self.end_ms: Optional[float] = None
        self.attrs = attrs

    @property
    def duration_ms(self) -> float:
        """Span duration; 0.0 while still open (or for point events)."""
        if self.end_ms is None:
            return 0.0
        return self.end_ms - self.start_ms

    @property
    def open(self) -> bool:
        return self.end_ms is None

    def __repr__(self) -> str:
        state = "open" if self.open else f"{self.duration_ms:.3f}ms"
        return (
            f"<Span {self.span_id} {self.kind} actor={self.actor!r} "
            f"t={self.start_ms:.3f} {state}>"
        )


def parent_id_of(parent: Any) -> Optional[int]:
    """Accept a Span, a span id, or None as a parent reference."""
    if parent is None:
        return None
    if isinstance(parent, Span):
        return parent.span_id
    return int(parent)


class Tracer:
    """Collects spans, streams them to checkers, hashes the event flow.

    Parameters
    ----------
    env:
        The simulation environment to attach to.  The tracer installs
        itself as ``env.tracer``.
    keep_spans:
        Retain finished span objects for causal-tree reconstruction
        and timing analysis.  Checkers receive the stream either way.
    max_spans:
        Retention cap.  Beyond it new spans are still streamed to
        checkers and counted, but no longer stored (``dropped``).
    """

    def __init__(
        self,
        env,
        keep_spans: bool = True,
        max_spans: int = 500_000,
    ) -> None:
        self.env = env
        self.keep_spans = keep_spans
        self.max_spans = max_spans
        self.spans: Dict[int, Span] = {}
        self.dropped = 0
        self.started = 0
        self.points = 0
        self.checkers: List[Any] = []
        self._ids = count(1)
        self._hash = hashlib.blake2b(digest_size=16)
        self.events_hashed = 0
        self.connections_opened = 0
        self.connections_closed = 0
        env.tracer = self

    # -- connection accounting -------------------------------------------
    def connection_opened(self) -> None:
        """One TCP connection came up (rpc layer hook)."""
        self.connections_opened += 1

    def connection_closed(self) -> None:
        """One TCP connection went down (rpc layer hook)."""
        self.connections_closed += 1

    @property
    def open_connections(self) -> int:
        """Connections opened but never closed — leak tripwire.

        A nonzero count at run end (after the system tears down) means
        some timeout/error path dropped a :class:`TcpConnection`
        without calling ``close()``; surfaced in :meth:`summary` next
        to ``open_spans`` so leaks stay visible.
        """
        return self.connections_opened - self.connections_closed

    # -- span stream -----------------------------------------------------
    def begin(self, kind: str, actor: str, parent: Any = None, **attrs: Any) -> Span:
        """Open a span at the current sim-time."""
        span = Span(
            next(self._ids), parent_id_of(parent), kind, actor, self.env.now, attrs
        )
        self.started += 1
        if self.keep_spans:
            if len(self.spans) < self.max_spans:
                self.spans[span.span_id] = span
            else:
                self.dropped += 1
        self._emit("begin", span)
        return span

    def end(self, span: Optional[Span], **attrs: Any) -> None:
        """Close ``span`` at the current sim-time (None is a no-op)."""
        if span is None:
            return
        span.end_ms = self.env.now
        if attrs:
            span.attrs.update(attrs)
        self._emit("end", span)

    def point(self, kind: str, actor: str, parent: Any = None, **attrs: Any) -> Span:
        """Record an instantaneous event (a zero-duration span)."""
        span = self.begin(kind, actor, parent, **attrs)
        span.end_ms = span.start_ms
        self.points += 1
        self._emit("point", span)
        return span

    def _emit(self, phase: str, span: Span) -> None:
        for checker in self.checkers:
            checker.observe(phase, span)

    # -- checker plumbing -------------------------------------------------
    def add_checker(self, checker: Any) -> Any:
        self.checkers.append(checker)
        return checker

    def violations(self) -> List[Any]:
        """All violations recorded by every attached checker."""
        found: List[Any] = []
        for checker in self.checkers:
            found.extend(getattr(checker, "violations", ()))
        return found

    # -- kernel hook -------------------------------------------------------
    def on_step(self, when: float, priority: int, eid: int, event: Any) -> None:
        """Called by :meth:`Environment.step` for every executed event.

        Folds the (time, priority, insertion-order, event-type) tuple
        into a streaming hash; two runs are step-for-step identical
        iff their hashes match.
        """
        self._hash.update(
            f"{when!r}|{priority}|{eid}|{type(event).__name__}\n".encode()
        )
        self.events_hashed += 1

    def event_hash(self) -> str:
        """Hex digest of the event sequence executed so far."""
        return self._hash.hexdigest()

    # -- analysis ----------------------------------------------------------
    def open_spans(self) -> List[Span]:
        """Retained spans never closed — instrumentation leaks.

        A span left open at run end means some ``begin()`` lacks a
        matching ``end()`` on one code path (usually an exception
        path); the profiler excludes such trees, so the leak count is
        surfaced in :meth:`summary` to keep them visible.
        """
        return [span for span in self.spans.values() if span.open]

    def summary(self) -> Dict[str, Any]:
        """One-glance report used by the CLI and bench drivers."""
        return {
            "event_hash": self.event_hash(),
            "events_hashed": self.events_hashed,
            "spans": self.started,
            "points": self.points,
            "dropped": self.dropped,
            "open_spans": len(self.open_spans()),
            "open_connections": self.open_connections,
            "violations": len(self.violations()),
        }
