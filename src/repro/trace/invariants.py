"""Runtime invariant checkers over the trace span stream.

Checkers subscribe to a :class:`~repro.trace.tracer.Tracer` and
validate, online, the correctness properties the paper's arguments
rest on:

* **Coherence** (Algorithm 1 / Appendix D): a write must not commit
  while an INV round it initiated for the same path is still awaiting
  ACKs, and a NameNode must never serve a cached read for a path that
  an INV already invalidated on that NameNode.
* **Lock discipline** (strict two-phase locking in the metadata
  store): no release-without-acquire, no two owners holding
  incompatible modes on one row, no locks surviving past transaction
  end, and no blocking lock acquisition out of canonical key order
  within one acquisition batch (the deadlock-avoidance discipline of
  ``Transaction.lock_many``; cross-batch hierarchical orders are
  legitimate and protected by timeout+retry instead).

Checkers record :class:`Violation` objects; with ``FAIL_FAST`` set
they raise :class:`InvariantViolation` immediately so a broken run
dies at the first bad event instead of producing numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.trace.tracer import Span, Tracer

#: Raise at the first violation instead of recording it.
FAIL_FAST = False


class InvariantViolation(AssertionError):
    """Raised by a fail-fast checker at the moment an invariant breaks."""


@dataclass(frozen=True)
class Violation:
    """One recorded invariant violation."""

    checker: str
    rule: str
    message: str
    time_ms: float
    actor: str = ""

    def __str__(self) -> str:
        return f"[{self.checker}/{self.rule}] t={self.time_ms:.3f}ms {self.message}"


class Checker:
    """Base class: violation bookkeeping plus the observe() hook."""

    name = "checker"

    def __init__(self) -> None:
        self.violations: List[Violation] = []

    def observe(self, phase: str, span: Span) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def _flag(self, rule: str, message: str, span: Span) -> None:
        violation = Violation(self.name, rule, message, span.start_ms, span.actor)
        self.violations.append(violation)
        if FAIL_FAST:
            raise InvariantViolation(str(violation))


def _covers(paths: Tuple[str, ...], prefix: Optional[str], path: str) -> bool:
    """True when an INV round's target set includes ``path``."""
    if prefix is not None:
        return path == prefix or path.startswith(prefix.rstrip("/") + "/")
    return path in paths


class CoherenceChecker(Checker):
    """ACK-INV protocol: writes persist only after invalidation.

    Consumes:

    * ``coord.inv`` spans (begin = INVs sent, end = every ACK in, with
      ``initiator``/``paths``/``prefix`` attrs);
    * ``coord.inv_deliver`` points (an INV reached one member — from
      that instant any cached copy of those paths on that member is
      stale *by protocol*, whatever the member's handler does);
    * ``nn.commit`` points (a write transaction is about to persist
      ``paths``, emitted by the leader NameNode);
    * ``nn.cache_put`` / ``nn.cache_hit`` points from NameNode caches.
    """

    name = "coherence"

    def __init__(self) -> None:
        super().__init__()
        # inv_id -> (initiator, paths, prefix, causal parent span id).
        # A NameNode serves writes concurrently, so rounds are matched
        # to commits by the originating request (the shared parent
        # span), not just by the initiating actor — txn B must not be
        # blamed for txn A's still-open round on the same path.
        self.open_rounds: Dict[
            int, Tuple[str, Tuple[str, ...], Optional[str], Optional[int]]
        ] = {}
        # actor -> path -> True (validly cached) or the sim-time the
        # entry was invalidated (a float; kept so bounded-staleness
        # hits can be verified against the *checker's own* clock, not
        # the server's claim).
        self.validity: Dict[str, Dict[str, Any]] = {}
        self.commits_checked = 0
        self.hits_checked = 0
        self.stale_hits_ok = 0
        """Bounded-staleness hits served within their declared bound
        (the resilience degradation path, verified rather than waived)."""

    def observe(self, phase: str, span: Span) -> None:
        kind = span.kind
        if kind == "coord.inv":
            inv_id = span.attrs.get("inv_id")
            if phase == "begin":
                self.open_rounds[inv_id] = (
                    span.attrs.get("initiator", ""),
                    tuple(span.attrs.get("paths", ())),
                    span.attrs.get("prefix"),
                    span.parent_id,
                )
            elif phase == "end":
                self.open_rounds.pop(inv_id, None)
        elif phase != "point":
            return
        elif kind == "coord.inv_deliver":
            self._mark_invalid(
                span.attrs.get("member", span.actor),
                tuple(span.attrs.get("paths", ())),
                span.attrs.get("prefix"),
                span.start_ms,
            )
        elif kind == "nn.commit":
            self._check_commit(span)
        elif kind == "nn.cache_put":
            self.validity.setdefault(span.actor, {})[span.attrs["path"]] = True
        elif kind == "nn.cache_invalidate":
            # A local invalidation (leader refreshing its own cache);
            # ``prefix`` covers subtree invalidations.
            self._mark_invalid(
                span.actor, (span.attrs["path"],), span.attrs.get("prefix"),
                span.start_ms,
            )
        elif kind == "nn.cache_hit":
            self._check_hit(span)

    # -- rules ---------------------------------------------------------
    def _check_commit(self, span: Span) -> None:
        self.commits_checked += 1
        paths = tuple(span.attrs.get("paths", ()))
        for inv_id, (initiator, inv_paths, prefix, parent) in self.open_rounds.items():
            if initiator != span.actor or parent != span.parent_id:
                continue
            stale = [p for p in paths if _covers(inv_paths, prefix, p)]
            if stale:
                self._flag(
                    "commit-before-ack",
                    f"{span.actor} committed write to {stale} while INV round "
                    f"{inv_id} (paths={list(inv_paths)!r}, prefix={prefix!r}) "
                    f"still awaits ACKs",
                    span,
                )

    def _check_hit(self, span: Span) -> None:
        self.hits_checked += 1
        path = span.attrs["path"]
        value = self.validity.get(span.actor, {}).get(path)
        if value is None or value is True:
            return
        # The entry was invalidated on this NameNode.  A hit declaring
        # ``bounded_stale`` is the resilience degradation path: legal
        # iff the staleness — measured against the invalidation time
        # *this checker* recorded, not the server's claim — is within
        # the declared bound.  An undeclared hit is the original
        # coherence violation.
        if span.attrs.get("bounded_stale"):
            bound = span.attrs.get("stale_bound_ms")
            invalidated_at = value if isinstance(value, float) else None
            staleness = (
                span.start_ms - invalidated_at
                if invalidated_at is not None
                else span.attrs.get("staleness_ms")
            )
            if bound is not None and staleness is not None and staleness <= bound:
                self.stale_hits_ok += 1
                return
            self._flag(
                "stale-hit-beyond-bound",
                f"{span.actor} served bounded-stale read of {path!r} "
                f"{staleness if staleness is not None else '?'} ms after "
                f"invalidation (bound {bound} ms)",
                span,
            )
            return
        self._flag(
            "stale-cache-hit",
            f"{span.actor} served cached read of {path!r} after it was "
            f"invalidated on this NameNode",
            span,
        )

    def _mark_invalid(
        self,
        actor: str,
        paths: Tuple[str, ...],
        prefix: Optional[str],
        at_ms: float = 0.0,
    ) -> None:
        state = self.validity.setdefault(actor, {})
        for path in paths:
            state[path] = at_ms
        if prefix is not None:
            for path in state:
                if _covers((), prefix, path):
                    state[path] = at_ms


class LockDisciplineChecker(Checker):
    """Strict-2PL discipline over the metastore row locks.

    Consumes ``lock.acquire`` / ``lock.release`` points and
    ``lock.wait`` *spans* (the ordering rule fires at the begin edge —
    the instant blocking starts) from
    :class:`~repro.metastore.locks.LockManager`, plus ``txn.end``
    points from :class:`~repro.metastore.ndb.Transaction`.  Row keys
    are compared by their ``repr`` — the same canonical order
    ``Transaction.lock_many`` sorts by.
    """

    name = "locks"

    def __init__(self) -> None:
        super().__init__()
        # owner label -> key repr -> mode ("shared" | "exclusive")
        self.held: Dict[str, Dict[str, str]] = {}
        # key repr -> {owner label: mode} (for mutual-exclusion checks)
        self.by_key: Dict[str, Dict[str, str]] = {}
        # owner label -> key repr -> acquisition batch epoch.  The
        # canonical-order promise is per lock_many batch; hierarchical
        # orders across batches are legitimate (timeout+retry handles
        # those deadlocks), so the ordering rule only compares keys
        # acquired in the same epoch as the blocking wait.
        self.key_epoch: Dict[str, Dict[str, Any]] = {}
        self.acquires = 0
        self.releases = 0

    def observe(self, phase: str, span: Span) -> None:
        kind = span.kind
        if kind == "lock.wait":
            if phase == "begin":
                self._on_wait(span)
            return
        if phase != "point":
            return
        if kind == "lock.acquire":
            self._on_acquire(span)
        elif kind == "lock.release":
            self._on_release(span)
        elif kind == "txn.end":
            self._on_txn_end(span)

    # -- rules ---------------------------------------------------------
    def _on_acquire(self, span: Span) -> None:
        self.acquires += 1
        owner, key, mode = span.actor, span.attrs["key"], span.attrs["mode"]
        holders = self.by_key.setdefault(key, {})
        for other, other_mode in holders.items():
            if other == owner:
                continue
            if mode == "exclusive" or other_mode == "exclusive":
                self._flag(
                    "mutual-exclusion",
                    f"{owner} granted {mode} on {key} while {other} holds "
                    f"{other_mode}",
                    span,
                )
        holders[owner] = mode
        self.held.setdefault(owner, {})[key] = mode
        self.key_epoch.setdefault(owner, {})[key] = span.attrs.get("epoch")

    def _on_release(self, span: Span) -> None:
        self.releases += 1
        owner, key = span.actor, span.attrs["key"]
        mine = self.held.get(owner, {})
        if key not in mine:
            self._flag(
                "release-without-acquire",
                f"{owner} released {key} which it does not hold",
                span,
            )
            return
        del mine[key]
        self.key_epoch.get(owner, {}).pop(key, None)
        holders = self.by_key.get(key)
        if holders is not None:
            holders.pop(owner, None)
            if not holders:
                del self.by_key[key]

    def _on_wait(self, span: Span) -> None:
        owner, key = span.actor, span.attrs["key"]
        mine = self.held.get(owner, {})
        epochs = self.key_epoch.get(owner, {})
        epoch = span.attrs.get("epoch")
        later = [
            held for held in mine
            if held > key and epochs.get(held) == epoch
        ]
        if later:
            self._flag(
                "out-of-order-wait",
                f"{owner} blocks on {key} while holding later-ordered "
                f"key(s) {sorted(later)} — deadlock-prone acquisition order",
                span,
            )

    def _on_txn_end(self, span: Span) -> None:
        owner = span.actor
        self.key_epoch.pop(owner, None)
        leftover = self.held.pop(owner, {})
        if leftover:
            self._flag(
                "locks-held-past-txn-end",
                f"{owner} ended with lock(s) still held: {sorted(leftover)}",
                span,
            )
            for key in leftover:
                holders = self.by_key.get(key)
                if holders is not None:
                    holders.pop(owner, None)
                    if not holders:
                        del self.by_key[key]


def default_checkers() -> List[Checker]:
    """The standard battery: coherence + lock discipline."""
    return [CoherenceChecker(), LockDisciplineChecker()]


def install_tracer(env) -> Tracer:
    """Attach a tracer with the default invariant battery to ``env``."""
    tracer = Tracer(env)
    for checker in default_checkers():
        tracer.add_checker(checker)
    return tracer
