"""Membership tracking and INV/ACK delivery.

The Coordinator implements exactly what Algorithm 1 needs:

1. a registry of live NameNode instances per deployment (with
   liveness notifications on termination);
2. reliable delivery of invalidations (INVs) to every live member of
   a deployment, and collection of their ACKs;
3. the rule that *"ACKs are not required from NameNodes that
   terminate mid-protocol"* — a member that deregisters while an INV
   is outstanding is dropped from the pending set so writers never
   block on the dead.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from typing import Callable, Dict, Generator, Iterable, Mapping, Optional, Set, Union

from repro.sim import Environment, Event


#: One-way delivery latency of an INV to one member (ZooKeeper).
PUBLISH_MS = 0.4
#: One-way latency of an ACK back to the leader.
ACK_MS = 0.4
#: Redelivery backoff when a member's ACK goes missing (chaos ACK
#: loss).  INV handlers are idempotent, so redelivering the whole INV
#: is safe and the writer eventually collects every ACK.
ACK_RETRY_MS = 5.0


@dataclass(frozen=True)
class CoordinatorConfig:
    """The Coordinator knobs chaos faults swap."""

    watch_ms: float = 0.3
    """Latency of a liveness notification."""
    ack_max_retries: int = 32
    """Redelivery attempts before the coordinator gives up on a
    member (0 disables redelivery — a lost ACK then strands the
    writer until the member deregisters).  Generous by default:
    redelivery is cheap and outlasts any plausible loss window."""


@dataclass(frozen=True)
class Invalidation:
    """One invalidation message.

    ``prefix`` selects subtree (prefix) semantics: members invalidate
    every cached path under it.  Otherwise ``paths`` lists the exact
    entries to drop.
    """

    inv_id: int
    deployment: str
    paths: tuple = ()
    prefix: Optional[str] = None

    @property
    def is_subtree(self) -> bool:
        return self.prefix is not None


class _Round:
    """One write's INV round: every deployment it reaches settles it."""

    __slots__ = ("started", "contacted", "unsettled", "event")

    def __init__(self, env: Environment, shares: int) -> None:
        self.started = env.now
        self.contacted = 0
        self.unsettled = shares
        self.event = Event(env)


class _PendingInv:
    """One deployment's share of a round: its INV, the members whose
    ACK it still awaits, and its ``coord.inv`` span."""

    __slots__ = ("inv", "round", "waiting", "span")

    def __init__(self, inv: Invalidation, round_: _Round, waiting: Set[str],
                 span) -> None:
        self.inv = inv
        self.round = round_
        self.waiting = waiting
        self.span = span


class Coordinator:
    """The ZooKeeper-backed Coordinator the paper deploys."""

    def __init__(self, env: Environment) -> None:
        self.env = env
        self.config = CoordinatorConfig()
        # deployment -> member_id -> INV handler callback
        self._members: Dict[str, Dict[str, Callable[[Invalidation], None]]] = {}
        # inv_id -> the deployment share still awaiting ACKs
        self._pending: Dict[int, _PendingInv] = {}
        self._inv_ids = count(1)
        self._death_watchers: Dict[str, list] = {}
        self.invs_sent = 0
        self.acks_received = 0

    # -- membership ------------------------------------------------------
    def register(
        self,
        deployment: str,
        member_id: str,
        inv_handler: Callable[[Invalidation], None],
    ) -> None:
        """Announce a live NameNode instance."""
        self._members.setdefault(deployment, {})[member_id] = inv_handler

    def deregister(self, deployment: str, member_id: str) -> None:
        """Remove an instance (normal scale-in or crash).

        Outstanding INVs waiting on this member are released, per the
        "no ACK required from terminated NameNodes" rule.
        """
        members = self._members.get(deployment, {})
        members.pop(member_id, None)
        for pending in list(self._pending.values()):
            waiting = pending.waiting
            if member_id in waiting:
                waiting.discard(member_id)
                if not waiting:
                    self._settle(pending)
        for callback in self._death_watchers.pop(member_id, []):
            self.env.process(self._notify_death(callback, member_id))

    def live_members(self, deployment: str) -> Set[str]:
        """Ids of instances currently alive in ``deployment``."""
        return set(self._members.get(deployment, {}))

    def deployments(self) -> Set[str]:
        """Names of deployments with at least one registered member."""
        return {name for name, members in self._members.items() if members}

    def inv_handler(self, deployment: str, member_id: str):
        """The registered INV handler for a member (or None).

        Lets fault injection capture a handler before a simulated
        deregistration so the member can rejoin with it afterwards.
        """
        return self._members.get(deployment, {}).get(member_id)

    def live_count(self, deployment: str) -> int:
        return len(self._members.get(deployment, {}))

    def watch_death(self, member_id: str, callback: Callable[[str], None]) -> None:
        """Invoke ``callback(member_id)`` when the member deregisters."""
        self._death_watchers.setdefault(member_id, []).append(callback)

    def _notify_death(self, callback: Callable[[str], None], member_id: str) -> Generator:
        yield self.env.timeout(self.config.watch_ms)
        callback(member_id)

    # -- coherence messaging ------------------------------------------------
    def invalidate(
        self,
        deployment: Union[str, Mapping[str, Iterable[str]]],
        paths: Iterable[str] = (),
        prefix: Optional[str] = None,
        exclude: Iterable[str] = (),
        initiator: str = "",
        trace_parent=None,
    ) -> Generator:
        """Send INVs to every live member and wait for all ACKs.

        ``deployment`` names one deployment, whose members drop
        ``paths``; or it maps each deployment a write reaches to the
        paths its members drop.  Either way it is one round: one
        delivery process serves every member, and the caller waits on
        one event that fires when every deployment has settled.  Each
        deployment still gets its own :class:`Invalidation`, its own
        ``coord.inv`` span and its own metrics, and settles (span
        ended, ACK latency observed) when its last member ACKs or
        deregisters.  ``prefix`` gives every INV of the round subtree
        semantics.

        ``exclude`` names members (typically the leader itself) that
        invalidate locally and need no message.  ``initiator`` tags the
        round with the writing NameNode's id so the coherence checker
        can pair it with that writer's commit.  Returns the number of
        members that were contacted.
        """
        shares = {deployment: paths} if isinstance(deployment, str) else deployment
        env = self.env
        tracer = env.tracer
        metrics = env.metrics
        excluded = set(exclude)
        round_ = _Round(env, len(shares))
        cohort = []
        for name, share_paths in shares.items():
            inv = Invalidation(
                inv_id=next(self._inv_ids),
                deployment=name,
                paths=tuple(share_paths),
                prefix=prefix,
            )
            live = self._members.get(name, {})
            waiting = live.keys() - excluded
            span = None
            if tracer is not None:
                span = tracer.begin(
                    "coord.inv", initiator or "coordinator", parent=trace_parent,
                    inv_id=inv.inv_id, deployment=name, paths=inv.paths,
                    prefix=prefix, initiator=initiator, members=len(waiting),
                )
            if metrics is not None:
                metrics.inc("coord_inv_rounds_total", deployment=name)
                if waiting:
                    metrics.inc(
                        "coord_invs_sent_total", len(waiting), deployment=name
                    )
                metrics.observe("coord_fanout", float(len(waiting)))
            pending = _PendingInv(inv, round_, waiting, span)
            if not waiting:
                self._settle(pending)
                continue
            round_.contacted += len(waiting)
            self._pending[inv.inv_id] = pending
            cohort.extend(
                (pending, member_id, handler, None)
                for member_id, handler in live.items()
                if member_id not in excluded
            )
        self.invs_sent += round_.contacted
        if not shares:
            round_.event.succeed()
        if cohort:
            env.process(self._deliver(cohort))
        yield round_.event
        return round_.contacted

    def ack(self, inv_id: int, member_id: str) -> None:
        """Record one member's ACK for ``inv_id``."""
        self.acks_received += 1
        if self.env.metrics is not None:
            self.env.metrics.inc("coord_acks_total")
        tracer = self.env.tracer
        if tracer is not None:
            tracer.point("coord.ack", member_id, inv_id=inv_id)
        pending = self._pending.get(inv_id)
        if pending is None:
            return
        waiting = pending.waiting
        waiting.discard(member_id)
        if not waiting:
            self._settle(pending)

    def _settle(self, pending: _PendingInv) -> None:
        """One deployment has every ACK it needs: close its share, and
        the round once no share is left."""
        self._pending.pop(pending.inv.inv_id, None)
        round_ = pending.round
        env = self.env
        if env.metrics is not None:
            env.metrics.observe("coord_ack_latency_ms", env.now - round_.started)
        if env.tracer is not None:
            env.tracer.end(pending.span)
        round_.unsettled -= 1
        if not round_.unsettled:
            round_.event.succeed()

    def _deliver(self, cohort: list) -> Generator:
        """Deliver a round's INVs to every target and collect the ACKs.

        ``cohort`` lists ``(share, member_id, handler, None)`` in
        deployment order, then member order; the last field holds the
        member's ``coord.member`` span when tracing.  Every member runs on the same
        timeline: the INV lands ``PUBLISH_MS`` after the round starts
        (or after a redelivery), its ACK ``ACK_MS`` later, and a lost
        ACK is redelivered after ``ACK_RETRY_MS``.  So one process
        serves the whole round: it waits once per leg, then walks the
        members in order.  Nothing else can run between two members'
        steps at the same instant, so each member sees the timeline a
        process of its own would give it.  Members whose ACK was lost
        are redelivered together.
        """
        env = self.env
        config = self.config
        members = self._members
        tracer = env.tracer
        if tracer is not None:
            # One per-member publish→ACK leg: the slowest of these is
            # its deployment's critical path.
            cohort = [
                (pending, member_id, handler, tracer.begin(
                    "coord.member", member_id, parent=pending.span,
                    inv_id=pending.inv.inv_id,
                ))
                for pending, member_id, handler, _ in cohort
            ]
        attempt = 0
        while True:
            attempt += 1
            yield env.timeout(PUBLISH_MS)
            delivered = []
            for entry in cohort:
                pending, member_id, handler, member_span = entry
                inv = pending.inv
                # The member may have died in flight; deregistration
                # already released its share in that case.
                if member_id not in members[inv.deployment]:
                    if tracer is not None:
                        tracer.end(member_span, delivered=False)
                    continue
                if tracer is not None:
                    # From this instant, any cached copy of these paths
                    # on the member is stale by protocol — emitted
                    # *before* the handler runs so a broken handler
                    # cannot hide staleness from the coherence checker.
                    tracer.point(
                        "coord.inv_deliver", member_id, parent=pending.span,
                        inv_id=inv.inv_id, paths=inv.paths, prefix=inv.prefix,
                    )
                handler(inv)
                delivered.append(entry)
            if not delivered:
                return
            yield env.timeout(ACK_MS)
            chaos = env.chaos
            cohort = []
            for entry in delivered:
                pending, member_id, handler, member_span = entry
                inv = pending.inv
                if chaos is not None and chaos.ack_should_drop(
                    inv.deployment, member_id
                ):
                    if tracer is not None:
                        tracer.point(
                            "chaos.ack_drop", member_id, parent=pending.span,
                            inv_id=inv.inv_id, attempt=attempt,
                        )
                    if attempt > config.ack_max_retries:
                        # Redelivery exhausted (or disabled): the writer
                        # stays blocked until this member deregisters.
                        if tracer is not None:
                            tracer.end(member_span, delivered=True, acked=False)
                        continue
                    cohort.append(entry)
                    continue
                if tracer is not None:
                    tracer.end(member_span, delivered=True)
                self.ack(inv.inv_id, member_id)
            if not cohort:
                return
            # Handlers are idempotent: redeliver the whole INV after a
            # short backoff and collect the ACKs again.
            yield env.timeout(ACK_RETRY_MS)

