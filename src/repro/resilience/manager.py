"""The per-system resilience control plane.

One :class:`ResilienceManager` is attached to a :class:`LambdaFS` when
``LambdaFSConfig.resilience`` is set (the same single-``is None``
opt-in every other subsystem uses).  It owns the shared registries —
circuit breakers per destination edge, one CoDel shedder per NameNode
instance, one retry budget per client — plus the breaker transition
log and shed/violation counters that ChaosVerifier gate 7 audits.

The ``enabled`` flag is the one-way latch the ``disable_shedding``
chaos fault flips: with it False every *enforcement* mechanism stands
down (breakers stop rejecting, shedders stop dropping, attempts stop
being timed out against the budget) while the *observational* side —
deadline stamping and the executed-past-deadline tripwire — keeps
counting.  That split is how the ``metastable-brownout-noshed``
expected-FAIL twin exhibits the unprotected collapse: its ops grind
past their stamped deadlines and gate 7 catches every one.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Dict, List, Tuple

from repro.core.messages import MetadataRequest, MetadataResponse
from repro.resilience.primitives import (
    BreakerTransition,
    CircuitBreaker,
    LoadShedder,
    ResilienceConfig,
    RetryBudget,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Environment

#: Per-client retry token bucket: capacity (each retry spends one
#: token) and tokens returned per successful op (never above capacity).
RETRY_BUDGET_TOKENS = 8.0
RETRY_BUDGET_REFILL = 0.2

#: CoDel target: observed CPU-queue delay the shedder tolerates, and
#: how long delay must stay above it before shedding starts.
SHED_TARGET_DELAY_MS = 20.0
SHED_INTERVAL_MS = 100.0


class ResilienceManager:
    """Registries + counters for the resilience mechanisms."""

    def __init__(
        self,
        env: "Environment",
        config: ResilienceConfig,
        rng: random.Random,
    ) -> None:
        self.env = env
        self.config = config
        self._rng = rng
        #: One-way latch; the ``disable_shedding`` fault sets False.
        self.enabled = True
        self._breakers: Dict[Tuple[str, str], CircuitBreaker] = {}
        self._shedders: Dict[str, LoadShedder] = {}
        self._budgets: Dict[str, RetryBudget] = {}
        self.transitions: List[BreakerTransition] = []
        self.sheds = 0
        self.deadline_expirations = 0
        self.deadline_violations = 0
        self.stale_reads = 0
        self.budget_exhaustions = 0

    @property
    def active(self) -> bool:
        """Gate every hot-path mechanism check behind one read."""
        return self.enabled

    # -- deadline stamping --------------------------------------------------
    def stamp(self, request: MetadataRequest) -> None:
        """Assign the op's absolute end-to-end deadline at issue time."""
        if request.deadline_ms is None:
            request.deadline_ms = self.env.now + self.config.deadline_ms

    def expired(self, request: MetadataRequest) -> bool:
        deadline = request.deadline_ms
        return deadline is not None and self.env.now >= deadline

    def note_deadline_expired(
        self, request: MetadataRequest, stage: str, actor: str = ""
    ) -> None:
        """One op gave up (or was refused) because its budget ran out."""
        self.deadline_expirations += 1
        env = self.env
        if env.metrics is not None:
            env.metrics.inc("resilience_deadline_expired_total", stage=stage)
        if env.tracer is not None:
            env.tracer.point(
                "resilience.deadline", actor or stage,
                parent=request.trace_parent, stage=stage,
                request_id=request.request_id,
            )

    # -- breakers -----------------------------------------------------------
    def breaker(self, edge: str, destination: str) -> CircuitBreaker:
        """The breaker for one (edge kind, destination) pair.

        Edges in use: ``("client", deployment)`` guarding invokes and
        ``("shard", str(index))`` guarding metastore accesses.  The
        registry is shared system-wide so every caller feeds (and
        honors) the same view of a destination's health.
        """
        key = (edge, destination)
        breaker = self._breakers.get(key)
        if breaker is None:
            breaker = CircuitBreaker(
                f"{edge}:{destination}", self._rng,
                on_transition=self._log_transition,
            )
            self._breakers[key] = breaker
        return breaker

    def _log_transition(self, event: BreakerTransition) -> None:
        self.transitions.append(event)
        env = self.env
        if env.metrics is not None:
            env.metrics.inc(
                "resilience_breaker_transitions_total", to=event.to_state
            )
        if env.tracer is not None:
            env.tracer.point(
                "resilience.breaker", event.name,
                from_state=event.from_state, to_state=event.to_state,
                reason=event.reason,
            )

    def breaker_rejected(self, edge: str) -> None:
        if self.env.metrics is not None:
            self.env.metrics.inc("resilience_breaker_rejections_total",
                                 edge=edge)

    def breaker_opens(self) -> int:
        return sum(b.opens for b in self._breakers.values())

    # -- shedders / budgets -------------------------------------------------
    def shedder(self, member_id: str) -> LoadShedder:
        shedder = self._shedders.get(member_id)
        if shedder is None:
            shedder = LoadShedder(SHED_TARGET_DELAY_MS, SHED_INTERVAL_MS)
            self._shedders[member_id] = shedder
        return shedder

    def budget(self, client_id: str) -> RetryBudget:
        budget = self._budgets.get(client_id)
        if budget is None:
            budget = RetryBudget(RETRY_BUDGET_TOKENS, RETRY_BUDGET_REFILL)
            self._budgets[client_id] = budget
        return budget

    def budget_exhausted(self) -> None:
        self.budget_exhaustions += 1
        if self.env.metrics is not None:
            self.env.metrics.inc("resilience_retry_budget_exhausted_total")

    # -- shed bookkeeping ---------------------------------------------------
    def shed_response(
        self,
        request: MetadataRequest,
        stage: str,
        reason: str,
        actor: str = "",
    ) -> MetadataResponse:
        """Count one shed and build the pushback response for it."""
        self.sheds += 1
        if reason == "deadline":
            self.note_deadline_expired(request, stage)
        env = self.env
        if env.metrics is not None:
            env.metrics.inc("resilience_sheds_total",
                            stage=stage, reason=reason)
        if env.tracer is not None:
            env.tracer.point(
                "resilience.shed", actor or stage,
                parent=request.trace_parent, stage=stage, reason=reason,
                request_id=request.request_id,
            )
        return MetadataResponse(
            request_id=request.request_id, ok=False,
            error=f"shed at {stage}: {reason}", shed=True,
        )

    def note_deadline_violation(self, stage: str) -> None:
        """Tripwire: work executed past its deadline (gate 7 wants 0)."""
        self.deadline_violations += 1
        if self.env.metrics is not None:
            self.env.metrics.inc("resilience_deadline_violations_total",
                                 stage=stage)

    def note_stale_read(self, staleness_ms: float) -> None:
        self.stale_reads += 1
        if self.env.metrics is not None:
            self.env.metrics.inc("resilience_stale_reads_total")

    # -- reporting ----------------------------------------------------------
    def snapshot(self) -> dict:
        """Counter summary for run results / BENCH JSON."""
        return {
            "enabled": self.enabled,
            "sheds": self.sheds,
            "deadline_expirations": self.deadline_expirations,
            "deadline_violations": self.deadline_violations,
            "stale_reads": self.stale_reads,
            "budget_exhaustions": self.budget_exhaustions,
            "breaker_opens": self.breaker_opens(),
            "breaker_transitions": len(self.transitions),
        }


__all__ = ["ResilienceManager"]
