"""Deterministic resilience primitives (λFS §3.2 hardening).

Naive resubmission of timed-out invokes turns a transient brownout
into a metastable congestion collapse: abandoned work keeps executing,
queue delay keeps latency above every watchdog threshold, and the
retry storm sustains itself after the original fault clears.  The
primitives here are the standard control mechanisms that break that
feedback loop:

* :class:`Deadline` math — one absolute sim-time budget per op,
  threaded through every hop so downstream stages can refuse work the
  client has already given up on;
* :class:`CircuitBreaker` — closed/open/half-open per-destination
  state machine with seeded reopen jitter, so a fleet of callers does
  not re-probe a recovering destination in lockstep;
* :class:`RetryBudget` — token bucket: retries spend, successes
  refill; when the bucket is empty the client fails fast instead of
  amplifying load;
* :class:`LoadShedder` — CoDel-style admission control on observed
  queue delay: sustained delay above target starts dropping on the
  classic ``interval / sqrt(drop_count)`` schedule.

Everything is plain state-machine code: no events are created, and
random draws happen only at breaker-open edges (from a seeded stream),
so runs without these attached stay event-hash byte-identical.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass(frozen=True)
class ResilienceConfig:
    """Knobs for the resilience control plane (see docs/resilience.md)."""

    deadline_ms: float = 4_000.0
    """End-to-end budget per metadata op, stamped at issue time."""


#: Floor for a budget-sized per-attempt timeout.
MIN_ATTEMPT_TIMEOUT_MS = 100.0
#: Each attempt may spend at most this fraction of the remaining
#: budget, keeping headroom for at least one retry elsewhere.
ATTEMPT_TIMEOUT_FRACTION = 0.5
#: Consecutive failure signals that open a breaker.
BREAKER_FAILURE_THRESHOLD = 5
#: Base open-state dwell before the first half-open probe.
BREAKER_OPEN_MS = 500.0
#: Reopen dwell is ``BREAKER_OPEN_MS * (1 + jitter * U[0,1))`` —
#: seeded, so breakers opened by the same burst do not re-probe
#: together.
BREAKER_OPEN_JITTER = 0.5


# -- deadline budget math ---------------------------------------------------

def attempt_timeout_ms(
    deadline_ms: Optional[float],
    now: float,
    fallback_ms: float,
) -> float:
    """Size one attempt's timeout from the remaining budget.

    Without a deadline this is the legacy fixed ``fallback_ms``.  With
    one, the attempt gets ``ATTEMPT_TIMEOUT_FRACTION`` of what is left
    (floored at ``MIN_ATTEMPT_TIMEOUT_MS`` so late attempts are not
    starved into instant timeouts) but never more than the remaining
    budget itself.
    """
    if deadline_ms is None:
        return fallback_ms
    remaining = deadline_ms - now
    if remaining <= 0.0:
        return 0.0
    sized = max(
        MIN_ATTEMPT_TIMEOUT_MS,
        remaining * ATTEMPT_TIMEOUT_FRACTION,
    )
    return min(fallback_ms, remaining, sized)


# -- circuit breaker --------------------------------------------------------

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"

#: Concurrent trial requests admitted while half-open.
BREAKER_HALF_OPEN_PROBES = 1

#: Legal state-machine edges; the chaos verifier's gate 7 checks every
#: logged transition against this set.
VALID_TRANSITIONS = frozenset([
    (CLOSED, OPEN),
    (OPEN, HALF_OPEN),
    (HALF_OPEN, OPEN),
    (HALF_OPEN, CLOSED),
])


@dataclass(frozen=True)
class BreakerTransition:
    """One logged breaker state change (consumed by gate 7)."""

    name: str
    t_ms: float
    from_state: str
    to_state: str
    reason: str


class CircuitBreaker:
    """Per-destination closed/open/half-open breaker.

    Failure signals are the same ones the retry machinery sees
    (transport errors, sheds, slow shard accesses);
    ``BREAKER_FAILURE_THRESHOLD`` *consecutive* failures open the
    breaker, a seeded-jitter dwell later one probe is admitted
    half-open, and its outcome closes or re-opens the breaker.
    """

    __slots__ = (
        "name", "_rng", "_on_transition", "state",
        "consecutive_failures", "reopen_at_ms", "probes_in_flight",
        "opens", "rejections",
    )

    def __init__(
        self,
        name: str,
        rng: random.Random,
        on_transition: Optional[Callable[[BreakerTransition], None]] = None,
    ) -> None:
        self.name = name
        self._rng = rng
        self._on_transition = on_transition
        self.state = CLOSED
        self.consecutive_failures = 0
        self.reopen_at_ms = 0.0
        self.probes_in_flight = 0
        self.opens = 0
        self.rejections = 0

    def _transition(self, now: float, to_state: str, reason: str) -> None:
        event = BreakerTransition(self.name, now, self.state, to_state, reason)
        self.state = to_state
        if to_state == OPEN:
            self.opens += 1
            jitter = 1.0 + BREAKER_OPEN_JITTER * self._rng.random()
            self.reopen_at_ms = now + BREAKER_OPEN_MS * jitter
            self.probes_in_flight = 0
        elif to_state == CLOSED:
            self.consecutive_failures = 0
            self.probes_in_flight = 0
        if self._on_transition is not None:
            self._on_transition(event)

    def allow(self, now: float) -> bool:
        """May a request be sent to this destination right now?"""
        if self.state == CLOSED:
            return True
        if self.state == OPEN:
            if now < self.reopen_at_ms:
                self.rejections += 1
                return False
            self._transition(now, HALF_OPEN, "open dwell elapsed")
        # half-open: admit up to BREAKER_HALF_OPEN_PROBES probes.
        if self.probes_in_flight < BREAKER_HALF_OPEN_PROBES:
            self.probes_in_flight += 1
            return True
        self.rejections += 1
        return False

    def retry_after_ms(self, now: float) -> float:
        """How long until an open breaker will admit a probe."""
        if self.state != OPEN:
            return 0.0
        return max(0.0, self.reopen_at_ms - now)

    def record_success(self, now: float) -> None:
        self.consecutive_failures = 0
        if self.state == HALF_OPEN:
            self._transition(now, CLOSED, "probe succeeded")
        # A late success while OPEN (a request admitted pre-open that
        # finished during the dwell) does not close the breaker: only
        # the half-open probe can, or recoveries would race failures.

    def record_failure(self, now: float) -> None:
        if self.state == HALF_OPEN:
            self._transition(now, OPEN, "probe failed")
            return
        if self.state == CLOSED:
            self.consecutive_failures += 1
            if self.consecutive_failures >= BREAKER_FAILURE_THRESHOLD:
                self._transition(
                    now, OPEN,
                    f"{self.consecutive_failures} consecutive failures",
                )
        # Failures reported while already OPEN are in-flight stragglers
        # from before the trip; the dwell timer is not extended.


# -- retry budget -----------------------------------------------------------

class RetryBudget:
    """Client-side retry token bucket.

    Retries (including straggler resubmits) spend one token; each
    successful op refills a fraction of one.  An empty bucket makes
    the client fail fast — the source-side kill switch for retry
    storms.  Invariants (property-tested): tokens never go negative
    and never exceed capacity; refills are monotone.
    """

    __slots__ = ("capacity", "refill_amount", "tokens", "exhaustions")

    def __init__(self, capacity: float, refill_amount: float) -> None:
        if capacity <= 0.0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.refill_amount = max(0.0, refill_amount)
        self.tokens = capacity
        self.exhaustions = 0

    def try_spend(self) -> bool:
        """Take one token; False (and no change) if short."""
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        self.exhaustions += 1
        return False

    def refill(self) -> None:
        self.tokens = min(self.capacity, self.tokens + self.refill_amount)


# -- CoDel-style load shedder ----------------------------------------------

class LoadShedder:
    """Admission control from observed queue delay (CoDel control law).

    ``observe`` feeds measured CPU-queue waits of completed requests;
    once the delay has stayed above ``target`` for a full ``interval``
    the shedder enters the shedding state and ``should_shed`` drops
    requests on the ``interval / sqrt(drop_count)`` schedule until the
    delay falls back under target.  Pure arithmetic on the sim clock —
    no RNG, no events.
    """

    __slots__ = (
        "target_ms", "interval_ms", "first_above_ms", "shedding",
        "drop_next_ms", "drop_count", "sheds",
    )

    def __init__(self, target_ms: float, interval_ms: float) -> None:
        self.target_ms = target_ms
        self.interval_ms = interval_ms
        self.first_above_ms: Optional[float] = None
        self.shedding = False
        self.drop_next_ms = 0.0
        self.drop_count = 0
        self.sheds = 0

    def observe(self, now: float, queue_delay_ms: float) -> None:
        """Record one completed request's measured queue delay."""
        if queue_delay_ms < self.target_ms:
            self.first_above_ms = None
            self.shedding = False
            self.drop_count = 0
            return
        if self.first_above_ms is None:
            self.first_above_ms = now
        if (
            not self.shedding
            and now - self.first_above_ms >= self.interval_ms
        ):
            self.shedding = True
            self.drop_count = 0
            self.drop_next_ms = now  # first drop fires immediately

    @property
    def under_pressure(self) -> bool:
        """True while the shedding state is latched (drives the
        bounded-staleness degraded-read mode)."""
        return self.shedding

    def should_shed(self, now: float) -> bool:
        """Consume the drop schedule: True means drop this request."""
        if not self.shedding or now < self.drop_next_ms:
            return False
        self.drop_count += 1
        self.sheds += 1
        self.drop_next_ms = now + self.interval_ms / math.sqrt(self.drop_count)
        return True


__all__ = [
    "ResilienceConfig",
    "attempt_timeout_ms",
    "CircuitBreaker",
    "BreakerTransition",
    "RetryBudget",
    "LoadShedder",
    "CLOSED",
    "OPEN",
    "HALF_OPEN",
    "VALID_TRANSITIONS",
]
