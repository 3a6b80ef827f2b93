"""repro.resilience — graceful degradation under overload.

Deadline propagation, per-destination circuit breakers, client retry
budgets, CoDel-style load shedding, and bounded-staleness degraded
reads.  Attached via ``LambdaFSConfig.resilience``; detached runs are
event-hash byte-identical to a build without this package.

See docs/resilience.md for the mechanism map and tuning guide.
"""

from repro.resilience.manager import ResilienceManager
from repro.resilience.primitives import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    VALID_TRANSITIONS,
    BreakerTransition,
    CircuitBreaker,
    LoadShedder,
    ResilienceConfig,
    RetryBudget,
    attempt_timeout_ms,
)

__all__ = [
    "ResilienceManager",
    "ResilienceConfig",
    "CircuitBreaker",
    "BreakerTransition",
    "RetryBudget",
    "LoadShedder",
    "attempt_timeout_ms",
    "CLOSED",
    "OPEN",
    "HALF_OPEN",
    "VALID_TRANSITIONS",
]
