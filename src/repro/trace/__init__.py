"""Causal op-tracing and runtime invariant checking for the DES.

Opt-in, zero-cost-when-disabled tracing threaded through the sim
kernel, RPC fabric, NameNodes, Coordinator, and metadata store::

    from repro.sim import Environment
    from repro.trace import install_tracer

    env = Environment()
    tracer = install_tracer(env)          # coherence + lock checkers
    ... run any workload ...
    assert tracer.violations() == []
    print(tracer.event_hash())            # determinism fingerprint

See ``docs/tracing.md`` for the span model and how to add a checker.
"""

from repro.trace.invariants import (
    Checker,
    CoherenceChecker,
    InvariantViolation,
    LockDisciplineChecker,
    Violation,
    default_checkers,
    install_tracer,
)
from repro.trace.tracer import Span, Tracer, parent_id_of

__all__ = [
    "Checker",
    "CoherenceChecker",
    "InvariantViolation",
    "LockDisciplineChecker",
    "Span",
    "Tracer",
    "Violation",
    "default_checkers",
    "install_tracer",
    "parent_id_of",
]
