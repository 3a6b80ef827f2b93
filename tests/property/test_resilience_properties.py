"""Property-based tests for the resilience primitives (docs/resilience.md).

The invariants here are the ones the control loops rely on: a retry
budget that can never go negative or exceed capacity, a breaker that
opens only via the consecutive-failure threshold and only walks legal
state-machine edges, and attempt timeouts that never exceed (and
shrink with) the remaining deadline budget.
"""

import random
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.resilience import primitives
from repro.resilience import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    VALID_TRANSITIONS,
    CircuitBreaker,
    LoadShedder,
    RetryBudget,
    attempt_timeout_ms,
)

pytestmark = pytest.mark.resilience


# -- retry budget -----------------------------------------------------------

budget_op = st.sampled_from(("spend", "refill"))


@settings(max_examples=200)
@given(
    capacity=st.floats(0.5, 32.0),
    refill=st.floats(0.0, 2.0),
    ops=st.lists(budget_op, max_size=60),
)
def test_retry_budget_bounds(capacity, refill, ops):
    """Tokens stay in [0, capacity]; a refused spend changes nothing."""
    budget = RetryBudget(capacity, refill)
    for kind in ops:
        before = budget.tokens
        if kind == "spend":
            ok = budget.try_spend()
            if ok:
                assert budget.tokens == before - 1.0
            else:
                assert budget.tokens == before
        else:
            budget.refill()
            # Refill is monotone and capped at capacity.
            assert budget.tokens >= before
            assert budget.tokens <= max(before, capacity)
        assert 0.0 <= budget.tokens <= capacity


@settings(max_examples=100)
@given(capacity=st.floats(0.5, 8.0), refill=st.floats(0.0, 1.0),
       spends=st.integers(0, 40))
def test_retry_budget_exhaustion_counts_refusals(capacity, refill, spends):
    budget = RetryBudget(capacity, refill)
    refused = sum(0 if budget.try_spend() else 1 for _ in range(spends))
    assert budget.exhaustions == refused
    # Every accepted spend took a whole token out of a finite bucket.
    assert spends - refused <= capacity


# -- circuit breaker --------------------------------------------------------

breaker_op = st.one_of(
    st.tuples(st.just("success"), st.floats(0.0, 50.0)),
    st.tuples(st.just("failure"), st.floats(0.0, 50.0)),
    st.tuples(st.just("allow"), st.floats(0.0, 50.0)),
    st.tuples(st.just("wait"), st.floats(100.0, 1_000.0)),
)


@settings(max_examples=200)
@given(
    threshold=st.integers(1, 8),
    seed=st.integers(0, 2**16),
    ops=st.lists(breaker_op, max_size=80),
)
def test_breaker_transitions_always_legal(threshold, seed, ops):
    """Every logged edge is in VALID_TRANSITIONS, and CLOSED→OPEN fires
    only after exactly ``threshold`` consecutive failures."""
    with patch.object(primitives, "BREAKER_FAILURE_THRESHOLD", threshold):
        transitions = []
        breaker = CircuitBreaker("edge", random.Random(seed), transitions.append)
        now = 0.0
        failures_since_success = 0
        for kind, delta in ops:
            now += delta
            if kind == "success":
                was_closed = breaker.state == CLOSED
                breaker.record_success(now)
                if was_closed:
                    failures_since_success = 0
            elif kind == "failure":
                was_closed = breaker.state == CLOSED
                breaker.record_failure(now)
                if was_closed:
                    failures_since_success += 1
                    if breaker.state == OPEN:
                        # The trip happened at exactly the threshold, never
                        # before and never late.
                        assert failures_since_success == threshold
                        failures_since_success = 0
                    else:
                        assert failures_since_success < threshold
            else:  # allow / wait both poll admission
                admitted = breaker.allow(now)
                if breaker.state == OPEN:
                    assert not admitted
                if breaker.state == CLOSED:
                    assert admitted
                if breaker.state != CLOSED:
                    failures_since_success = 0
        for event in transitions:
            assert (event.from_state, event.to_state) in VALID_TRANSITIONS
        assert breaker.opens == sum(
            1 for e in transitions if e.to_state == OPEN
        )


@settings(max_examples=100)
@given(seed=st.integers(0, 2**16), jitter=st.floats(0.0, 1.0))
def test_breaker_open_dwell_within_jitter_band(seed, jitter):
    """The reopen time lands in [BREAKER_OPEN_MS (500 ms),
    BREAKER_OPEN_MS * (1 + jitter))."""
    with patch.multiple(primitives, BREAKER_FAILURE_THRESHOLD=1,
                        BREAKER_OPEN_JITTER=jitter):
        breaker = CircuitBreaker("edge", random.Random(seed))
        breaker.record_failure(1_000.0)
    assert breaker.state == OPEN
    dwell = breaker.reopen_at_ms - 1_000.0
    assert 500.0 <= dwell <= 500.0 * (1.0 + jitter)
    # Before the dwell elapses the breaker rejects; at/after it, the
    # next poll flips half-open and admits exactly the probe quota.
    assert not breaker.allow(breaker.reopen_at_ms - 1.0)
    assert breaker.allow(breaker.reopen_at_ms)
    assert breaker.state == HALF_OPEN


# -- deadline budget math ---------------------------------------------------

@settings(max_examples=200)
@given(
    deadline=st.floats(0.0, 10_000.0),
    now=st.floats(0.0, 12_000.0),
    fallback=st.floats(1.0, 60_000.0),
    fraction=st.floats(0.05, 1.0),
    floor=st.floats(1.0, 500.0),
)
def test_attempt_timeout_never_exceeds_budget(deadline, now, fallback,
                                              fraction, floor):
    with patch.multiple(primitives, ATTEMPT_TIMEOUT_FRACTION=fraction,
                        MIN_ATTEMPT_TIMEOUT_MS=floor):
        timeout = attempt_timeout_ms(deadline, now, fallback)
    remaining = deadline - now
    assert timeout >= 0.0
    assert timeout <= fallback
    # Never promise more time than the deadline has left.
    assert timeout <= max(0.0, remaining)
    if remaining <= 0.0:
        assert timeout == 0.0


@settings(max_examples=200)
@given(
    deadline=st.floats(100.0, 10_000.0),
    times=st.lists(st.floats(0.0, 12_000.0), min_size=2, max_size=20),
    fallback=st.floats(1.0, 60_000.0),
)
def test_attempt_timeout_non_increasing_toward_deadline(deadline, times,
                                                        fallback):
    """As sim time advances, per-attempt timeouts only shrink."""
    timeouts = [
        attempt_timeout_ms(deadline, now, fallback)
        for now in sorted(times)
    ]
    for earlier, later in zip(timeouts, timeouts[1:]):
        assert later <= earlier


@settings(max_examples=100)
@given(now=st.floats(0.0, 1e7), fallback=st.floats(1.0, 60_000.0))
def test_no_deadline_means_legacy_fallback(now, fallback):
    assert attempt_timeout_ms(None, now, fallback) == fallback


# -- CoDel shedder ----------------------------------------------------------

@settings(max_examples=100)
@given(
    target=st.floats(5.0, 50.0),
    interval=st.floats(50.0, 500.0),
    delays=st.lists(st.floats(0.0, 200.0), min_size=1, max_size=60),
)
def test_shedder_only_sheds_after_sustained_pressure(target, interval,
                                                     delays):
    """should_shed can return True only once the observed delay has
    stayed at/above target for a full interval; any dip resets it."""
    shedder = LoadShedder(target, interval)
    now = 0.0
    above_since = None
    for delay in delays:
        now += 10.0
        shedder.observe(now, delay)
        if delay < target:
            above_since = None
            assert not shedder.under_pressure
            assert not shedder.should_shed(now)
        else:
            if above_since is None:
                above_since = now
            if shedder.under_pressure:
                assert now - above_since >= interval
