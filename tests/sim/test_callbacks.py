"""Tagged callback representation, O(1) interrupt unsubscription, and
condition edge cases (duplicates, already-processed members).

The kernel stores ``Event.callbacks`` as a tagged union — shared empty
tuple / bare callable / list-with-tombstones / ``None`` (see
``repro.sim.events``) — and interrupt unsubscription must tombstone the
recorded slot instead of ``list.remove``-scanning, or interrupting N
waiters of one event goes quadratic.  These tests pin both the
representation and the scaling.
"""

import time

import pytest

from repro.sim import AllOf, AnyOf, Environment, Event, Interrupt
from repro.sim.events import _NO_CALLBACKS

pytestmark = pytest.mark.kernel


# -- tagged representation -----------------------------------------------

def test_fresh_event_shares_the_empty_tuple():
    env = Environment()
    first, second = Event(env), Event(env)
    assert first.callbacks is _NO_CALLBACKS
    assert second.callbacks is first.callbacks  # shared, no allocation
    assert not first.processed


def test_callbacks_upgrade_tuple_to_callable_to_list():
    env = Environment()
    gate = Event(env)
    woken = []

    def waiter(env, name):
        value = yield gate
        woken.append((name, value))

    env.process(waiter(env, "a"))
    env.run(until=env.timeout(0))
    # One subscriber: a bare callable, not a single-element list.
    assert callable(gate.callbacks)
    assert type(gate.callbacks) is not list

    env.process(waiter(env, "b"))
    env.run(until=env.timeout(1))
    # Two subscribers: upgraded in place to a list.
    assert type(gate.callbacks) is list
    assert len(gate.callbacks) == 2

    gate.succeed("v")
    env.run()
    assert gate.callbacks is None and gate.processed
    assert sorted(woken) == [("a", "v"), ("b", "v")]


def test_interrupt_tombstones_instead_of_removing():
    env = Environment()
    gate = Event(env)
    log = []

    def waiter(env, name):
        try:
            value = yield gate
            log.append((name, value))
        except Interrupt:
            log.append((name, "interrupted"))

    procs = [env.process(waiter(env, i)) for i in range(3)]

    def killer(env):
        yield env.timeout(1)
        procs[1].interrupt()

    env.process(killer(env))
    env.run(until=env.timeout(2))
    callbacks = gate.callbacks
    # The middle waiter's slot is tombstoned; the list never shrinks.
    assert type(callbacks) is list and len(callbacks) == 3
    assert callbacks[1] is None
    assert callbacks[0] is not None and callbacks[2] is not None

    gate.succeed("ok")
    env.run()
    assert sorted(log) == [(0, "ok"), (1, "interrupted"), (2, "ok")]


def test_sole_subscriber_interrupt_resets_to_empty_marker():
    env = Environment()
    gate = Event(env)

    def waiter(env):
        try:
            yield gate
        except Interrupt:
            pass

    proc = env.process(waiter(env))

    def killer(env):
        yield env.timeout(1)
        proc.interrupt()

    env.process(killer(env))
    env.run()
    # Bare-callable form drops back to the shared no-subscriber marker.
    assert gate.callbacks is _NO_CALLBACKS


def test_mass_interrupt_is_not_quadratic():
    """Interrupting every waiter of one hot event must stay ~linear.

    50k waiters subscribe to a single event, then all get interrupted.
    With ``list.remove`` unsubscription this is ~50k * 25k identity
    scans (tens of seconds); with tombstoning it is O(1) per interrupt
    and the whole run takes well under the bound.
    """
    n = 50_000
    env = Environment()
    gate = Event(env)
    survived = []

    def waiter(env):
        try:
            yield gate
        except Interrupt:
            survived.append(1)

    procs = [env.process(waiter(env)) for _ in range(n)]

    def killer(env):
        yield env.timeout(1)
        for proc in procs:
            proc.interrupt()

    env.process(killer(env))
    start = time.perf_counter()
    env.run()
    wall = time.perf_counter() - start
    assert len(survived) == n
    callbacks = gate.callbacks
    assert type(callbacks) is list and len(callbacks) == n
    assert all(slot is None for slot in callbacks)
    assert wall < 8.0, f"mass interrupt took {wall:.1f}s — quadratic path?"


# -- condition edge cases ------------------------------------------------

def test_allof_with_duplicate_member_counts_each_subscription():
    env = Environment()
    result = []

    def proc(env):
        shared = env.timeout(5)
        cond = yield AllOf(env, [shared, shared])
        result.append((env.now, cond.keys() == [shared]))

    env.process(proc(env))
    env.run()
    # Fires on the single trigger; ConditionValue dedups by identity.
    assert result == [(5, True)]


def test_anyof_with_duplicate_member():
    env = Environment()
    result = []

    def proc(env):
        shared = env.timeout(3)
        cond = yield AnyOf(env, [shared, shared])
        result.append((env.now, cond.keys() == [shared]))

    env.process(proc(env))
    env.run()
    assert result == [(3, True)]


def test_allof_with_already_processed_member():
    env = Environment()
    done = env.event()
    done.succeed("early")
    env.run(until=env.timeout(1))
    assert done.processed
    result = []

    def proc(env):
        late = env.timeout(4)
        cond = yield AllOf(env, [done, late])
        result.append((env.now, cond[done], late in cond))

    env.process(proc(env))
    env.run()
    assert result == [(5, "early", True)]


def test_anyof_with_processed_member_fires_without_waiting():
    env = Environment()
    done = env.event()
    done.succeed(7)
    env.run(until=env.timeout(1))
    never = env.event()
    result = []

    def proc(env):
        cond = yield AnyOf(env, [never, done])
        result.append((env.now, cond[done], never in cond))

    env.process(proc(env))
    env.run()
    assert result == [(1, 7, False)]


def test_allof_with_processed_failed_member_fails():
    env = Environment()
    bad = env.event()
    bad.fail(ValueError("boom"))
    bad.defused()
    env.run(until=env.timeout(1))
    caught = []

    def proc(env):
        try:
            yield AllOf(env, [bad, env.timeout(5)])
        except ValueError as exc:
            caught.append(str(exc))

    env.process(proc(env))
    env.run()
    assert caught == ["boom"]
