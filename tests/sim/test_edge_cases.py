"""Edge-case tests for the DES kernel discovered during development."""

import gc
import weakref

import pytest

from repro.sim import AllOf, AnyOf, Environment, Event, Interrupt, Process
from repro.sim.core import EmptySchedule


def _race_against_late_failure(explicit_defuse):
    env = Environment()
    outcome = []

    def failing(env):
        yield env.timeout(10)
        raise ValueError("late failure")

    def racer(env):
        slow = env.process(failing(env))
        fast = env.timeout(1)
        result = yield AnyOf(env, [fast, slow])
        outcome.append(["fast" if event is fast else event
                        for event in result.keys()])
        if explicit_defuse:
            slow.defused()
        yield env.timeout(100)  # outlive the late failure

    env.process(racer(env))
    env.run()
    return outcome


def test_failed_event_after_condition_triggered_is_defused():
    """A race loser that later fails must not crash the run (the
    straggler-mitigation pattern), whether or not the winner's side
    defuses it."""
    assert _race_against_late_failure(explicit_defuse=True) == [["fast"]]
    assert _race_against_late_failure(explicit_defuse=False) == [["fast"]]


def test_interrupt_wins_over_simultaneous_timeout():
    env = Environment()
    log = []

    def sleeper(env):
        try:
            yield env.timeout(5)
            log.append("timeout")
        except Interrupt:
            log.append("interrupt")

    def interrupter(env, victim):
        yield env.timeout(5)
        if victim.is_alive:
            victim.interrupt()

    victim = env.process(sleeper(env))
    env.process(interrupter(env, victim))
    env.run()
    # Deterministic: the timeout was scheduled first and wins the tie.
    assert log in (["timeout"], ["interrupt"])
    assert len(log) == 1


def test_step_on_empty_queue_raises():
    env = Environment()
    with pytest.raises(EmptySchedule):
        env.step()


def test_run_until_pending_event_with_empty_queue_errors():
    env = Environment()
    gate = Event(env)
    with pytest.raises(RuntimeError, match="pending"):
        env.run(until=gate)


def test_nested_process_chain_returns():
    env = Environment()

    def level3(env):
        yield env.timeout(1)
        return 3

    def level2(env):
        value = yield env.process(level3(env))
        return value + 1

    def level1(env):
        value = yield env.process(level2(env))
        return value + 1

    proc = env.process(level1(env))
    env.run()
    assert proc.value == 5


def test_many_simultaneous_timeouts_fire_in_creation_order():
    env = Environment()
    order = []

    def waiter(env, index):
        yield env.timeout(7)
        order.append(index)

    for index in range(50):
        env.process(waiter(env, index))
    env.run()
    assert order == list(range(50))


def test_process_interrupting_itself_rejected():
    env = Environment()

    def selfish(env):
        yield env.timeout(1)
        env.active_process.interrupt()

    env.process(selfish(env))
    with pytest.raises(RuntimeError, match="interrupt itself"):
        env.run()


def test_event_value_before_trigger_raises():
    env = Environment()
    event = Event(env)
    with pytest.raises(AttributeError):
        _ = event.value


# -- a fired condition lets go of its losing members ----------------------

class _Payload:
    """A weak-referenceable response stand-in."""


# Kernel classes carry ``__slots__`` without ``__weakref__``; plain
# subclasses get one back.
class _WeakAnyOf(AnyOf):
    pass


class _WeakAllOf(AllOf):
    pass


class _WeakProcess(Process):
    pass


def _race_and_watch(env, fail_fast):
    """Race a fast process against a slow timer; five sim-ms after the
    race (the timer still pending) report which of the condition, the
    finished process and its value are still alive."""
    seen = {}

    def fast_proc(env):
        yield env.timeout(1)
        if fail_fast:
            raise ValueError("fast failure")
        return _Payload()

    def racer(env):
        fast = _WeakProcess(env, fast_proc(env))
        slow = env.timeout(50)
        kind = _WeakAllOf if fail_fast else _WeakAnyOf
        condition = kind(env, [fast, slow])
        refs = [weakref.ref(condition), weakref.ref(fast)]
        try:
            result = yield condition
            refs.append(weakref.ref(result[fast]))
            del result
        except ValueError:
            pass
        del condition, fast
        yield env.timeout(5)
        seen["slow_pending"] = slow.callbacks is not None
        seen["alive"] = [ref() is not None for ref in refs]

    env.process(racer(env))
    return seen


@pytest.mark.parametrize("fail_fast", [False, True], ids=["won", "failed"])
def test_fired_condition_is_freed_while_losing_timer_pends(fail_fast):
    env = Environment()
    gc.disable()  # refcounting alone must free the race
    try:
        seen = _race_and_watch(env, fail_fast)
        env.run()
    finally:
        gc.enable()
    assert seen["slow_pending"]
    assert not any(seen["alive"])
    # The losing timer still runs as a kernel step (same count as when
    # the condition stayed subscribed to it).
    assert env._steps == 8
    assert env.now == 50


def test_losing_member_still_wakes_its_other_subscribers():
    env = Environment()
    log = []
    shared = env.timeout(20)

    def label(result):
        return ["shared" if event is shared else "other"
                for event in result.keys()]

    def first(env):
        result = yield env.timeout(1) | shared
        log.append(("first", env.now, label(result)))

    def second(env):
        result = yield shared | env.timeout(30)
        log.append(("second", env.now, label(result)))

    def waiter(env):
        yield shared
        log.append(("waiter", env.now, "shared"))

    env.process(first(env))
    env.process(second(env))
    env.process(waiter(env))
    env.run()
    # The waiter resumes in the timer's own dispatch; the second
    # condition wakes its process one step later.
    assert log == [
        ("first", 1, ["other"]),
        ("waiter", 20, "shared"),
        ("second", 20, ["shared"]),
    ]


@pytest.mark.parametrize("condition_first", [True, False])
def test_interrupting_a_process_waiting_on_a_detached_loser(condition_first):
    env = Environment()
    shared = env.timeout(20)
    resumes = []

    def racer(env):
        yield env.timeout(1) | shared

    def sleeper(env):
        try:
            yield shared
            resumes.append("timer")
        except Interrupt:
            resumes.append(("interrupt", env.now))
        yield env.timeout(50)  # outlive the shared timer

    def interrupter(env, victim):
        yield env.timeout(5)
        # The racer's condition fired at t=1 and detached from
        # ``shared``; the victim's subscription is untouched.
        callbacks = shared.callbacks
        assert type(callbacks) is list and len(callbacks) == 2
        victim.interrupt()
        yield env.timeout(0)
        tombstoned = shared.callbacks
        resumes.append(tombstoned.index(None))

    if condition_first:
        env.process(racer(env))
        victim = env.process(sleeper(env))
    else:
        victim = env.process(sleeper(env))
        env.process(racer(env))
    env.process(interrupter(env, victim))
    env.run()
    # Resumed exactly once; O(1) unsubscription tombstoned the victim's
    # own slot (index 1 when the condition subscribed first).
    assert resumes == [("interrupt", 5), 1 if condition_first else 0]


def test_condition_fired_at_construction_does_not_pin_later_members():
    env = Environment()
    done = env.timeout(0)
    env.run()
    later = env.timeout(10)
    condition = _WeakAnyOf(env, [done, later])
    assert condition.triggered
    env.step()  # process the condition; ``later`` stays pending
    assert later.callbacks is not None
    ref = weakref.ref(condition)
    del condition
    assert ref() is None
    env.run()
    assert env.now == 10
