"""Unit tests for the DES event primitives."""

import pytest

from repro.sim import AllOf, AnyOf, Environment, Event, Interrupt


def test_timeout_advances_clock():
    env = Environment()
    log = []

    def proc(env):
        yield env.timeout(10)
        log.append(env.now)
        yield env.timeout(5)
        log.append(env.now)

    env.process(proc(env))
    env.run()
    assert log == [10, 15]


def test_negative_delay_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1)


def test_event_succeed_wakes_waiter():
    env = Environment()
    gate = env.event()
    seen = []

    def waiter(env):
        value = yield gate
        seen.append((env.now, value))

    def firer(env):
        yield env.timeout(3)
        gate.succeed(42)

    env.process(waiter(env))
    env.process(firer(env))
    env.run()
    assert seen == [(3, 42)]


def test_event_double_trigger_raises():
    env = Environment()
    ev = env.event()
    ev.succeed()
    with pytest.raises(RuntimeError):
        ev.succeed()


def test_event_fail_raises_in_waiter():
    env = Environment()
    gate = env.event()
    caught = []

    def waiter(env):
        try:
            yield gate
        except ValueError as exc:
            caught.append(str(exc))

    def firer(env):
        yield env.timeout(1)
        gate.fail(ValueError("boom"))

    env.process(waiter(env))
    env.process(firer(env))
    env.run()
    assert caught == ["boom"]


def test_unhandled_failure_crashes_run():
    env = Environment()

    def bad(env):
        yield env.timeout(1)
        raise RuntimeError("unhandled")

    env.process(bad(env))
    with pytest.raises(RuntimeError, match="unhandled"):
        env.run()


def test_process_return_value_propagates():
    env = Environment()
    got = []

    def child(env):
        yield env.timeout(2)
        return "child-result"

    def parent(env):
        value = yield env.process(child(env))
        got.append((env.now, value))

    env.process(parent(env))
    env.run()
    assert got == [(2, "child-result")]


def test_process_exception_propagates_to_parent():
    env = Environment()
    caught = []

    def child(env):
        yield env.timeout(1)
        raise KeyError("nope")

    def parent(env):
        try:
            yield env.process(child(env))
        except KeyError:
            caught.append(env.now)

    env.process(parent(env))
    env.run()
    assert caught == [1]


def test_interrupting_dead_process_raises():
    env = Environment()

    def quick(env):
        yield env.timeout(1)

    proc = env.process(quick(env))
    env.run()
    with pytest.raises(RuntimeError):
        proc.interrupt()


def test_interrupted_process_can_continue():
    env = Environment()
    log = []

    def sleeper(env):
        try:
            yield env.timeout(100)
        except Interrupt:
            pass
        yield env.timeout(10)
        log.append(env.now)

    def interrupter(env, victim):
        yield env.timeout(5)
        victim.interrupt()

    victim = env.process(sleeper(env))
    env.process(interrupter(env, victim))
    env.run()
    assert log == [15]


def test_allof_waits_for_every_event():
    env = Environment()
    done = []

    def proc(env):
        t1 = env.timeout(3)
        t2 = env.timeout(7)
        result = yield AllOf(env, [t1, t2])
        done.append((env.now, result.keys() == [t1, t2]))

    env.process(proc(env))
    env.run()
    assert done == [(7, True)]


def test_anyof_fires_on_first():
    env = Environment()
    done = []

    def proc(env):
        t1 = env.timeout(3)
        t2 = env.timeout(7)
        result = yield AnyOf(env, [t1, t2])
        done.append((env.now, result.keys() == [t1]))

    env.process(proc(env))
    env.run()
    assert done == [(3, True)]


def test_and_or_operators():
    env = Environment()
    done = []

    def proc(env):
        yield env.timeout(1) & env.timeout(2)
        done.append(env.now)
        yield env.timeout(10) | env.timeout(4)
        done.append(env.now)

    env.process(proc(env))
    env.run()
    assert done == [2, 6]


def test_empty_allof_triggers_immediately():
    env = Environment()
    done = []

    def proc(env):
        yield AllOf(env, [])
        done.append(env.now)

    env.process(proc(env))
    env.run()
    assert done == [0]


def test_run_until_time_stops_clock():
    env = Environment()

    def ticker(env):
        while True:
            yield env.timeout(1)

    env.process(ticker(env))
    env.run(until=50)
    assert env.now == 50


def test_run_until_event():
    env = Environment()
    gate = env.event()

    def firer(env):
        yield env.timeout(9)
        gate.succeed("finished")

    env.process(firer(env))
    assert env.run(until=gate) == "finished"
    assert env.now == 9


def test_run_until_past_time_rejected():
    env = Environment(initial_time=100)
    with pytest.raises(ValueError):
        env.run(until=50)


def test_deterministic_tie_break_is_fifo():
    env = Environment()
    order = []

    def proc(env, name):
        yield env.timeout(5)
        order.append(name)

    for name in "abc":
        env.process(proc(env, name))
    env.run()
    assert order == ["a", "b", "c"]


def test_yield_none_yields_control():
    env = Environment()
    log = []

    def proc(env):
        log.append("before")
        yield None
        log.append("after")
        assert env.now == 0

    env.process(proc(env))
    env.run()
    assert log == ["before", "after"]


def test_waiting_on_already_processed_event():
    env = Environment()
    values = []

    def proc(env):
        done = env.timeout(1)
        yield env.timeout(5)
        # ``done`` was processed long ago; waiting must still work.
        value = yield done
        values.append((env.now, value))

    env.process(proc(env))
    env.run()
    assert values == [(5, None)]
