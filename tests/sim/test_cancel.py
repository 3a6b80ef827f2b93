"""``Timeout.cancel``: a timer whose race is decided leaves the queue.

A cancelled timer never dispatches: it is not a kernel step, the
tracer never sees it, and nothing else about the schedule moves
(every other event keeps its time, priority and eid).

The event queue is a plain heap that empties a cancelled timer's entry
and skips it later, so the last cases check the heap from outside:
run order against a reference, skipping at the head, and compaction.
"""

import random
from types import SimpleNamespace

import pytest

from repro.sim import AnyOf, Environment
from repro.sim.core import PRIORITY_URGENT, EmptySchedule


class _Recorder:
    def __init__(self):
        self.steps = []

    def on_step(self, when, priority, eid, event):
        self.steps.append((when, priority, eid, event))


def _race(cancel):
    """A process racing a fast event against a 1,000 ms timer."""
    env = Environment()
    env.tracer = _Recorder()
    timers = []

    def racer(env):
        timer = env.timeout(1_000.0)
        timers.append(timer)
        outcome = yield env.timeout(1.0) | timer
        assert timer not in outcome
        if cancel:
            timer.cancel()
        yield env.timeout(5.0)

    env.process(racer(env))
    env.run()
    return env, timers[0]


def test_cancelled_timer_never_dispatches():
    kept_env, kept = _race(cancel=False)
    env, cancelled = _race(cancel=True)
    assert kept_env.steps == kept_env._steps
    assert env.steps == kept_env.steps - 1
    assert all(event is not cancelled for *_, event in env.tracer.steps)
    # Every other step is the same (time, priority, eid) as before.
    assert [step[:3] for step in env.tracer.steps] == [
        step[:3] for step in kept_env.tracer.steps if step[3] is not kept
    ]
    assert env.now == 6.0 and kept_env.now == 1_000.0
    assert len(env._queue) == 0


def test_cancel_after_fire_and_second_cancel_are_no_ops():
    env = Environment()
    fired = env.timeout(1.0)
    env.run()
    steps = env.steps
    fired.cancel()
    pending = env.timeout(5.0)
    other = env.timeout(6.0)
    pending.cancel()
    pending.cancel()
    assert len(env._queue) == 1
    env.run()
    assert env.steps == steps + 1
    assert other.processed and env.now == 7.0


def test_cancel_while_a_process_waits_raises():
    env = Environment()
    timer = env.timeout(10.0)

    def sleeper(env):
        yield timer

    env.process(sleeper(env))
    env.step()  # start the process: it subscribes to the timer
    with pytest.raises(RuntimeError):
        timer.cancel()
    env.run()
    assert env.now == 10.0


def test_cancel_while_an_undecided_condition_waits_raises():
    env = Environment()
    timer = env.timeout(10.0)
    AnyOf(env, [env.event(), timer])
    with pytest.raises(RuntimeError):
        timer.cancel()


class _ReferenceQueue:
    """Tracer checking each step against ``min()`` of a plain list of
    every queued-and-not-cancelled ``(t, priority, eid)`` key."""

    def __init__(self):
        self.pending = []
        self.executed = []
        self.expected = []

    def on_step(self, when, priority, eid, event):
        self.executed.append((when, priority, eid))
        head = min(self.pending)
        self.pending.remove(head)
        self.expected.append(head)


@pytest.mark.parametrize("seed", range(6))
def test_random_schedule_runs_in_reference_order_minus_cancelled(seed):
    """Timeouts, ``succeed``, urgent events and cancels, mixed at random:
    every step runs the smallest ``(t, priority, eid)`` still queued, and
    a cancelled timer never runs."""
    rng = random.Random(seed)
    env = Environment()
    reference = env.tracer = _ReferenceQueue()
    pending = reference.pending
    cancelled = []
    timers = []
    queued = 0

    def queue(key):
        nonlocal queued
        queued += 1
        pending.append(key)
        return key

    def queue_more(_event):
        for _ in range(rng.randint(1, 5)):
            if queued >= 3_000:
                return
            eid = env._eid_next
            kind = rng.random()
            if kind < 0.45:
                delay = rng.choice(
                    [0.0, 0.5, 1.0, rng.uniform(0.0, 50.0), rng.expovariate(0.01)]
                )
                timer = env.timeout(delay)
                timers.append((timer, queue((env.now + delay, 1, eid))))
            elif kind < 0.7:
                event = env.event()
                event.callbacks = queue_more
                event.succeed()
                queue((env.now, 1, eid))
            elif kind < 0.85:
                delay = rng.choice([0.0, 0.5, rng.uniform(0.0, 20.0)])
                event = env.event()
                event.callbacks = queue_more
                env.schedule(event, priority=PRIORITY_URGENT, delay=delay)
                queue((env.now + delay, PRIORITY_URGENT, eid))
            elif timers:
                timer, key = timers.pop(rng.randrange(len(timers)))
                if not timer.processed:
                    pending.remove(key)
                    cancelled.append(key)
                timer.cancel()

    for _ in range(4):
        start = env.event()
        start.callbacks = queue_more
        queue((0.0, 1, env._eid_next))
        start.succeed()
    env.run()

    assert len(cancelled) > 50 and queued >= 3_000
    assert reference.executed == reference.expected
    assert not pending and not env._queue
    assert env.steps == queued - len(cancelled)


def test_peek_and_step_skip_a_cancelled_head():
    env = Environment()
    env.tracer = _Recorder()
    timers = [env.timeout(float(at)) for at in range(1, 21)]
    timers[0].cancel()  # the earliest pending timer
    timers[-1].cancel()
    env.step()
    assert env.steps == 1 and env.now == 2.0
    timers[2].cancel()  # the earliest again
    assert env.peek() == 4.0
    for _ in range(16):
        env.step()
    assert env.now == 19.0
    assert len(env._queue) == 1  # only the emptied 20.0 is left
    with pytest.raises(EmptySchedule):
        env.step()
    assert env.peek() == float("inf")
    assert env.steps == 17 and env.now == 19.0
    assert [step[3] for step in env.tracer.steps] == timers[1:2] + timers[3:19]


def test_cancel_churn_keeps_the_heap_within_twice_its_live_entries():
    env = Environment()
    rng = random.Random(7)
    sizes = []

    def measure(*_):
        live = sum(1 for entry in env._queue if entry[3] is not None)
        assert env._dead == len(env._queue) - live
        sizes.append((len(env._queue), live))

    def churner(env):
        for _ in range(150):
            watchdog = env.timeout(rng.choice([1.0, 500.0]) * rng.random())
            yield env.timeout(rng.uniform(0.0, 2.0))
            watchdog.cancel()
            measure()

    env.tracer = SimpleNamespace(on_step=measure)
    for _ in range(20):
        env.process(churner(env))
    env.run()
    assert len(sizes) > 3_000
    assert all(size <= 2 * live + 1 for size, live in sizes), max(
        size - 2 * live for size, live in sizes
    )
