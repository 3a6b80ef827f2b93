"""``Timeout.cancel``: a timer whose race is decided leaves the queue.

A cancelled timer never dispatches: it is not a kernel step, the
tracer never sees it, and nothing else about the schedule moves
(every other event keeps its time, priority and eid).
"""

import pytest

from repro.sim import AnyOf, Environment


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
        outcome = yield env.timeout(1.0, value="fast") | timer
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
    other = env.timeout(6.0, value="other")
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
