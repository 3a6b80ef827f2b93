"""Unit tests for the shared/exclusive lock manager."""

import pytest

from repro.metastore.errors import LockTimeout
from repro.metastore.locks import LockManager, LockMode
from repro.sim import Environment


def run(env, *procs):
    for proc in procs:
        env.process(proc)
    env.run()


def test_shared_locks_coexist():
    env = Environment()
    locks = LockManager(env)
    granted = []

    def reader(name):
        yield from locks.acquire(name, "k", LockMode.SHARED)
        granted.append((name, env.now))
        yield env.timeout(5)
        locks.release(name, "k")

    run(env, reader("a"), reader("b"))
    assert granted == [("a", 0), ("b", 0)]


def test_exclusive_waits_for_shared():
    env = Environment()
    locks = LockManager(env)
    log = []

    def reader(env):
        yield from locks.acquire("r", "k", LockMode.SHARED)
        yield env.timeout(10)
        locks.release("r", "k")

    def writer(env):
        yield env.timeout(1)
        yield from locks.acquire("w", "k", LockMode.EXCLUSIVE)
        log.append(env.now)
        locks.release("w", "k")

    run(env, reader(env), writer(env))
    assert log == [10]


def test_shared_waits_for_exclusive():
    env = Environment()
    locks = LockManager(env)
    log = []

    def writer(env):
        yield from locks.acquire("w", "k", LockMode.EXCLUSIVE)
        yield env.timeout(7)
        locks.release("w", "k")

    def reader(env):
        yield env.timeout(1)
        yield from locks.acquire("r", "k", LockMode.SHARED)
        log.append(env.now)
        locks.release("r", "k")

    run(env, writer(env), reader(env))
    assert log == [7]


def test_reacquire_is_noop():
    env = Environment()
    locks = LockManager(env)

    def proc(env):
        yield from locks.acquire("a", "k", LockMode.EXCLUSIVE)
        yield from locks.acquire("a", "k", LockMode.SHARED)
        yield from locks.acquire("a", "k", LockMode.EXCLUSIVE)
        assert locks.holders("k") == {"a": LockMode.EXCLUSIVE}
        locks.release("a", "k")

    run(env, proc(env))


def test_lone_shared_holder_upgrades():
    env = Environment()
    locks = LockManager(env)

    def proc(env):
        yield from locks.acquire("a", "k", LockMode.SHARED)
        yield from locks.acquire("a", "k", LockMode.EXCLUSIVE)
        assert locks.holders("k") == {"a": LockMode.EXCLUSIVE}
        locks.release("a", "k")

    run(env, proc(env))


def test_fifo_prevents_writer_starvation():
    env = Environment()
    locks = LockManager(env)
    order = []

    def first_reader(env):
        yield from locks.acquire("r1", "k", LockMode.SHARED)
        yield env.timeout(10)
        locks.release("r1", "k")

    def writer(env):
        yield env.timeout(1)
        yield from locks.acquire("w", "k", LockMode.EXCLUSIVE)
        order.append(("w", env.now))
        yield env.timeout(5)
        locks.release("w", "k")

    def late_reader(env):
        yield env.timeout(2)
        yield from locks.acquire("r2", "k", LockMode.SHARED)
        order.append(("r2", env.now))
        locks.release("r2", "k")

    run(env, first_reader(env), writer(env), late_reader(env))
    # The late reader must NOT jump ahead of the queued writer.
    assert order == [("w", 10), ("r2", 15)]


def test_batched_shared_grants():
    env = Environment()
    locks = LockManager(env)
    grants = []

    def writer(env):
        yield from locks.acquire("w", "k", LockMode.EXCLUSIVE)
        yield env.timeout(5)
        locks.release("w", "k")

    def reader(name):
        yield env.timeout(1)
        yield from locks.acquire(name, "k", LockMode.SHARED)
        grants.append((name, env.now))
        locks.release(name, "k")

    run(env, writer(env), reader("r1"), reader("r2"))
    assert grants == [("r1", 5), ("r2", 5)]


def test_lock_timeout():
    env = Environment()
    locks = LockManager(env, default_timeout_ms=3)
    failures = []

    def holder(env):
        yield from locks.acquire("h", "k", LockMode.EXCLUSIVE)
        yield env.timeout(100)
        locks.release("h", "k")

    def waiter(env):
        yield env.timeout(1)
        try:
            yield from locks.acquire("w", "k", LockMode.EXCLUSIVE)
        except LockTimeout:
            failures.append(env.now)

    run(env, holder(env), waiter(env))
    assert failures == [4]
    assert locks._locks == {}


def test_release_unheld_is_noop():
    env = Environment()
    locks = LockManager(env)
    locks.release("ghost", "k")
    assert locks.holders("k") == {}


def test_lock_state_cleaned_up():
    env = Environment()
    locks = LockManager(env)

    def proc(env):
        yield from locks.acquire("a", "k", LockMode.EXCLUSIVE)
        locks.release("a", "k")

    run(env, proc(env))
    assert locks._locks == {}
