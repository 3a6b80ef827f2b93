"""Property-based tests for transactional store invariants."""

from unittest.mock import patch

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metastore import LockMode, NdbConfig, NdbStore, ndb
from repro.metastore.locks import LockManager
from repro.sim import Environment


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 5), st.integers(1, 20), st.booleans()),
        min_size=1, max_size=25,
    )
)
def test_lock_manager_mutual_exclusion(program):
    """Random concurrent lock/hold/release programs never co-hold an
    exclusive lock with any other lock on the same key."""
    env = Environment()
    locks = LockManager(env, default_timeout_ms=1e9)
    violations = []

    def worker(owner, key, hold_ms, exclusive):
        mode = LockMode.EXCLUSIVE if exclusive else LockMode.SHARED
        yield from locks.acquire(owner, key, mode)
        holders = locks.holders(key)
        exclusive_holders = [
            o for o, m in holders.items() if m is LockMode.EXCLUSIVE
        ]
        if len(exclusive_holders) > 1:
            violations.append(("two exclusive", key))
        if exclusive_holders and len(holders) > 1:
            violations.append(("exclusive with others", key))
        yield env.timeout(hold_ms)
        locks.release(owner, key)

    for index, (key, hold, exclusive) in enumerate(program):
        env.process(worker(f"w{index}", key, hold, exclusive))
    env.run()
    assert violations == []
    assert locks._locks == {}  # everything released and cleaned up


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 12), st.integers(1, 4))
def test_concurrent_increments_are_serializable(writers, shards):
    """Read-modify-write increments under 2PL never lose updates."""
    with patch.multiple(ndb, RTT_MS=0.0, LOCK_TIMEOUT_MS=1e9):
        env = Environment()
        store = NdbStore(env, NdbConfig(
            shards=shards, workers_per_shard=2,
            read_service_ms=0.5, write_service_ms=0.5, commit_service_ms=0.2,
        ))
        store.load_bulk({("counter",): 0})

        def increment(txn):
            # Exclusive up-front: the canonical 2PL read-modify-write.
            yield from txn.lock(("counter",), exclusive=True)
            value = yield from txn.read(("counter",))
            yield from txn.write(("counter",), value + 1)

        def worker(env, delay):
            yield env.timeout(delay)
            yield from store.run_transaction(increment)

        for index in range(writers):
            env.process(worker(env, index % 3))
        env.run()
        assert store.peek(("counter",)) == writers


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 9), st.integers(0, 100)),
        min_size=1, max_size=20,
    )
)
def test_committed_writes_always_visible(writes):
    """Sequential transactions: peek equals the last committed write."""
    with patch.object(ndb, "RTT_MS", 0.0):
        env = Environment()
        store = NdbStore(env)
        expected = {}

        def run_writes(env):
            for key_index, value in writes:
                key = ("row", key_index)

                def body(txn, key=key, value=value):
                    yield from txn.write(key, value)

                yield from store.run_transaction(body)
                expected[key] = value

        done = env.process(run_writes(env))
        env.run(until=done)
        for key, value in expected.items():
            assert store.peek(key) == value
