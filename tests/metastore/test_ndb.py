"""Unit tests for the NDB-like transactional store."""

import pytest

from repro.metastore import NdbConfig, NdbStore, TransactionAborted, ndb
from repro.metastore.errors import LockTimeout
from repro.sim import Environment


@pytest.fixture
def make_store(monkeypatch):
    """Build a small store with no round trip and a 100 ms lock-wait
    timeout: UPPER_CASE overrides patch ``repro.metastore.ndb``'s
    constants, the rest are ``NdbConfig`` fields."""
    monkeypatch.setattr(ndb, "RTT_MS", 0.0)
    monkeypatch.setattr(ndb, "LOCK_TIMEOUT_MS", 100.0)

    def build(env, **overrides):
        for name in [name for name in overrides if name.isupper()]:
            monkeypatch.setattr(ndb, name, overrides.pop(name))
        defaults = dict(
            shards=2,
            workers_per_shard=2,
            read_service_ms=1.0,
            write_service_ms=2.0,
            commit_service_ms=1.0,
        )
        defaults.update(overrides)
        return NdbStore(env, NdbConfig(**defaults))
    return build


def run(env, *procs):
    for proc in procs:
        env.process(proc)
    env.run()


def test_write_visible_after_commit(make_store):
    env = Environment()
    store = make_store(env)
    seen = []

    def writer(env):
        txn = store.begin()
        yield from txn.write(("k", 1), "v1")
        assert store.peek(("k", 1)) is None  # not yet committed
        yield from txn.commit()
        seen.append(store.peek(("k", 1)))

    run(env, writer(env))
    assert seen == ["v1"]


def test_abort_discards_staged_writes(make_store):
    env = Environment()
    store = make_store(env)

    def writer(env):
        txn = store.begin()
        yield from txn.write(("k", 1), "v1")
        txn.abort()

    run(env, writer(env))
    assert store.peek(("k", 1)) is None
    assert store.stats.aborts == 1


def test_read_own_writes(make_store):
    env = Environment()
    store = make_store(env)
    got = []

    def proc(env):
        txn = store.begin()
        yield from txn.write(("k", 1), "mine")
        value = yield from txn.read(("k", 1))
        got.append(value)
        yield from txn.commit()

    run(env, proc(env))
    assert got == ["mine"]


def test_read_costs_service_time(make_store):
    env = Environment()
    store = make_store(env, read_service_ms=3.0)
    store.load_bulk({("k", 1): "v"})
    times = []

    def proc(env):
        txn = store.begin()
        yield from txn.read(("k", 1))
        times.append(env.now)
        yield from txn.commit()

    run(env, proc(env))
    assert times == [3.0]


def test_worker_pool_queues_requests(make_store):
    env = Environment()
    store = make_store(env, shards=1, workers_per_shard=1, read_service_ms=5.0)
    store.load_bulk({("k", i): i for i in range(3)})
    finish = []

    def reader(env, i):
        txn = store.begin()
        yield from txn.read(("k", i))
        finish.append(env.now)
        yield from txn.commit()

    run(env, *(reader(env, i) for i in range(3)))
    # Single worker: reads serialize at 5 ms each.
    assert finish == [5.0, 10.0, 15.0]


def test_concurrent_writers_serialize_on_same_key(make_store):
    env = Environment()
    store = make_store(env)
    order = []

    def writer(env, name, delay):
        yield env.timeout(delay)
        txn = store.begin()
        yield from txn.write(("k", 1), name)
        yield env.timeout(10)
        yield from txn.commit()
        order.append(name)

    run(env, writer(env, "a", 0), writer(env, "b", 1))
    assert order == ["a", "b"]
    assert store.peek(("k", 1)) == "b"


def test_lock_timeout_aborts_txn(make_store):
    env = Environment()
    store = make_store(env, LOCK_TIMEOUT_MS=5.0)
    failures = []

    def holder(env):
        txn = store.begin()
        yield from txn.write(("k", 1), "held")
        yield env.timeout(50)
        yield from txn.commit()

    def contender(env):
        yield env.timeout(1)
        txn = store.begin()
        try:
            yield from txn.write(("k", 1), "nope")
        except LockTimeout:
            failures.append(env.now)

    run(env, holder(env), contender(env))
    assert failures == [6.0]
    assert store.peek(("k", 1)) == "held"


def test_delete_removes_row_and_index(make_store):
    env = Environment()
    store = make_store(env)
    store.load_bulk({("dirent", 1, "a"): 2})

    def proc(env):
        txn = store.begin()
        yield from txn.delete(("dirent", 1, "a"))
        yield from txn.commit()

    run(env, proc(env))
    assert store.peek(("dirent", 1, "a")) is None
    assert store.keys_with_prefix(("dirent", 1)) == []


def test_scan_prefix_sees_committed_and_own_staged(make_store):
    env = Environment()
    store = make_store(env)
    store.load_bulk({("dirent", 1, "a"): 2, ("dirent", 1, "b"): 3, ("dirent", 9, "z"): 4})
    results = []

    def proc(env):
        txn = store.begin()
        yield from txn.write(("dirent", 1, "c"), 5)
        rows = yield from txn.scan_prefix(("dirent", 1))
        results.append(rows)
        yield from txn.commit()

    run(env, proc(env))
    assert results[0] == {
        ("dirent", 1, "a"): 2,
        ("dirent", 1, "b"): 3,
        ("dirent", 1, "c"): 5,
    }


def test_scan_excludes_staged_deletes(make_store):
    env = Environment()
    store = make_store(env)
    store.load_bulk({("dirent", 1, "a"): 2, ("dirent", 1, "b"): 3})
    results = []

    def proc(env):
        txn = store.begin()
        yield from txn.delete(("dirent", 1, "a"))
        rows = yield from txn.scan_prefix(("dirent", 1))
        results.append(rows)
        yield from txn.commit()

    run(env, proc(env))
    assert results[0] == {("dirent", 1, "b"): 3}


def test_read_many_batches(make_store):
    env = Environment()
    store = make_store(env, shards=1, workers_per_shard=1, read_service_ms=2.0,
                       BATCH_ROW_DISCOUNT=0.5)
    store.load_bulk({("k", i): i for i in range(4)})
    times = []

    def proc(env):
        txn = store.begin()
        rows = yield from txn.read_many([("k", i) for i in range(4)])
        times.append((env.now, rows[("k", 2)]))
        yield from txn.commit()

    run(env, proc(env))
    # One batched access: 2.0 * (1 + 0.5*3) = 5.0 ms, not 8 ms.
    assert times == [(5.0, 2)]


def test_finished_txn_rejects_use(make_store):
    env = Environment()
    store = make_store(env)

    def proc(env):
        txn = store.begin()
        yield from txn.commit()
        with pytest.raises(TransactionAborted):
            yield from txn.read(("k", 1))

    run(env, proc(env))


def test_run_transaction_retries_after_timeout(make_store):
    env = Environment()
    store = make_store(env, LOCK_TIMEOUT_MS=5.0)
    outcome = []

    def holder(env):
        txn = store.begin()
        yield from txn.write(("k", 1), "first")
        yield env.timeout(20)
        yield from txn.commit()

    def body(txn):
        yield from txn.write(("k", 1), "second")

    def retrier(env):
        yield env.timeout(1)
        yield from store.run_transaction(body)
        outcome.append(env.now)

    run(env, holder(env), retrier(env))
    assert outcome and store.peek(("k", 1)) == "second"


def test_stats_accumulate(make_store):
    env = Environment()
    store = make_store(env)
    store.load_bulk({("k", 1): "v"})

    def proc(env):
        txn = store.begin()
        yield from txn.read(("k", 1))
        yield from txn.write(("k", 2), "w")
        yield from txn.commit()

    run(env, proc(env))
    assert store.stats.reads == 1
    assert store.stats.writes == 1
    assert store.stats.commits == 1
    assert store.stats.busy_ms > 0


def test_run_transaction_releases_locks_on_application_error(make_store):
    """Regression: an exception from the body (e.g. NotFound) must
    abort the transaction — leaked locks poison rows forever."""
    env = Environment()
    store = make_store(env)
    store.load_bulk({("k", 1): "v"})

    class AppError(Exception):
        pass

    def bad_body(txn):
        yield from txn.lock(("k", 1), exclusive=True)
        raise AppError("boom")

    def good_body(txn):
        yield from txn.write(("k", 1), "after")

    def proc(env):
        try:
            yield from store.run_transaction(bad_body)
        except AppError:
            pass
        # The lock must be free now: this completes without timeout.
        yield from store.run_transaction(good_body)

    run(env, proc(env))
    assert store.peek(("k", 1)) == "after"
    assert store.locks._locks == {}
