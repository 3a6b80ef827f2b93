"""Unit tests for the LevelDB-like SSTable store."""

import pytest

from repro.metastore import SSTableStore, sstable
from repro.sim import Environment


def run(env, *procs):
    for proc in procs:
        env.process(proc)
    env.run()


SMALL = dict(
    IO_THREADS=2,
    WRITE_SERVICE_MS=1.0,
    READ_SERVICE_MS=1.0,
    PER_RUN_PENALTY_MS=0.5,
    FLUSH_THRESHOLD=4,
    MAX_RUNS=2,
    FLUSH_MS_PER_1K_ENTRIES=1.0,
    COMPACT_MS_PER_1K_ENTRIES=1.0,
)


@pytest.fixture
def small_store(monkeypatch):
    """Build a store with the ``SMALL`` constants (plus overrides)."""
    def build(env, **overrides):
        for name, value in {**SMALL, **overrides}.items():
            monkeypatch.setattr(sstable, name, value)
        return SSTableStore(env)
    return build


def test_put_get_roundtrip(small_store):
    env = Environment()
    store = small_store(env)
    got = []

    def proc(env):
        yield from store.put(("f", 1), "hello")
        value = yield from store.get(("f", 1))
        got.append(value)

    run(env, proc(env))
    assert got == ["hello"]


def test_get_missing_returns_none(small_store):
    env = Environment()
    store = small_store(env)
    got = []

    def proc(env):
        value = yield from store.get(("missing",))
        got.append(value)

    run(env, proc(env))
    assert got == [None]


def test_delete_hides_value(small_store):
    env = Environment()
    store = small_store(env)
    got = []

    def proc(env):
        yield from store.put(("f", 1), "v")
        yield from store.delete(("f", 1))
        value = yield from store.get(("f", 1))
        got.append(value)

    run(env, proc(env))
    assert got == [None]


def test_flush_creates_run(small_store):
    env = Environment()
    store = small_store(env, FLUSH_THRESHOLD=3)

    def proc(env):
        for i in range(3):
            yield from store.put(("f", i), i)
        yield env.timeout(50)  # let the background flush finish

    run(env, proc(env))
    assert store.run_count == 1
    assert store.stats.flushes == 1


def test_value_found_in_run_after_flush(small_store):
    env = Environment()
    store = small_store(env, FLUSH_THRESHOLD=2)
    got = []

    def proc(env):
        yield from store.put(("f", 0), "old")
        yield from store.put(("f", 1), "x")
        yield env.timeout(50)
        value = yield from store.get(("f", 0))
        got.append(value)

    run(env, proc(env))
    assert got == ["old"]
    assert store.stats.runs_searched >= 1


def test_memtable_shadows_runs(small_store):
    env = Environment()
    store = small_store(env, FLUSH_THRESHOLD=2)
    got = []

    def proc(env):
        yield from store.put(("f", 0), "v1")
        yield from store.put(("f", 1), "x")
        yield env.timeout(50)
        yield from store.put(("f", 0), "v2")
        value = yield from store.get(("f", 0))
        got.append(value)

    run(env, proc(env))
    assert got == ["v2"]


def test_compaction_bounds_runs(small_store):
    env = Environment()
    store = small_store(env, FLUSH_THRESHOLD=2, MAX_RUNS=2)

    def proc(env):
        for i in range(12):
            yield from store.put(("f", i), i)
            yield env.timeout(20)

    run(env, proc(env))
    assert store.run_count <= 3
    assert store.stats.compactions >= 1


def test_compaction_preserves_data(small_store):
    env = Environment()
    store = small_store(env, FLUSH_THRESHOLD=2, MAX_RUNS=1)
    got = []

    def proc(env):
        for i in range(8):
            yield from store.put(("f", i), i * 10)
            yield env.timeout(20)
        for i in range(8):
            value = yield from store.get(("f", i))
            got.append(value)

    run(env, proc(env))
    assert got == [i * 10 for i in range(8)]


def test_scan_prefix_merges_layers(small_store):
    env = Environment()
    store = small_store(env, FLUSH_THRESHOLD=2)
    results = []

    def proc(env):
        yield from store.put(("d", 1, "a"), 1)
        yield from store.put(("d", 1, "b"), 2)
        yield env.timeout(50)
        yield from store.put(("d", 1, "c"), 3)
        yield from store.put(("d", 2, "z"), 9)
        rows = yield from store.scan_prefix(("d", 1))
        results.append(rows)

    run(env, proc(env))
    assert results[0] == {("d", 1, "a"): 1, ("d", 1, "b"): 2, ("d", 1, "c"): 3}


def test_load_bulk_visible(small_store):
    env = Environment()
    store = small_store(env)
    store.load_bulk({("f", 1): "seed"})
    got = []

    def proc(env):
        value = yield from store.get(("f", 1))
        got.append(value)

    run(env, proc(env))
    assert got == ["seed"]
