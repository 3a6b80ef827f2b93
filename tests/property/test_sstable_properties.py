"""Property-based test: the SSTable store equals a dict model.

Random put/delete/get programs must observe exactly what a plain
dict would show, regardless of how flushes and compactions have
arranged the data across the memtable and runs.
"""

from unittest.mock import patch

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metastore import SSTableStore, sstable
from repro.sim import Environment

operation = st.one_of(
    st.tuples(st.just("put"), st.integers(0, 9), st.integers(0, 99)),
    st.tuples(st.just("delete"), st.integers(0, 9), st.none()),
    st.tuples(st.just("get"), st.integers(0, 9), st.none()),
)


@settings(max_examples=80, deadline=None)
@given(st.lists(operation, max_size=40), st.integers(2, 6), st.integers(1, 3))
def test_sstable_matches_dict_model(program, flush_threshold, max_runs):
    with patch.multiple(
        sstable, IO_THREADS=2, WRITE_SERVICE_MS=0.1, READ_SERVICE_MS=0.1,
        PER_RUN_PENALTY_MS=0.05, FLUSH_THRESHOLD=flush_threshold,
        MAX_RUNS=max_runs, FLUSH_MS_PER_1K_ENTRIES=1.0,
        COMPACT_MS_PER_1K_ENTRIES=1.0,
    ):
        assert _run_program(program) == []


def _run_program(program):
    env = Environment()
    store = SSTableStore(env)
    model = {}
    mismatches = []

    def scenario(env):
        for kind, key, value in program:
            if kind == "put":
                yield from store.put(("k", key), value)
                model[("k", key)] = value
            elif kind == "delete":
                yield from store.delete(("k", key))
                model.pop(("k", key), None)
            else:
                got = yield from store.get(("k", key))
                expected = model.get(("k", key))
                if got != expected:
                    mismatches.append((key, got, expected))
        # Let background flush/compaction settle, then re-verify all.
        yield env.timeout(100)
        for key in range(10):
            got = yield from store.get(("k", key))
            expected = model.get(("k", key))
            if got != expected:
                mismatches.append(("final", key, got, expected))

    done = env.process(scenario(env))
    env.run(until=done)
    return mismatches


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 20), st.integers(0, 99)),
                min_size=1, max_size=60))
def test_scan_prefix_matches_model(puts):
    with patch.multiple(sstable, FLUSH_THRESHOLD=5, MAX_RUNS=2):
        result, model = _scan_after(puts)
    expected = {k: v for k, v in model.items() if k[:2] == ("d", 0)}
    assert result == expected


def _scan_after(puts):
    env = Environment()
    store = SSTableStore(env)
    model = {}
    result = {}

    def scenario(env):
        for key, value in puts:
            yield from store.put(("d", key % 3, key), value)
            model[("d", key % 3, key)] = value
        yield env.timeout(200)
        result.update((yield from store.scan_prefix(("d", 0))))

    done = env.process(scenario(env))
    env.run(until=done)
    return result, model
