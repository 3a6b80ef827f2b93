"""Unit tests for the causal tracer itself."""

import pytest

from repro.sim import Environment
from repro.trace import Tracer, parent_id_of


def test_span_parenting_and_tree():
    env = Environment()
    tracer = Tracer(env)
    assert env.tracer is tracer
    root = tracer.begin("client.op", "client1", op="stat")
    rpc = tracer.begin("rpc.tcp", "client1", parent=root, attempt=1)
    handle = tracer.begin("nn.handle", "nn1", parent=rpc.span_id)
    tracer.end(handle)
    tracer.end(rpc)
    tracer.end(root, ok=True)

    assert root.parent_id is None
    assert rpc.parent_id == root.span_id
    assert handle.parent_id == rpc.span_id
    assert root.attrs["ok"] is True


def test_parent_id_of_accepts_span_id_none():
    env = Environment()
    tracer = Tracer(env)
    span = tracer.begin("x", "a")
    assert parent_id_of(span) == span.span_id
    assert parent_id_of(span.span_id) == span.span_id
    assert parent_id_of(None) is None


def test_point_is_zero_duration():
    env = Environment()
    tracer = Tracer(env)
    point = tracer.point("nn.cache_hit", "nn1", path="/x")
    assert point.duration_ms == 0.0
    assert not point.open
    assert tracer.points == 1


def test_end_none_is_noop():
    env = Environment()
    tracer = Tracer(env)
    tracer.end(None)  # must not raise (the disabled-site contract)


def test_durations_and_timing_by_kind():
    env = Environment()
    tracer = Tracer(env)
    span = tracer.begin("txn", "t1")

    def advance(env):
        yield env.timeout(5.0)

    done = env.process(advance(env))
    env.run(until=done)
    tracer.end(span)
    tracer.point("txn.end", "t1")
    assert span.duration_ms == pytest.approx(5.0)
    # A span still open has no duration yet.
    still_open = tracer.begin("txn", "t2")
    assert still_open.open and still_open.duration_ms == 0.0


def test_max_spans_drops_but_still_counts():
    env = Environment()
    tracer = Tracer(env, max_spans=2)
    for index in range(5):
        tracer.point("x", f"a{index}")
    assert len(tracer.spans) == 2
    assert tracer.dropped == 3
    assert tracer.started == 5


def test_keep_spans_false_streams_to_checkers():
    env = Environment()
    tracer = Tracer(env, keep_spans=False)

    seen = []

    class Probe:
        violations = ()

        def observe(self, phase, span):
            seen.append((phase, span.kind))

    tracer.add_checker(Probe())
    tracer.point("x", "a")
    assert tracer.spans == {}
    assert ("point", "x") in seen


def test_event_hash_tracks_kernel_steps():
    def run(seed_delay):
        env = Environment()
        tracer = Tracer(env)

        def proc(env):
            yield env.timeout(seed_delay)
            yield env.timeout(1.0)

        done = env.process(proc(env))
        env.run(until=done)
        return tracer.event_hash(), tracer.events_hashed

    hash_a, steps_a = run(2.0)
    hash_b, steps_b = run(2.0)
    hash_c, _ = run(3.0)
    assert hash_a == hash_b
    assert steps_a == steps_b > 0
    assert hash_a != hash_c


def test_summary_shape():
    env = Environment()
    tracer = Tracer(env)
    tracer.point("x", "a")
    summary = tracer.summary()
    assert set(summary) == {
        "event_hash", "events_hashed", "spans", "points", "dropped",
        "open_spans", "open_connections", "violations",
    }
    assert summary["spans"] == 1 and summary["violations"] == 0
    assert summary["open_spans"] == 0
    assert summary["open_connections"] == 0


def test_open_spans_surfaces_leaks():
    env = Environment()
    tracer = Tracer(env)
    leaked = tracer.begin("x", "a")
    closed = tracer.begin("y", "a")
    tracer.end(closed)
    assert tracer.open_spans() == [leaked]
    assert tracer.summary()["open_spans"] == 1
    tracer.end(leaked)
    assert tracer.summary()["open_spans"] == 0


def test_retention_cap_drops_are_safe():
    """Spans past the cap are dropped from storage, but ending them
    and parenting children on them must not raise."""
    env = Environment()
    tracer = Tracer(env, max_spans=2)
    kept_a = tracer.begin("a", "x")
    kept_b = tracer.begin("b", "x", parent=kept_a)
    dropped = tracer.begin("c", "x", parent=kept_b)  # over the cap
    assert tracer.dropped == 1
    assert dropped.span_id not in tracer.spans
    # end() on a dropped span is a plain no-surprise close.
    tracer.end(dropped, ok=True)
    assert not dropped.open and dropped.attrs["ok"] is True
    # A child whose parent was dropped still records its parent_id...
    orphan = tracer.begin("d", "x", parent=dropped)
    assert orphan.parent_id == dropped.span_id
    tracer.end(kept_b)
    tracer.end(kept_a)
    # Dropped spans do not count as open leaks (they are not retained).
    assert tracer.summary()["open_spans"] == 0
