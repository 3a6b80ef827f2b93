"""Critical-path math on hand-built span trees.

Each test constructs a tree with known geometry and asserts the exact
stage tiling the backward walk must produce: blocking children charge
their own stage, shadowed siblings are off-path, gaps are parent self
time, and the per-op stage sums equal end-to-end latency to float
precision.
"""

import pytest

from repro.profile import analyze_spans, attribute_op
from repro.profile.critical_path import _index_children
from repro.trace.tracer import Span

pytestmark = pytest.mark.profile


def _span(span_id, parent_id, kind, start, end, actor="a", **attrs):
    span = Span(span_id, parent_id, kind, actor, start, attrs)
    span.end_ms = end
    return span


def _attribute(spans):
    root = spans[0]
    return attribute_op(root, _index_children(spans))


def _assert_exact(record):
    assert record.attributed_ms == pytest.approx(record.total_ms, abs=1e-6)


def test_sequential_chain_tiles_exactly():
    spans = [
        _span(1, None, "client.op", 0.0, 10.0, op="stat", ok=True),
        _span(2, 1, "rpc.tcp", 1.0, 9.0),
        _span(3, 2, "nn.handle", 2.0, 8.0),
        _span(4, 3, "txn", 3.0, 7.0),
    ]
    record = _attribute(spans)
    assert record.total_ms == 10.0
    _assert_exact(record)
    assert record.stages["client_queue"] == pytest.approx(2.0)  # [0,1)+[9,10)
    assert record.stages["tcp_transit"] == pytest.approx(2.0)   # [1,2)+[8,9)
    assert record.stages["namenode"] == pytest.approx(2.0)      # [2,3)+[7,8)
    assert record.stages["store"] == pytest.approx(4.0)         # [3,7)
    assert record.stages["other"] == 0.0


def test_concurrent_fanout_charges_only_slowest_ack():
    # An INV round fans out to three members; only the slowest leg
    # gates the round, the other two are shadowed entirely.
    spans = [
        _span(1, None, "client.op", 0.0, 10.0, op="create file"),
        _span(2, 1, "coord.inv", 1.0, 9.0),
        _span(3, 2, "coord.member", 1.0, 3.0),   # fast — shadowed
        _span(4, 2, "coord.member", 1.0, 5.0),   # medium — shadowed tail
        _span(5, 2, "coord.member", 1.0, 9.0),   # slowest — on path
    ]
    record = _attribute(spans)
    _assert_exact(record)
    # The whole [1,9) window is coherence: the slowest member covers
    # it, and the round span's own residue is coherence too.
    assert record.stages["coherence"] == pytest.approx(8.0)
    assert record.stages["client_queue"] == pytest.approx(2.0)
    # Exactly one member leg appears in the segments (the slowest).
    member_segments = [
        segment for segment in record.segments
        if segment.kind == "coord.member"
    ]
    assert len(member_segments) == 1
    assert member_segments[0].start_ms == 1.0
    assert member_segments[0].end_ms == 9.0


def test_partial_shadowing_splits_between_siblings():
    # Sibling A [1,4), sibling B [3,8): B blocks [3,8), A only its
    # unshadowed prefix [1,3).
    spans = [
        _span(1, None, "client.op", 0.0, 10.0, op="stat"),
        _span(2, 1, "rpc.tcp", 1.0, 4.0),
        _span(3, 1, "coord.inv", 3.0, 8.0),
    ]
    record = _attribute(spans)
    _assert_exact(record)
    assert record.stages["coherence"] == pytest.approx(5.0)    # [3,8)
    assert record.stages["tcp_transit"] == pytest.approx(2.0)  # [1,3)
    assert record.stages["client_queue"] == pytest.approx(3.0)  # [0,1)+[8,10)


def test_failed_attempt_is_resubmit_wholesale():
    # Attempt 1 fails (error attr) — its whole duration is resubmit,
    # never decomposed into children; attempt 2 succeeds normally.
    spans = [
        _span(1, None, "client.op", 0.0, 12.0, op="read file"),
        _span(2, 1, "rpc.tcp", 0.0, 5.0, error="ConnectionDropped"),
        _span(3, 2, "nn.handle", 1.0, 4.0),    # inside the failed attempt
        _span(4, 1, "rpc.http", 5.0, 12.0),
        _span(5, 4, "nn.handle", 6.0, 11.0),
    ]
    record = _attribute(spans)
    _assert_exact(record)
    assert record.stages["resubmit"] == pytest.approx(5.0)
    assert record.stages["namenode"] == pytest.approx(5.0)
    assert record.stages["http_gateway"] == pytest.approx(2.0)
    # The failed attempt's inner nn.handle contributed nothing.
    assert not any(
        segment.kind == "nn.handle" and segment.start_ms < 5.0
        for segment in record.segments
    )


def test_straggler_overlap_is_clipped_at_resubmission():
    # Appendix B: the client abandons attempt 1 at t=4 and resubmits;
    # the abandoned server work continues past the op's own window and
    # overlaps the new attempt.  The walk charges the overlap to the
    # attempt that actually gated completion, and total still tiles.
    spans = [
        _span(1, None, "client.op", 0.0, 10.0, op="read file"),
        _span(2, 1, "rpc.tcp", 0.0, 4.0, error="RequestTimeout"),
        _span(3, 1, "rpc.tcp", 4.0, 10.0),
        _span(4, 3, "nn.handle", 5.0, 9.0),
    ]
    record = _attribute(spans)
    _assert_exact(record)
    assert record.stages["resubmit"] == pytest.approx(4.0)
    assert record.stages["namenode"] == pytest.approx(4.0)
    assert record.stages["tcp_transit"] == pytest.approx(2.0)


def test_child_extending_past_parent_end_is_clipped():
    # Abandoned work running past the root's end must not inflate the
    # attribution beyond the op's real latency.
    spans = [
        _span(1, None, "client.op", 0.0, 6.0, op="stat"),
        _span(2, 1, "rpc.tcp", 1.0, 20.0),  # runs long past the op
    ]
    record = _attribute(spans)
    _assert_exact(record)
    assert record.total_ms == 6.0
    assert record.stages["tcp_transit"] == pytest.approx(5.0)  # [1,6)
    assert record.stages["client_queue"] == pytest.approx(1.0)


def test_zero_duration_points_do_not_contribute():
    spans = [
        _span(1, None, "client.op", 0.0, 4.0, op="stat"),
        _span(2, 1, "rpc.tcp", 0.0, 4.0),
        _span(3, 2, "tcp.send", 0.0, 0.0),      # point
        _span(4, 2, "nn.cache_hit", 2.0, 2.0),  # point
    ]
    record = _attribute(spans)
    _assert_exact(record)
    assert record.stages["tcp_transit"] == pytest.approx(4.0)
    assert all(segment.kind != "tcp.send" for segment in record.segments)


def test_open_children_are_ignored():
    open_child = Span(2, 1, "rpc.tcp", "a", 1.0, {})
    spans = [
        _span(1, None, "client.op", 0.0, 4.0, op="stat"),
        open_child,
    ]
    record = _attribute(spans)
    _assert_exact(record)
    assert record.stages["client_queue"] == pytest.approx(4.0)


def test_unknown_kind_lands_in_other():
    spans = [
        _span(1, None, "client.op", 0.0, 4.0, op="stat"),
        _span(2, 1, "mystery.kind", 1.0, 3.0),
    ]
    record = _attribute(spans)
    _assert_exact(record)
    assert record.stages["other"] == pytest.approx(2.0)


def test_analyze_spans_skips_open_roots_and_counts_them():
    open_root = Span(1, None, "client.op", "a", 0.0, {"op": "stat"})
    closed = _span(2, None, "client.op", 0.0, 2.0, op="stat", ok=True)
    profile = analyze_spans([open_root, closed])
    assert len(profile.ops) == 1
    assert profile.open_roots == 1
    assert profile.ops[0].span_id == 2


def test_aggregates_and_persistence_round_trip(tmp_path):
    spans = [
        _span(1, None, "client.op", 0.0, 10.0, op="stat", ok=True, via="tcp"),
        _span(2, 1, "rpc.tcp", 1.0, 9.0),
        _span(3, None, "client.op", 10.0, 14.0, op="ls", ok=True, via="http"),
        _span(4, 3, "rpc.http", 10.0, 14.0),
    ]
    profile = analyze_spans(spans)
    assert set(profile.by_op_type()) == {"stat", "ls"}
    shares = profile.stage_shares("stat")
    assert shares["tcp_transit"] == pytest.approx(0.8)
    assert sum(shares.values()) == pytest.approx(1.0)
    top = profile.top_contributors(2)
    assert top[0][:2] == ("stat", "tcp_transit")

    path = tmp_path / "profile.json"
    profile.save(str(path))
    loaded = profile.load(str(path))
    assert len(loaded.ops) == 2
    assert loaded.ops[0].stages["tcp_transit"] == pytest.approx(8.0)
    assert loaded.ops[0].total_ms == pytest.approx(10.0)
