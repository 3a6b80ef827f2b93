"""Unit tests for metrics recording and statistics."""

import hashlib
import pickle
import random
import tracemalloc

import pytest

from repro.metrics import MetricsRecorder, OpRecord, percentile


def test_record_and_latency():
    recorder = MetricsRecorder()
    recorder.record("read file", 0.0, 2.0)
    recorder.record("read file", 1.0, 5.0)
    assert len(recorder) == 2
    assert recorder.average_latency() == pytest.approx(3.0)
    assert recorder.latencies() == [2.0, 4.0]


def test_throughput_timeline_bins():
    recorder = MetricsRecorder()
    for end in (100, 200, 900, 1_500):
        recorder.record("read file", 0.0, float(end))
    timeline = recorder.throughput_timeline(1_000.0)
    assert timeline[0] == (0.0, 3.0)
    assert timeline[1] == (1_000.0, 1.0)


def test_average_and_peak_throughput():
    recorder = MetricsRecorder()
    for index in range(10):
        recorder.record("read file", 0.0, 100.0 * (index + 1))
    assert recorder.average_throughput(1_000.0) == pytest.approx(10.0)
    assert recorder.peak_throughput(1_000.0) == pytest.approx(10.0)


def test_empty_recorder():
    recorder = MetricsRecorder()
    assert recorder.throughput_timeline() == []
    assert recorder.average_throughput() == 0.0
    assert recorder.peak_throughput() == 0.0


def test_cache_hit_ratio_and_breakdown():
    recorder = MetricsRecorder()
    recorder.record("read file", 0, 1, cache_hit=True)
    recorder.record("read file", 0, 1, cache_hit=False)
    recorder.record("ls file/dir", 0, 1, cache_hit=True)
    assert [r.cache_hit for r in recorder.records] == [True, False, True]


def test_timeline_accepts_out_of_order_records():
    # Records arrive in completion order of concurrent clients, which
    # is not sorted by end_ms; the timeline must not care.
    ordered = MetricsRecorder()
    shuffled = MetricsRecorder()
    ends = [100.0, 200.0, 900.0, 1_500.0]
    for end in ends:
        ordered.record("read file", 0.0, end)
    for end in (1_500.0, 100.0, 900.0, 200.0):
        shuffled.record("read file", 0.0, end)
    assert shuffled.throughput_timeline(1_000.0) == \
        ordered.throughput_timeline(1_000.0)
    assert shuffled.peak_throughput(1_000.0) == ordered.peak_throughput(1_000.0)


def test_timeline_bin_boundaries():
    # bisect_right: an op ending exactly at a bin edge t+bin belongs
    # to that bin, and is excluded from the next one ((t, t+bin]).
    recorder = MetricsRecorder()
    recorder.record("read file", 0.0, 1_000.0)
    recorder.record("read file", 0.0, 2_000.0)
    timeline = recorder.throughput_timeline(1_000.0)
    assert timeline == [(0.0, 1.0), (1_000.0, 1.0), (2_000.0, 0.0)]


def test_timeline_op_at_time_zero_is_never_counted():
    # A record ending exactly at t=0 falls outside every (t, t+bin]
    # interval — the documented edge of the half-open binning.
    recorder = MetricsRecorder()
    recorder.record("read file", 0.0, 0.0)
    assert recorder.throughput_timeline(1_000.0) == [(0.0, 0.0)]


def test_single_record_statistics():
    recorder = MetricsRecorder()
    recorder.record("read file", 10.0, 35.0)
    assert recorder.average_latency() == pytest.approx(25.0)
    assert recorder.average_throughput() == pytest.approx(1_000.0 / 35.0)
    assert recorder.throughput_timeline(1_000.0) == [(0.0, 1.0)]
    assert list(recorder.latencies()) == [25.0]


def test_average_throughput_zero_duration():
    recorder = MetricsRecorder()
    recorder.record("read file", 0.0, 0.0)
    assert recorder.average_throughput() == 0.0
    assert recorder.average_throughput(0.0) == 0.0


def test_percentile_interpolation():
    values = [1.0, 2.0, 3.0, 4.0]
    assert percentile(values, 0) == 1.0
    assert percentile(values, 100) == 4.0
    assert percentile(values, 50) == pytest.approx(2.5)


def test_percentile_validation():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_percentile_single_sample_any_q():
    for q in (0, 37.5, 100):
        assert percentile([42.0], q) == 42.0


def test_percentile_extremes_hit_min_max():
    values = [5.0, 1.0, 9.0, 3.0]
    assert percentile(values, 0) == 1.0
    assert percentile(values, 100) == 9.0


def test_percentile_rejects_bad_q_and_empty():
    with pytest.raises(ValueError):
        percentile([1.0, 2.0], -0.001)
    with pytest.raises(ValueError):
        percentile([1.0, 2.0], 100.001)
    with pytest.raises(ValueError):
        percentile([], 0)


def test_percentile_unsorted_input():
    values = [30.0, 10.0, 20.0]
    assert percentile(values, 50) == 20.0


def _recorded(count, seed=5):
    """A recorder and the list of OpRecords the same calls describe."""
    rng = random.Random(seed)
    recorder = MetricsRecorder()
    reference = []
    for _ in range(count):
        start = rng.uniform(0.0, 1_000.0)
        args = (
            rng.choice(["read file", "create file", "stat file/dir"]),
            start,
            start + rng.expovariate(1.0),
            rng.random() < 0.9,
            rng.choice(["tcp", "http"]),
            rng.random() < 0.5,
        )
        recorder.record(*args)
        reference.append(OpRecord(*args))
    return recorder, reference


def _reference_digest(records):
    digest = hashlib.blake2b(digest_size=16)
    for r in records:
        digest.update(f"{r.op}|{r.start_ms!r}|{r.end_ms!r}|{r.ok:d}|"
                      f"{r.via}|{r.cache_hit:d}\n".encode())
    return digest.hexdigest()


def test_records_read_like_the_list_of_oprecords():
    recorder, reference = _recorded(300)
    records = recorder.records
    assert len(records) == len(reference) == len(recorder)
    assert list(records) == reference
    for index in (0, 1, 150, 299, -1, -300):
        assert records[index] == reference[index]
    with pytest.raises(IndexError):
        records[300]
    for outer, inner in [
        (slice(100, None), slice(None, 50)),
        (slice(10, 290, 3), slice(-20, None, 2)),
        (slice(None, None, -1), slice(5, 40)),
        (slice(250, 100), slice(None)),
    ]:
        view, expected = records[outer][inner], reference[outer][inner]
        assert len(view) == len(expected)
        assert list(view) == expected
        assert list(view) == list(view)  # a view iterates again
    assert recorder.outcome_digest() == _reference_digest(reference)
    assert recorder.latencies() == [r.latency_ms for r in reference]


def test_a_slice_is_fixed_when_taken():
    recorder, reference = _recorded(20)
    before = len(recorder)
    tail = recorder.records[before:]
    everything = recorder.records
    recorder.record("read file", 5.0, 6.0)
    assert len(tail) == 0 and len(everything) == before
    assert list(recorder.records[before:]) == [OpRecord("read file", 5.0, 6.0)]


def test_records_survive_a_pickle_round_trip():
    recorder, reference = _recorded(50)
    copy = pickle.loads(pickle.dumps(recorder))
    assert list(copy.records) == reference
    assert copy.outcome_digest() == recorder.outcome_digest()
    assert list(pickle.loads(pickle.dumps(recorder.records[10:20]))) == reference[10:20]


def test_records_are_packed():
    # A slotted OpRecord per op, its list slot and the start float it
    # boxes retain ~112 bytes here; the packed columns retain ~18.
    count = 10_000
    ends = [float(index) + 0.5 for index in range(count)]
    recorder = MetricsRecorder()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for index in range(count):
            recorder.record("read file", float(index), ends[index], True, "tcp", False)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained / count < 32, retained / count


def test_tenant_is_interned_and_left_out_of_the_digest():
    plain, tagged = MetricsRecorder(), MetricsRecorder()
    for index in range(6):
        plain.record("read file", float(index), index + 0.5)
        tagged.record("read file", float(index), index + 0.5,
                      tenant="ab"[index % 2])
    assert tagged._codes.typecode == "H"
    assert len(tagged._keys) == 2
    assert [r.tenant for r in tagged.records] == ["a", "b"] * 3
    assert tagged.tenants() == ["a", "b"] and plain.tenants() == []
    assert tagged.outcome_digest() == plain.outcome_digest()
