"""Unit tests for the metric primitives and the registry."""

import pytest

from repro.sim import Environment
from repro.telemetry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    label_key,
    parse_series_key,
    series_key,
)


def test_series_key_roundtrip():
    key = label_key({"deployment": "NameNode0", "transport": "tcp"})
    series = series_key("rpc_requests_total", key)
    assert series == 'rpc_requests_total{deployment="NameNode0",transport="tcp"}'
    name, labels = parse_series_key(series)
    assert name == "rpc_requests_total"
    assert labels == {"deployment": "NameNode0", "transport": "tcp"}


def test_series_key_no_labels():
    assert series_key("ops_total", label_key({})) == "ops_total"
    assert parse_series_key("ops_total") == ("ops_total", {})


def test_series_key_escapes_quotes():
    series = series_key("m", label_key({"path": 'a"b'}))
    _, labels = parse_series_key(series)
    assert labels == {"path": 'a"b'}


def test_label_key_is_order_insensitive():
    assert label_key({"a": 1, "b": 2}) == label_key({"b": 2, "a": 1})


def test_counter_inc_and_total():
    counter = Counter("ops_total")
    counter.inc(op="read")
    counter.inc(2.0, op="read")
    counter.inc(op="write")
    assert counter.value(op="read") == 3.0
    assert counter.value(op="missing") == 0.0
    assert counter.total() == 4.0


def test_counter_rejects_negative():
    with pytest.raises(ValueError):
        Counter("c").inc(-1.0)


def test_gauge_set_inc_dec():
    gauge = Gauge("depth")
    gauge.set(5.0, shard="0")
    gauge.inc(shard="0")
    assert gauge.value(shard="0") == 6.0


def test_gauge_callback_evaluated_at_collect():
    state = {"live": 1}
    gauge = Gauge("live")
    gauge.set_fn(lambda: state["live"], deployment="d0")
    assert gauge.value(deployment="d0") == 1.0
    state["live"] = 7
    assert gauge.collect() == {'live{deployment="d0"}': 7.0}


def test_histogram_buckets_and_quantile():
    histogram = Histogram("lat", buckets=(1.0, 10.0, 100.0))
    for value in (0.5, 2.0, 2.0, 50.0, 1_000.0):
        histogram.observe(value, op="read")
    assert histogram.count(op="read") == 5
    assert histogram.collect()['lat_sum{op="read"}'] == pytest.approx(1_054.5)
    assert histogram.cumulative_buckets(label_key({"op": "read"})) == [
        ("1.0", 1), ("10.0", 3), ("100.0", 4), ("+Inf", 5),
    ]


def test_histogram_quantile_empty_and_validation():
    histogram = Histogram("lat", buckets=(1.0,))
    assert histogram.aggregate_quantile(0.99) == 0.0
    with pytest.raises(ValueError):
        histogram.aggregate_quantile(1.5)
    with pytest.raises(ValueError):
        Histogram("bad", buckets=())


def test_histogram_aggregate_quantile_merges_children():
    histogram = Histogram("lat", buckets=(1.0, 10.0))
    for _ in range(99):
        histogram.observe(0.5, op="read")
    histogram.observe(5.0, op="write")
    # Children merged: p50 in first bucket even though op=write alone
    # would land in the second.
    assert histogram.aggregate_quantile(0.5) == 1.0
    assert Histogram("empty", buckets=(1.0,)).aggregate_quantile(0.5) == 0.0


def test_registry_attaches_to_env():
    env = Environment()
    assert env.metrics is None
    registry = MetricsRegistry(env)
    assert env.metrics is registry


def test_registry_helpers_create_lazily():
    registry = MetricsRegistry()
    registry.inc("ops_total", op="read")
    registry.set("depth", 3.0)
    registry.observe("lat", 5.0)
    assert sorted(registry.names()) == ["depth", "lat", "ops_total"]
    snapshot = registry.collect()
    assert snapshot['ops_total{op="read"}'] == 1.0
    assert snapshot["depth"] == 3.0
    assert snapshot["lat_count"] == 1.0
    assert snapshot["lat_sum"] == 5.0


def test_registry_kind_conflict_raises():
    registry = MetricsRegistry()
    registry.counter("x")
    with pytest.raises(ValueError):
        registry.gauge("x")


def test_prometheus_text_shape():
    registry = MetricsRegistry()
    registry.inc("ops_total", op="read")
    registry.observe("lat", 5.0)
    text = registry.prometheus_text()
    assert "# TYPE ops_total counter" in text
    assert "# TYPE lat histogram" in text
    assert 'lat_bucket{le="+Inf"} 1' in text
    assert "lat_count 1" in text
    assert text.endswith("\n")
