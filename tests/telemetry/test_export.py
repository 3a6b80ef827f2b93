"""Round-trip tests for the JSONL/CSV/Prometheus exporters."""

import csv
import io
import json

import pytest

from repro.telemetry import (
    MetricsRegistry,
    TimeSeries,
    parse_prometheus_text,
    read_jsonl,
    write_csv,
    write_jsonl,
    write_prometheus,
)


def _sample_timeseries() -> TimeSeries:
    ts = TimeSeries()
    ts.append(0.0, {"a": 1.0, 'b{k="v"}': 2.5})
    ts.append(250.0, {"a": 3.0})
    return ts


def test_jsonl_roundtrip(tmp_path):
    path = tmp_path / "telemetry.jsonl"
    write_jsonl(_sample_timeseries(), str(path))
    ts = read_jsonl(str(path))
    assert ts.times() == [0.0, 250.0]
    assert ts.series("a")[-1] == (250.0, 3.0)
    assert ts.series('b{k="v"}')[0] == (0.0, 2.5)


def test_jsonl_lines_are_valid_json(tmp_path):
    path = tmp_path / "telemetry.jsonl"
    write_jsonl(_sample_timeseries(), str(path))
    for line in path.read_text().splitlines():
        record = json.loads(line)
        assert "t_ms" in record and "values" in record


def test_read_jsonl_tolerates_junk_lines():
    buffer = io.StringIO('{"no_time": 1}\n\n{"t_ms": 5.0, "values": {"a": 1}}\n')
    ts = read_jsonl(buffer)
    assert ts.times() == [5.0]


def test_csv_header_and_missing_cells(tmp_path):
    path = tmp_path / "telemetry.csv"
    write_csv(_sample_timeseries(), str(path))
    rows = list(csv.reader(path.open()))
    assert rows[0] == ["t_ms", "a", 'b{k="v"}']
    # The second sample has no value for b: empty cell, not 0.
    assert rows[2][2] == ""
    assert float(rows[2][1]) == 3.0


def test_prometheus_roundtrip(tmp_path):
    registry = MetricsRegistry()
    registry.inc("ops_total", 3.0, op="read")
    registry.set("depth", 2.0)
    registry.observe("lat", 7.5)
    path = tmp_path / "telemetry.prom"
    write_prometheus(registry, str(path))
    samples = parse_prometheus_text(path.read_text())
    assert samples['ops_total{op="read"}'] == 3.0
    assert samples["depth"] == 2.0
    assert samples['lat_bucket{le="+Inf"}'] == 1.0
    assert samples["lat_count"] == 1.0
    assert samples["lat_sum"] == 7.5


def test_parse_prometheus_rejects_malformed_sample():
    with pytest.raises(ValueError):
        parse_prometheus_text("ops_total not-a-number\n")
