"""Tests for the runner's own arithmetic:
``PYTHONPATH=src python3 -m pytest perfbench``."""

import os

import pytest

from benchmath import (
    LAYERS,
    package_of,
    reportable_percentile,
    samples_beyond,
    self_time_by_package,
    shortfall_ratio,
    target_ops,
    window_delta,
)


@pytest.mark.parametrize("count, q, reportable", [
    (19, 50, False),
    (20, 50, True),
    (999, 99, False),
    (1000, 99, True),
])
def test_percentile_needs_ten_samples_beyond(count, q, reportable):
    values = [float(i) for i in range(count)]
    assert (reportable_percentile(values, q) is not None) is reportable
    assert (samples_beyond(count, q) >= 10) is reportable


def test_reportable_percentile_interpolates():
    values = [float(i) for i in range(2001)]
    assert reportable_percentile(values, 50) == 1000.0
    assert reportable_percentile(values, 99) == pytest.approx(1980.0)


def test_window_delta_subtracts_cumulative_counters():
    before = {"steps": 100, "cost_usd": 0.5, "cold_starts": 3}
    after = {"steps": 250, "cost_usd": 0.75, "cold_starts": 3, "extra": 9}
    assert window_delta(before, after) == {"steps": 150, "cost_usd": 0.25, "cold_starts": 0}


def test_window_delta_rejects_shrinking_or_missing_counters():
    with pytest.raises(ValueError):
        window_delta({"steps": 10}, {"steps": 9})
    with pytest.raises(KeyError):
        window_delta({"steps": 10}, {})


def test_target_ops_owes_each_started_second():
    schedule = [100.0, 400.0]

    def rate_at(ms):
        return schedule[min(int(ms // 2_000.0), len(schedule) - 1)]

    assert target_ops(rate_at, 4_000.0) == 100 + 100 + 400 + 400
    assert target_ops(rate_at, 2_500.0) == 100 + 100 + 400


def test_shortfall_ratio():
    assert shortfall_ratio(900, 1_000.0) == pytest.approx(0.1)
    assert shortfall_ratio(1_000, 1_000.0) == 0.0
    assert shortfall_ratio(1_001, 1_000.0) == 0.0
    with pytest.raises(ValueError):
        shortfall_ratio(1, 0.0)


@pytest.mark.parametrize("filename, layer", [
    (os.path.join("src", "repro", "sim", "core.py"), "sim"),
    (os.path.join("/x", "src", "repro", "core", "namenode.py"), "core"),
    (os.path.join("src", "repro", "coordination", "coordinator.py"), "coordination"),
    (os.path.join("src", "repro", "metrics", "recorder.py"), "other"),
    (os.path.join("src", "repro", "cli.py"), "other"),
    (os.path.join("lib", "python3.11", "heapq.py"), "other"),
    ("~", "other"),
    (os.path.join("perfbench", "probes.py"), "other"),
])
def test_package_of(filename, layer):
    assert package_of(filename) == layer


def test_self_time_by_package_sums_rows_and_lists_every_layer():
    rows = [
        (os.path.join("src", "repro", "sim", "core.py"), 1.5),
        (os.path.join("src", "repro", "sim", "events.py"), 0.5),
        (os.path.join("src", "repro", "rpc", "connections.py"), 0.25),
        ("~", 0.125),
    ]
    totals = self_time_by_package(rows)
    assert set(totals) == set(LAYERS) | {"other"}
    assert totals["sim"] == 2.0
    assert totals["rpc"] == 0.25
    assert totals["other"] == 0.125
    assert totals["metastore"] == 0.0
