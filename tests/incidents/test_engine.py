"""AlertEngine unit tests over synthetic telemetry series."""

import pytest

from repro.incidents import (
    AlertEngine,
    AnomalyRule,
    BurnRateRule,
    Signal,
    ThresholdRule,
)
from repro.telemetry import TimeSeries

pytestmark = pytest.mark.incident


def _series(points):
    ts = TimeSeries()
    for t, values in points:
        ts.append(t, values)
    return ts


def _gauge_rule(threshold=5.0, **kwargs):
    return ThresholdRule(
        name="depth-high",
        signal=Signal("depth", mode="gauge"),
        threshold=threshold, op=">", **kwargs,
    )


def test_threshold_opens_and_resolves():
    engine = AlertEngine([_gauge_rule()])
    alerts = engine.replay(_series([
        (0.0, {"depth": 1.0}),
        (100.0, {"depth": 10.0}),
        (200.0, {"depth": 2.0}),
    ]))
    assert len(alerts) == 1
    alert = alerts[0]
    assert alert.rule == "depth-high"
    assert alert.started_ms == 100.0
    assert alert.ended_ms == 200.0
    assert alert.resolved
    assert alert.value == 10.0


def test_threshold_sustain_window_backdates_alert_start():
    engine = AlertEngine([_gauge_rule(for_ms=150.0)])
    alerts = engine.replay(_series([
        (0.0, {"depth": 1.0}),
        (100.0, {"depth": 10.0}),   # pending starts here
        (200.0, {"depth": 10.0}),   # 100 ms sustained — not yet
        (300.0, {"depth": 10.0}),   # 200 ms sustained — fires
    ]))
    assert len(alerts) == 1
    assert alerts[0].started_ms == 100.0


def test_threshold_sustain_resets_on_dip():
    engine = AlertEngine([_gauge_rule(for_ms=150.0)])
    alerts = engine.replay(_series([
        (0.0, {"depth": 10.0}),
        (100.0, {"depth": 1.0}),    # dip clears the pending window
        (200.0, {"depth": 10.0}),
        (300.0, {"depth": 10.0}),
    ]))
    # Neither pending stretch reached 150 ms before the series ended.
    assert alerts == []


def test_data_gap_keeps_open_alert_open():
    # A "mean" signal over an interval with zero new observations
    # yields None (gap): the open alert must neither close nor flap —
    # nobody completing an op is not evidence the latency recovered.
    rule = ThresholdRule(
        name="lat-high",
        signal=Signal("op_latency_ms", mode="mean"),
        threshold=5.0, op=">",
    )
    engine = AlertEngine([rule])
    alerts = engine.replay(_series([
        (0.0, {"op_latency_ms_sum": 0.0, "op_latency_ms_count": 0.0}),
        (100.0, {"op_latency_ms_sum": 100.0, "op_latency_ms_count": 10.0}),
        (200.0, {"op_latency_ms_sum": 100.0, "op_latency_ms_count": 10.0}),
        (300.0, {"op_latency_ms_sum": 104.0, "op_latency_ms_count": 12.0}),
    ]))
    # t=100: interval mean 10 → opens.  t=200: zero new ops → gap,
    # stays open.  t=300: interval mean 2 → closes.
    assert len(alerts) == 1
    assert alerts[0].started_ms == 100.0
    assert alerts[0].ended_ms == 300.0


def test_anomaly_fires_on_spike_and_recovers_against_frozen_baseline():
    rule = AnomalyRule(
        name="g-anomaly", signal=Signal("g", mode="gauge"),
        z=3.0, alpha=0.5, warmup=3, min_delta=1.0,
    )
    engine = AlertEngine([rule])
    points = [(i * 100.0, {"g": 10.0}) for i in range(6)]
    points.append((600.0, {"g": 100.0}))   # spike → fires
    points.append((700.0, {"g": 120.0}))   # still anomalous (peak)
    points.append((800.0, {"g": 10.0}))    # back inside the old band
    alerts = engine.replay(_series(points))
    assert len(alerts) == 1
    alert = alerts[0]
    assert alert.started_ms == 600.0
    assert alert.ended_ms == 800.0
    assert alert.peak_value == 120.0


def test_anomaly_min_delta_guards_flat_signals():
    # Near-zero variance would z-explode on a trivial wiggle; the
    # absolute min_delta floor keeps it quiet.
    rule = AnomalyRule(
        name="g-anomaly", signal=Signal("g", mode="gauge"),
        z=3.0, alpha=0.5, warmup=3, min_delta=1.0,
    )
    engine = AlertEngine([rule])
    points = [(i * 100.0, {"g": 10.0}) for i in range(6)]
    points.append((600.0, {"g": 10.5}))
    assert engine.replay(_series(points)) == []


def test_burn_rate_stops_paging_when_short_window_drains():
    rule = BurnRateRule(
        name="burn",
        bad=Signal("ops_failed_total", mode="delta"),
        total=Signal("ops_total", mode="delta"),
        error_budget=0.1, long_ms=1_000.0, short_ms=200.0, factor=2.0,
    )
    engine = AlertEngine([rule])
    alerts = engine.replay(_series([
        (0.0, {"ops_failed_total": 0.0, "ops_total": 0.0}),
        (100.0, {"ops_failed_total": 10.0, "ops_total": 10.0}),  # hot
        (200.0, {"ops_failed_total": 10.0, "ops_total": 20.0}),
        (400.0, {"ops_failed_total": 10.0, "ops_total": 30.0}),
    ]))
    assert len(alerts) == 1
    alert = alerts[0]
    assert alert.started_ms == 100.0
    # At t=400 the long window still burns >= 2x (10/40 over budget
    # 0.1), but the short window is clean — the page must stop.
    assert alert.ended_ms == 400.0


def test_finish_closes_still_firing_alert_unresolved():
    engine = AlertEngine([_gauge_rule()])
    alerts = engine.replay(_series([
        (0.0, {"depth": 10.0}),
        (500.0, {"depth": 10.0}),
    ]))
    assert len(alerts) == 1
    assert alerts[0].ended_ms == 500.0
    assert not alerts[0].resolved


def test_duplicate_rule_names_rejected():
    with pytest.raises(ValueError, match="duplicate rule name"):
        AlertEngine([_gauge_rule(), _gauge_rule()])
