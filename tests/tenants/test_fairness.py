"""Jain's index, interval extraction, bucket quantiles, burn rate."""

import pytest

from repro.telemetry.sampler import TimeSeries
from repro.tenants import fairness
from repro.tenants.fairness import (
    burn_rate,
    jain_index,
    jain_timeline,
    p99_timeline,
    quantile_from_counts,
    slo_violation_fraction,
    summarize,
    tenant_totals,
)
from repro.tenants.telemetry import INF_LABEL

pytestmark = pytest.mark.tenant


# -- jain_index ---------------------------------------------------------

def test_jain_equal_shares_is_one():
    assert jain_index([5.0, 5.0, 5.0]) == pytest.approx(1.0)


def test_jain_empty_and_all_zero_are_vacuously_fair():
    assert jain_index([]) == 1.0
    assert jain_index([0.0, 0.0]) == 1.0


def test_jain_single_hog_approaches_one_over_n():
    assert jain_index([10.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)


def test_jain_rejects_negative_shares():
    with pytest.raises(ValueError):
        jain_index([1.0, -0.5])


# -- synthetic time-series helpers --------------------------------------

def _key(name, **labels):
    from repro.telemetry.registry import label_key, series_key

    return series_key(name, label_key(labels))


def _synthetic_ts():
    """Two tenants: 'a' steady at 10 ops/interval, 'b' ramping."""
    ts = TimeSeries()
    a_total, b_total = 0.0, 0.0
    for index in range(5):
        a_total += 10.0
        b_total += 10.0 * index  # 0, 10, 20, 30, 40
        ts.append(250.0 * (index + 1), {
            _key("tenant_ops_total", op="read_file", tenant="a"): a_total,
            _key("tenant_ops_total", op="read_file", tenant="b"): b_total,
        })
    return ts


def test_tenant_names_from_series():
    totals = tenant_totals(_synthetic_ts(), "tenant_ops_total")
    assert list(totals) == ["a", "b"]
    assert totals["b"][-1] == (1250.0, 100.0)


def test_interval_ops_are_deltas():
    rows = fairness.interval_ops(_synthetic_ts())
    assert [row["a"] for _t, row in rows] == [10.0] * 5
    assert [row["b"] for _t, row in rows] == [0.0, 10.0, 20.0, 30.0, 40.0]


def test_jain_timeline_skips_idle_and_tracks_imbalance():
    timeline = jain_timeline(_synthetic_ts())
    assert len(timeline) == 5  # tenant 'a' is never idle
    # First interval: 10 vs 0 → 0.5; equal interval (10 vs 10) → 1.0.
    assert timeline[0][1] == pytest.approx(0.5)
    assert timeline[1][1] == pytest.approx(1.0)
    assert timeline[-1][1] < 1.0


def test_jain_timeline_weight_normalization():
    # b doing k× the ops of a is perfectly fair if b's weight is k.
    ts = TimeSeries()
    ts.append(250.0, {
        _key("tenant_ops_total", op="stat", tenant="a"): 10.0,
        _key("tenant_ops_total", op="stat", tenant="b"): 30.0,
    })
    unweighted = jain_timeline(ts)
    weighted = jain_timeline(ts, weights={"b": 3.0})
    assert unweighted[0][1] < 1.0
    assert weighted[0][1] == pytest.approx(1.0)


def test_multiple_op_series_per_tenant_are_summed():
    ts = TimeSeries()
    ts.append(250.0, {
        _key("tenant_ops_total", op="stat", tenant="a"): 4.0,
        _key("tenant_ops_total", op="read_file", tenant="a"): 6.0,
        _key("tenant_ops_total", op="stat", tenant="b"): 10.0,
    })
    rows = fairness.interval_ops(ts)
    assert rows[0][1] == {"a": 10.0, "b": 10.0}


# -- bucket quantiles ---------------------------------------------------

BOUNDS = ["1.0", "5.0", "25.0", INF_LABEL]


def test_quantile_from_counts_upper_bound_style():
    counts = [50.0, 30.0, 15.0, 5.0]
    assert quantile_from_counts(BOUNDS, counts, 0.5) == 1.0
    assert quantile_from_counts(BOUNDS, counts, 0.8) == 5.0
    assert quantile_from_counts(BOUNDS, counts, 0.99) == float("inf")
    assert quantile_from_counts(BOUNDS, [0.0] * 4, 0.99) == 0.0
    with pytest.raises(ValueError):
        quantile_from_counts(BOUNDS, counts, 1.5)


def test_bucket_delta_rows_de_cumulates_both_axes():
    ts = TimeSeries()
    # Cumulative over time AND over the bucket axis.
    for t, (le1, le5, inf) in [(250.0, (4, 6, 6)), (500.0, (5, 9, 10))]:
        ts.append(t, {
            _key("tenant_latency_bucket", tenant="a", le="1.0"): le1,
            _key("tenant_latency_bucket", tenant="a", le="5.0"): le5,
            _key("tenant_latency_bucket", tenant="a", le=INF_LABEL): inf,
        })
    bounds, rows = fairness.bucket_delta_rows(ts, ["a"])
    assert bounds == ["1.0", "5.0", INF_LABEL]
    assert rows[0][1] == [4.0, 2.0, 0.0]
    assert rows[1][1] == [1.0, 2.0, 1.0]  # interval 2: 1 fast, 2 mid, 1 slow


def test_p99_timeline_skips_empty_intervals():
    ts = TimeSeries()
    for t, count in [(250.0, 10.0), (500.0, 10.0), (750.0, 30.0)]:
        ts.append(t, {
            _key("tenant_latency_bucket", tenant="a", le="1.0"): count,
            _key("tenant_latency_bucket", tenant="a", le=INF_LABEL): count,
        })
    timeline = p99_timeline(ts, ["a"])
    # Interval 2 saw no ops → skipped; the others report the p99 bound.
    assert [t for t, _v in timeline] == [250.0, 750.0]
    assert all(v == 1.0 for _t, v in timeline)


def test_slo_violation_fraction_and_burn_rate():
    counts = [90.0, 10.0]
    assert slo_violation_fraction(["10.0", INF_LABEL], counts, 10.0) == (
        pytest.approx(0.1)
    )
    ts = TimeSeries()
    ts.append(250.0, {
        _key("tenant_latency_bucket", tenant="a", le="10.0"): 90.0,
        _key("tenant_latency_bucket", tenant="a", le=INF_LABEL): 100.0,
    })
    # 10% violations over a 5% budget → burn rate 2.
    assert burn_rate(ts, "a", slo_ms=10.0, error_budget=0.05) == (
        pytest.approx(2.0)
    )


def test_summarize_builds_full_report():
    ts = _synthetic_ts()
    report = summarize(ts)
    assert [stats.name for stats in report.tenants] == ["a", "b"]
    assert report.tenants[0].ops == 50.0
    assert report.tenants[1].ops == 100.0
    assert 0.0 < report.jain_min <= report.jain_mean <= 1.0
    assert "tenant" in report.render()
    payload = report.as_dict()
    assert {t["name"] for t in payload["tenants"]} == {"a", "b"}
