"""Pin the post-run judges' arithmetic on a fixed synthetic series.

The chaos verifier's latency, hit-rate and goodput intervals and the
fairness timelines all fold labelled series into per-interval totals.
Summing floats in a different order moves their last bits, so every
value below is an exact literal: a change to how series are grouped,
summed or differenced fails here before it can move a committed
baseline.
"""

import pytest

from repro.chaos import ChaosVerifier
from repro.telemetry.registry import label_key, series_key
from repro.telemetry.sampler import TimeSeries
from repro.tenants.fairness import (
    bucket_delta_rows,
    jain_timeline,
    p99_timeline,
    quantile_from_counts,
    summarize,
)

pytestmark = pytest.mark.chaos

INF = float("inf")


def _key(name, **labels):
    return series_key(name, label_key(labels))


def synthetic_series():
    """Twelve samples of awkward floats: three latency series (one
    appearing mid-run), two deployments, a counter reset, and three
    tenants with bucket series for two of them."""
    ts = TimeSeries()
    lat_c = {"read_file": 0.0, "mkdirs": 0.0, "stat": 0.0}
    lat_s = dict.fromkeys(lat_c, 0.0)
    hits = [0.0, 0.0]
    misses = [0.0, 0.0]
    ops = failed = 0.0
    tops = {"a": 0.0, "b": 0.0, "c": 0.0}
    bounds = ("1.0", "5.0", "25.0", "+Inf")
    buckets = {(t, le): 0.0 for t in ("a", "b") for le in bounds}
    for i in range(12):
        values = {}
        for j, op in enumerate(lat_c):
            n = (i * 7 + j * 3) % 5
            lat_c[op] += n
            lat_s[op] += n * (0.1 * (i + 1) + 1.0 / (j + 3))
            if op == "stat" and i < 4:
                continue  # a series that appears mid-run
            values[_key("op_latency_ms_count", op=op)] = lat_c[op]
            values[_key("op_latency_ms_sum", op=op)] = lat_s[op]
        for d in range(2):
            hits[d] += (i * 5 + d) % 7 * 1.5
            misses[d] += (i + 2 * d) % 3 * 0.7
            values[_key("cache_hits_total", deployment=str(d))] = hits[d]
            values[_key("cache_misses_total", deployment=str(d))] = misses[d]
        ops += 10 + i % 4
        failed += i % 3
        values["ops_total"] = ops if i != 8 else ops / 2  # one reset
        values["ops_failed_total"] = failed
        for k, name in enumerate(tops):
            tops[name] += (i * (k + 2)) % 6
            key = _key("tenant_ops_total", op="read_file", tenant=name)
            values[key] = tops[name]
        values[_key("tenant_ops_total", op="stat", tenant="a")] = i * 0.5
        values[_key("tenant_ops_failed_total", tenant="b")] = i // 3
        values[_key("tenant_cache_hits_total", tenant="a")] = i * 2.0
        values[_key("tenant_cache_misses_total", tenant="a")] = i * 0.5 + 1.0
        for name in ("a", "b"):
            running = 0.0
            for m, le in enumerate(bounds):
                if not (le == "+Inf" and i % 2 == 0):
                    running += (i + m + len(name)) % 4
                buckets[(name, le)] += running
                key = _key("tenant_latency_bucket", le=le, tenant=name)
                values[key] = buckets[(name, le)]
        ts.append(250.0 * i + 1.0 / 3.0, values)
    return ts


LATENCY = [
    (0.3333333333333333, 0.3499999999999999),
    (250.33333333333334, 0.5333333333333332),
    (500.3333333333333, 0.6055555555555556),
    (750.3333333333334, 0.6666666666666664),
    (1000.3333333333334, 0.625),
    (1250.3333333333333, 0.8375000000000004),
    (1500.3333333333333, 0.9533333333333338),
    (1750.3333333333333, 1.1055555555555554),
    (2000.3333333333333, 1.1476190476190473),
    (2250.3333333333335, 1.2562500000000005),
    (2500.3333333333335, 1.3374999999999986),
    (2750.3333333333335, 1.4533333333333331),
]

HIT_RATE = [
    (0.3333333333333333, 0.5172413793103449),
    (250.33333333333334, 0.9593023255813954),
    (500.3333333333333, 0.8333333333333334),
    (750.3333333333334, 0.7627118644067796),
    (1000.3333333333334, 0.9278350515463918),
    (1250.3333333333333, 0.8653846153846154),
    (1500.3333333333333, 0.8426966292134831),
    (1750.3333333333333, 0.6818181818181814),
    (2000.3333333333333, 0.8870967741935485),
    (2250.3333333333335, 0.8823529411764706),
    (2500.3333333333335, 0.8653846153846152),
    (2750.3333333333335, 0.810810810810811),
]

GOODPUT = [
    (0.3333333333333333, 10.0),
    (250.33333333333334, 10.0),
    (500.3333333333333, 10.0),
    (750.3333333333334, 13.0),
    (1000.3333333333334, 9.0),
    (1250.3333333333333, 9.0),
    (1500.3333333333333, 12.0),
    (1750.3333333333333, 12.0),
    (2000.3333333333333, 0.0),
    (2250.3333333333335, 62.0),
    (2500.3333333333335, 11.0),
    (2750.3333333333335, 11.0),
]

JAIN_WEIGHTED = [
    (250.33333333333334, 0.8541176470588235),
    (500.3333333333333, 0.664367816091954),
    (750.3333333333334, 0.38850574712643676),
    (1000.3333333333334, 0.5231316725978647),
    (1250.3333333333333, 0.9700115340253745),
    (1500.3333333333333, 0.3333333333333333),
    (1750.3333333333333, 0.8541176470588235),
    (2000.3333333333333, 0.664367816091954),
    (2250.3333333333335, 0.38850574712643676),
    (2500.3333333333335, 0.5231316725978647),
    (2750.3333333333335, 0.9700115340253745),
]

JAIN = [
    (250.33333333333334, 0.9626666666666667),
    (500.3333333333333, 0.5807560137457044),
    (750.3333333333334, 0.4414414414414416),
    (1000.3333333333334, 0.6329588014981273),
    (1250.3333333333333, 0.9047619047619045),
    (1500.3333333333333, 0.3333333333333333),
    (1750.3333333333333, 0.9626666666666667),
    (2000.3333333333333, 0.5807560137457044),
    (2250.3333333333335, 0.4414414414414416),
    (2500.3333333333335, 0.6329588014981273),
    (2750.3333333333335, 0.9047619047619045),
]

P99 = [
    (0.3333333333333333, 25.0),
    (250.33333333333334, INF),
    (500.3333333333333, 25.0),
    (750.3333333333334, INF),
    (1000.3333333333334, 25.0),
    (1250.3333333333333, INF),
    (1500.3333333333333, 25.0),
    (1750.3333333333333, INF),
    (2000.3333333333333, 25.0),
    (2250.3333333333335, INF),
    (2500.3333333333335, 25.0),
    (2750.3333333333335, INF),
]

P50 = [
    (0.3333333333333333, 5.0),
    (250.33333333333334, 5.0),
    (500.3333333333333, 1.0),
    (750.3333333333334, 25.0),
    (1000.3333333333334, 5.0),
    (1250.3333333333333, 5.0),
    (1500.3333333333333, 1.0),
    (1750.3333333333333, 25.0),
    (2000.3333333333333, 5.0),
    (2250.3333333333335, 5.0),
    (2500.3333333333335, 1.0),
    (2750.3333333333335, 25.0),
]


def test_verifier_intervals_are_pinned():
    verifier = ChaosVerifier(timeseries=synthetic_series())
    assert verifier._latency_intervals() == LATENCY
    assert verifier._hit_rate_intervals() == HIT_RATE
    assert verifier._goodput_intervals() == GOODPUT


def test_fairness_timelines_are_pinned():
    ts = synthetic_series()
    assert jain_timeline(ts, ["a", "b", "c"], weights={"a": 2.0}) == (
        JAIN_WEIGHTED
    )
    assert jain_timeline(ts) == JAIN
    assert p99_timeline(ts, ["a", "b"]) == P99
    bounds, rows = bucket_delta_rows(ts, ["b"])
    assert [(t_ms, quantile_from_counts(bounds, counts, 0.5))
            for t_ms, counts in rows if sum(counts) > 0] == P50


def test_fairness_summary_is_pinned():
    report = summarize(synthetic_series())
    assert [stats.as_dict() for stats in report.tenants] == [
        {
            "name": "a",
            "ops": 29.5,
            "failed": 0.0,
            "mean_ops_per_s": 10.727272727272727,
            "p50_ms": 5.0,
            "p99_ms": INF,
            "hit_rate": 0.7719298245614035,
            "burn_rate": 3.6363636363636354,
        },
        {
            "name": "b",
            "ops": 18.0,
            "failed": 3.0,
            "mean_ops_per_s": 6.545454545454546,
            "p50_ms": 5.0,
            "p99_ms": INF,
            "hit_rate": None,
            "burn_rate": 3.6363636363636354,
        },
        {
            "name": "c",
            "ops": 24.0,
            "failed": 0.0,
            "mean_ops_per_s": 8.727272727272727,
            "p50_ms": 0.0,
            "p99_ms": 0.0,
            "hit_rate": None,
            "burn_rate": 0.0,
        },
    ]
    assert (report.jain_overall, report.jain_min, report.jain_mean) == (
        0.9626229816880856, 0.3333333333333333, 0.670772999051002
    )
