"""Unit tests for the sim-time sampler and its time-series."""

import pytest

from repro.sim import Environment
from repro.telemetry import MetricsRegistry, Sampler, TimeSeries
from repro.telemetry.sampler import interval_deltas


def test_timeseries_series_and_keys():
    ts = TimeSeries()
    ts.append(0.0, {"a": 1.0})
    ts.append(100.0, {"a": 2.0, "b": 5.0})
    assert ts.times() == [0.0, 100.0]
    assert ts.keys() == ["a", "b"]
    assert ts.series("a") == [(0.0, 1.0), (100.0, 2.0)]
    # Missing points fill with the default.
    assert ts.series("b") == [(0.0, 0.0), (100.0, 5.0)]
    assert ts.last("b") == 5.0
    assert ts.last("missing") == 0.0


def test_timeseries_deltas_first_interval_from_zero():
    ts = TimeSeries()
    ts.append(0.0, {"c": 3.0})
    ts.append(100.0, {"c": 10.0})
    ts.append(200.0, {"c": 10.0})
    assert ts.deltas("c") == [(0.0, 3.0), (100.0, 7.0), (200.0, 0.0)]


def test_timeseries_series_matching_groups_by_family():
    ts = TimeSeries()
    ts.append(0.0, {
        'rpc_requests_total{transport="tcp"}': 1.0,
        'rpc_requests_total{transport="http"}': 2.0,
        "other": 9.0,
    })
    matched = ts.series_matching("rpc_requests_total")
    assert sorted(matched) == [
        'rpc_requests_total{transport="http"}',
        'rpc_requests_total{transport="tcp"}',
    ]


def test_sampler_samples_on_sim_clock():
    env = Environment()
    registry = MetricsRegistry(env)
    registry.inc("ops_total")
    sampler = Sampler(env, registry, interval_ms=100.0).start()

    def workload(env):
        for _ in range(5):
            yield env.timeout(100.0)
            registry.inc("ops_total")

    done = env.process(workload(env))
    env.run(until=done)
    sampler.stop()
    times = sampler.timeseries.times()
    # Samples at t=0,100,...,500 plus the forced final snapshot.
    assert times == [0.0, 100.0, 200.0, 300.0, 400.0, 500.0, 500.0]
    assert sampler.timeseries.series("ops_total")[0] == (0.0, 1.0)
    assert sampler.timeseries.last("ops_total") == 6.0


def test_sampler_skips_duplicate_instants_unless_forced():
    env = Environment()
    registry = MetricsRegistry(env)
    sampler = Sampler(env, registry, interval_ms=100.0)
    sampler.sample_now()
    sampler.sample_now()
    assert len(sampler.timeseries) == 1
    sampler.sample_now(force=True)
    assert len(sampler.timeseries) == 2


def test_sampler_start_is_idempotent():
    env = Environment()
    sampler = Sampler(env, MetricsRegistry(env), interval_ms=50.0)
    assert sampler.start() is sampler.start()
    env.run(until=10.0)
    assert len(sampler.timeseries) == 1


def test_sampler_stop_halts_the_loop():
    env = Environment()
    registry = MetricsRegistry(env)
    sampler = Sampler(env, registry, interval_ms=100.0).start()
    env.run(until=250.0)
    sampler.stop(final_sample=False)
    count = len(sampler.timeseries)
    env.run(until=1_000.0)
    assert len(sampler.timeseries) == count
    assert not sampler.running


def test_sampler_rejects_bad_interval():
    env = Environment()
    with pytest.raises(ValueError):
        Sampler(env, MetricsRegistry(env), interval_ms=0.0)


# -- windowed-query helpers ------------------------------------------


def _ts(points):
    ts = TimeSeries()
    for t, values in points:
        ts.samples.append((t, values))
    return ts


def test_window_inclusive_on_both_bounds():
    ts = _ts([(0.0, {"a": 1.0}), (100.0, {"a": 2.0}), (200.0, {"a": 3.0})])
    win = ts.window(100.0, 200.0)
    assert [t for t, _ in win.samples] == [100.0, 200.0]


def test_window_empty_and_inverted():
    ts = _ts([(0.0, {"a": 1.0}), (100.0, {"a": 2.0})])
    assert ts.window(300.0, 400.0).samples == []
    assert ts.window(100.0, 0.0).samples == []
    assert TimeSeries().window(0.0, 1e9).samples == []


def test_window_single_sample_on_bound():
    ts = _ts([(50.0, {"a": 1.0})])
    assert len(ts.window(50.0, 50.0).samples) == 1


# -- family totals and interval deltas ----------------------------------


def test_totals_group_by_labels_and_skip_series_missing_one():
    ts = _ts([
        (0.0, {
            'ops{op="read",tenant="a"}': 1.0,
            'ops{op="stat",tenant="a"}': 2.0,
            'ops{op="read",tenant="b"}': 4.0,
            'ops{op="read"}': 8.0,
            'other{tenant="a"}': 16.0,
        }),
        (1.0, {
            'ops{op="read",tenant="a"}': 3.0,
            'ops{op="read",tenant="b"}': 5.0,
            'ops{op="read"}': 8.0,
        }),
    ])
    # No grouping: every series of the family, one group keyed ().
    assert ts.totals("ops") == {(): [(0.0, 15.0), (1.0, 16.0)]}
    # By tenant: the label-less series is left out, and a series
    # missing from a sample counts as 0.0 there.
    assert ts.totals("ops", by=("tenant",)) == {
        ("a",): [(0.0, 3.0), (1.0, 3.0)],
        ("b",): [(0.0, 4.0), (1.0, 5.0)],
    }
    assert ts.totals("ops", by=("tenant", "op")) == {
        ("a", "read"): [(0.0, 1.0), (1.0, 3.0)],
        ("a", "stat"): [(0.0, 2.0), (1.0, 0.0)],
        ("b", "read"): [(0.0, 4.0), (1.0, 5.0)],
    }
    assert ts.totals("missing") == {}


def test_totals_sum_in_sorted_key_order():
    # Float addition is not associative: 1e16 + 1.0 + 1.0 loses both
    # ones, while 1.0 + 1.0 + 1e16 keeps them.  Insertion order puts
    # the big value first; sorted-key order puts it last.
    ts = _ts([(0.0, {'f{k="c"}': 1e16, 'f{k="a"}': 1.0, 'f{k="b"}': 1.0})])
    ((_t, total),) = ts.totals("f")[()]
    assert total == (1.0 + 1.0) + 1e16
    assert total != (1e16 + 1.0) + 1.0


def test_interval_deltas_count_from_zero_and_clamp_resets():
    points = [(0.0, 3.0), (1.0, 10.0), (2.0, 4.0), (3.0, 6.0)]
    assert interval_deltas(points) == [
        (0.0, 3.0), (1.0, 7.0), (2.0, 0.0), (3.0, 2.0)
    ]
    assert interval_deltas([]) == []
