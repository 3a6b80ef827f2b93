"""Unit tests for the SpotifyRun result structure (pure logic)."""

from repro.bench.experiments import SpotifyRun


def make_run():
    return SpotifyRun(
        name="test",
        throughput_timeline=[(0.0, 100.0), (1000.0, 200.0), (2000.0, 300.0)],
        nn_timeline=[(0.0, 4), (1000.0, 8)],
        cost_timeline=[(0.0, 0.0), (1000.0, 0.01), (2000.0, 0.03)],
        avg_throughput=200.0,
        peak_throughput=300.0,
        avg_latency_ms=1.5,
        final_cost_usd=0.03,
        simplified_cost_usd=0.06,
        latencies_by_op={"read file": [1.0, 2.0, 3.0]},
    )


def test_perf_per_cost_uses_incremental_cost():
    run = make_run()
    series = run.perf_per_cost_timeline()
    # t=0: delta ~0 -> huge; t=1000: 200 ops / $0.01; t=2000: 300 / $0.02.
    import pytest

    by_t = dict(series)
    assert by_t[1000.0] == pytest.approx(200.0 / 0.01)
    assert by_t[2000.0] == pytest.approx(300.0 / 0.02)


def test_perf_per_cost_skips_unsampled_bins():
    run = make_run()
    run.throughput_timeline.append((5000.0, 50.0))  # no cost sample at 5 s
    series = dict(run.perf_per_cost_timeline())
    assert 5000.0 not in series
