"""Figure 8(b): Spotify workload, base = 50k analogue (2x Fig 8a)."""

import pytest

from _shared import report, spotify_runs_50k, tabulate

pytestmark = pytest.mark.bench


def test_fig8b_spotify_50k():
    runs = spotify_runs_50k()

    rows = [
        [run.name, run.avg_throughput, run.peak_throughput,
         run.avg_latency_ms, f"${run.final_cost_usd:.4f}"]
        for run in runs.values()
    ]
    report(
        "fig8b_summary",
        "Figure 8(b) — Spotify workload (50k-base analogue): summary",
        tabulate(["system", "avg ops/s", "peak ops/s", "avg lat (ms)", "cost"], rows),
    )

    lam, hops = runs["lambda"], runs["hopsfs"]
    # §5.2.2 at the 50k base: HopsFS cannot reach the base rate and
    # spends the run catching up; λFS' peak is several times higher
    # and its average latency several times lower.
    assert lam.avg_throughput > 1.5 * hops.avg_throughput
    assert lam.peak_throughput > 2.0 * hops.peak_throughput
    assert lam.avg_latency_ms < 0.5 * hops.avg_latency_ms
