"""Figure 8(a): Spotify workload throughput, base = 25k analogue.

Regenerates the Figure 8(a) series: per-second throughput for λFS,
HopsFS, HopsFS+Cache, reduced-cache λFS and cost-normalized
HopsFS+Cache, plus the active-NameNode count on the secondary axis.
"""

import pytest

from _shared import report, spotify_runs_25k, tabulate

pytestmark = pytest.mark.bench


def test_fig8a_spotify_25k():
    runs = spotify_runs_25k()

    rows = []
    for key, run in runs.items():
        rows.append([
            run.name, run.avg_throughput, run.peak_throughput,
            run.avg_latency_ms, f"${run.final_cost_usd:.4f}",
            f"{run.completed}/{run.issued}",
        ])
    report(
        "fig8a_summary",
        "Figure 8(a) — Spotify workload (25k-base analogue): summary",
        tabulate(
            ["system", "avg ops/s", "peak ops/s", "avg lat (ms)", "cost", "ops done"],
            rows,
        ),
    )

    lam = runs["lambda"]
    series_rows = []
    nn_by_t = dict(lam.nn_timeline)
    for t, ops in lam.throughput_timeline[::3]:
        row = [int(t / 1000), ops]
        for key in runs:
            if key == "lambda":
                continue
            timeline = dict(runs[key].throughput_timeline)
            row.append(timeline.get(t, 0.0))
        row.append(nn_by_t.get(t, ""))
        series_rows.append(row)
    headers = ["t (s)", "λFS"] + [runs[k].name for k in runs if k != "lambda"] + ["λFS NNs"]
    report(
        "fig8a_timeline",
        "Figure 8(a) — throughput timeline (ops/s, sampled every 3 s)",
        tabulate(headers, series_rows),
    )

    hops = runs.get("hopsfs")
    if hops is not None:
        # Shape assertions from §5.2.2: λFS sustains the bursts that
        # HopsFS cannot, at far lower latency, and lower cost.
        assert lam.peak_throughput > 1.3 * hops.peak_throughput
        assert lam.avg_latency_ms < hops.avg_latency_ms
        assert lam.final_cost_usd < hops.final_cost_usd
    cache = runs.get("hopsfs_cache")
    if cache is not None:
        # λFS ≈ HopsFS+Cache throughput at a fraction of the cost.
        assert lam.avg_throughput > 0.8 * cache.avg_throughput
        assert lam.final_cost_usd < 0.6 * cache.final_cost_usd
    # λFS scaled out beyond its initial fleet during the burst.
    assert max(c for _, c in lam.nn_timeline) > 16
