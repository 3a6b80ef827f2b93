"""Figure 8(c): per-second performance-per-cost, λFS vs HopsFS+Cache."""

import pytest

from _shared import QUICK, report, spotify_runs_25k, spotify_runs_50k, tabulate

pytestmark = pytest.mark.bench


def _ppc_rows(runs):
    lam = runs["lambda"].perf_per_cost_timeline()
    cache_run = runs.get("hopsfs_cache")
    cache = cache_run.perf_per_cost_timeline() if cache_run else []
    cache_by_t = dict(cache)
    return [
        [int(t / 1000), ppc, cache_by_t.get(t, "")]
        for t, ppc in lam[::3]
    ]


def test_fig8c_perf_per_cost():
    runs25 = spotify_runs_25k()
    report(
        "fig8c_25k",
        "Figure 8(c) — performance-per-cost (ops/s/$), 25k analogue",
        tabulate(["t (s)", "λFS", "HopsFS+Cache"], _ppc_rows(runs25)),
    )
    if not QUICK:
        runs50 = spotify_runs_50k()
        if "hopsfs_cache" in runs50:
            report(
                "fig8c_50k",
                "Figure 8(c) — performance-per-cost (ops/s/$), 50k analogue",
                tabulate(["t (s)", "λFS", "HopsFS+Cache"], _ppc_rows(runs50)),
            )

    lam = runs25["lambda"]
    cache = runs25.get("hopsfs_cache")
    if cache is not None:
        lam_total = lam.avg_throughput / max(lam.final_cost_usd, 1e-12)
        cache_total = cache.avg_throughput / max(cache.final_cost_usd, 1e-12)
        # §5.2.5: λFS achieves significantly higher perf-per-cost
        # (3.33x in the paper) than HopsFS+Cache.
        assert lam_total > 1.5 * cache_total
