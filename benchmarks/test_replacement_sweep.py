"""§3.4 ablation: the HTTP-TCP replacement probability knob."""

import pytest

from repro.bench.experiments import replacement_probability_sweep

from _shared import QUICK, report, tabulate

pytestmark = pytest.mark.bench


def test_replacement_sweep():
    kwargs = dict(clients=96, ops_per_client=96) if QUICK else {}
    rows = replacement_probability_sweep(**kwargs)
    report(
        "replacement_sweep",
        "§3.4 — HTTP-TCP replacement probability sweep (reads)",
        tabulate(
            ["probability", "ops/s", "NameNodes", "avg latency (ms)"],
            [
                [r["probability"], r["throughput"], r["namenodes"],
                 r["avg_latency"]]
                for r in rows
            ],
        ),
    )
    by_p = {r["probability"]: r for r in rows}
    # More replacement -> a bigger fleet (the elasticity signal) ...
    assert by_p[0.1]["namenodes"] >= by_p[0.0]["namenodes"]
    # ... but a high probability pays HTTP latency on the request path.
    assert by_p[0.1]["avg_latency"] > by_p[0.001]["avg_latency"]
