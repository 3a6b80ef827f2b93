"""Appendix C: anti-thrashing mode under a tight cluster vCPU cap."""

import pytest

from repro.bench.experiments import appc_antithrash_ablation

from _shared import report, tabulate

pytestmark = pytest.mark.bench


def test_appc_antithrash():
    out = appc_antithrash_ablation()
    report(
        "appc",
        "Appendix C — anti-thrashing mode (tight vCPU cap)",
        tabulate(
            ["anti-thrash", "ops/s", "cold starts", "evictions"],
            [
                [mode, row["throughput"], row["cold_starts"], row["evictions"]]
                for mode, row in out.items()
            ],
        ),
    )
    # With anti-thrashing, clients stop issuing the HTTP invocations
    # that drive container churn, so the platform cold-starts and
    # evicts less while sustaining at least comparable throughput.
    assert out["on"]["cold_starts"] <= out["off"]["cold_starts"]
    assert out["on"]["throughput"] > 0.7 * out["off"]["throughput"]
