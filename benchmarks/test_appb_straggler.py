"""Appendix B: straggler mitigation ablation under NameNode churn."""

import pytest

from repro.bench.experiments import appb_straggler_ablation

from _shared import QUICK, report, tabulate

pytestmark = pytest.mark.bench


def test_appb_straggler():
    kwargs = dict(clients=64, ops_per_client=96) if QUICK else {}
    out = appb_straggler_ablation(**kwargs)
    report(
        "appb",
        "Appendix B — straggler mitigation (reads under NN churn)",
        tabulate(
            ["mitigation", "ops/s", "p99 (ms)", "p99.9 (ms)", "max (ms)"],
            [
                [mode, row["throughput"], row["p99"], row["p999"], row["max"]]
                for mode, row in out.items()
            ],
        ),
    )
    # Straggler mitigation cuts the tail: abandoned requests are
    # resubmitted instead of waiting out dead peers.  (The absolute
    # max is a cold start, which mitigation cannot remove.)
    assert out["on"]["p99"] < out["off"]["p99"]
