"""Figure 13: perf-per-cost for read ops, λFS vs HopsFS+Cache."""

import pytest

from repro.bench.experiments import fig13_perf_per_cost

from _shared import QUICK, report, tabulate

pytestmark = pytest.mark.bench

CLIENT_COUNTS = (8, 32, 128) if not QUICK else (8, 32)


def test_fig13_read_perf_per_cost():
    rows = fig13_perf_per_cost(
        client_counts=CLIENT_COUNTS, ops_per_client=128, warmup_per_client=48,
    )
    report(
        "fig13",
        "Figure 13 — perf-per-cost (ops/s/$), read ops",
        tabulate(
            ["op", "clients", "λFS ops/s", "λFS ppc", "H+C ops/s", "H+C ppc"],
            [
                [r["op"].value, r["clients"], r["lambda_throughput"],
                 r["lambda_ppc"], r["hopsfs_cache_throughput"],
                 r["hopsfs_cache_ppc"]]
                for r in rows
            ],
        ),
    )
    # §5.3.3: λFS achieves higher perf-per-cost for read file and ls
    # across problem sizes (λFS costed with the simplified model).
    read_rows = [r for r in rows if r["op"].value == "read file"]
    wins = sum(1 for r in read_rows if r["lambda_ppc"] > r["hopsfs_cache_ppc"])
    assert wins >= len(read_rows) - 1
