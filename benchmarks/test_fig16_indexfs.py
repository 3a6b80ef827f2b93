"""Figure 16: λIndexFS vs IndexFS on the tree-test benchmark."""

import pytest

from repro.bench.experiments import fig16_indexfs

from _shared import QUICK, report, tabulate

pytestmark = pytest.mark.bench

KW = dict(writes_per_client=150, reads_per_client=150, fixed_total=9_600)
if QUICK:
    KW = dict(client_counts=(8, 32), writes_per_client=80,
              reads_per_client=80, fixed_total=2_560)


def test_fig16_indexfs():
    rows = fig16_indexfs(**KW)
    report(
        "fig16",
        "Figure 16 — λIndexFS vs IndexFS, tree-test (ops/s)",
        tabulate(
            ["workload", "clients", "IndexFS W", "λIndexFS W",
             "IndexFS R", "λIndexFS R", "IndexFS Agg", "λIndexFS Agg"],
            [
                [r["workload"], r["clients"], r["indexfs_write"],
                 r["lambda_write"], r["indexfs_read"], r["lambda_read"],
                 r["indexfs_agg"], r["lambda_agg"]]
                for r in rows
            ],
        ),
    )
    largest = max(r["clients"] for r in rows)
    big = [r for r in rows if r["clients"] == largest]
    for r in big:
        # §5.7: λIndexFS significantly outperforms IndexFS for writes
        # at scale (auto-scaling) and consistently for reads (caching).
        assert r["lambda_write"] > 1.5 * r["indexfs_write"]
        assert r["lambda_read"] > r["indexfs_read"]
