"""Appendix D: subtree sub-operation batch size and offloading."""

import pytest

from repro.bench.experiments import appd_offload_ablation

from _shared import QUICK, report, tabulate

pytestmark = pytest.mark.bench


def test_appd_offloading():
    kwargs = dict(directory_size=1_024, batch_sizes=(64, 256)) if QUICK else {}
    rows = appd_offload_ablation(**kwargs)
    report(
        "appd",
        "Appendix D — subtree mv latency (ms) vs batch size",
        tabulate(
            ["batch size", "offloaded", "local only"],
            [[r["batch_size"], r["offload"], r["local"]] for r in rows],
        ),
    )
    # Offloading sub-operation batches to helper NameNodes beats
    # executing everything on the (small) leader.
    wins = sum(1 for r in rows if r["offload"] <= r["local"] * 1.05)
    assert wins >= len(rows) - 1
