"""Figure 14: throughput with auto-scaling enabled/limited/disabled."""

import pytest

from repro.bench.experiments import fig14_autoscaling_ablation
from repro.core import OpType

from _shared import QUICK, report, tabulate

pytestmark = pytest.mark.bench

OPS = (
    (OpType.READ_FILE, OpType.STAT, OpType.LS, OpType.CREATE_FILE, OpType.MKDIRS)
    if not QUICK else (OpType.READ_FILE, OpType.CREATE_FILE)
)


def test_fig14_autoscaling_ablation():
    rows = fig14_autoscaling_ablation(
        ops=OPS, clients=160, ops_per_client=96, warmup_per_client=32,
    )
    report(
        "fig14",
        "Figure 14 — auto-scaling ablation (ops/s)",
        tabulate(
            ["op", "AS", "Limited AS", "No AS"],
            [[r["op"].value, r["AS"], r["Limited AS"], r["No AS"]] for r in rows],
        ),
    )
    by_op = {r["op"]: r for r in rows}
    # §5.4: reads gain severalfold from auto-scaling; the write gap is
    # smaller because the store is the write bottleneck.
    read = by_op[OpType.READ_FILE]
    assert read["AS"] > 1.4 * read["No AS"]
    # At moderate load AS ≈ Limited AS (both have headroom); the gap
    # against No AS is the paper's core claim.
    assert read["AS"] >= read["Limited AS"] * 0.85
    assert read["Limited AS"] > read["No AS"]
    create = by_op[OpType.CREATE_FILE]
    read_gain = read["AS"] / max(read["No AS"], 1e-9)
    create_gain = create["AS"] / max(create["No AS"], 1e-9)
    assert create_gain < read_gain
