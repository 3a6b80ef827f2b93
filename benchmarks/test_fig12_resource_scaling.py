"""Figure 12: resource scaling (vCPUs 16→512 in the paper)."""

import pytest

from repro.bench.experiments import fig12_resource_scaling
from repro.core import OpType

from _shared import QUICK, report, tabulate

pytestmark = pytest.mark.bench

VCPUS = (64.0, 256.0, 512.0) if not QUICK else (64.0, 256.0)
SYSTEMS = ("lambda", "hopsfs", "hopsfs_cache")
OPS = (OpType.READ_FILE, OpType.LS, OpType.STAT, OpType.CREATE_FILE, OpType.MKDIRS)


@pytest.fixture(scope="module")
def points():
    return fig12_resource_scaling(
        vcpu_list=VCPUS, ops=OPS, systems=SYSTEMS,
        clients=192, ops_per_client=128, warmup_per_client=48,
    )


def test_fig12_resource_scaling(points):
    for op in OPS:
        table = {}
        for point in points:
            if point.op is op:
                table.setdefault(point.vcpus, {})[point.system] = point
        rows = [
            [int(v)] + [table[v][s].throughput for s in SYSTEMS]
            for v in sorted(table)
        ]
        report(
            f"fig12_{op.name.lower()}",
            f"Figure 12 — resource scaling, {op.value} (ops/s)",
            tabulate(["vCPUs"] + list(SYSTEMS), rows),
        )

    reads = {
        (p.vcpus, p.system): p.throughput
        for p in points if p.op is OpType.READ_FILE
    }
    # λFS read throughput grows with allocated resources (more vCPUs
    # allow a higher degree of auto-scaling, §5.3.2) ...
    assert reads[(max(VCPUS), "lambda")] > reads[(min(VCPUS), "lambda")]
    # ... and beats HopsFS at every allocation.
    for vcpus in VCPUS:
        assert reads[(vcpus, "lambda")] > reads[(vcpus, "hopsfs")]
