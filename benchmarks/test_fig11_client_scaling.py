"""Figure 11: client-driven scaling at fixed 512 vCPUs.

Paper: 8→1024 clients, 3072 ops each; here 8→128 clients, 128 ops
each after warmup (ratios and crossovers are the claims under test).
"""

import pytest

from repro.bench.experiments import fig11_client_scaling
from repro.core import OpType

from _shared import QUICK, report, tabulate

pytestmark = pytest.mark.bench

CLIENT_COUNTS = (8, 64, 256) if not QUICK else (8, 32)
SYSTEMS = ("lambda", "hopsfs", "hopsfs_cache", "infinicache", "cephfs")


@pytest.fixture(scope="module")
def points():
    return fig11_client_scaling(
        client_counts=CLIENT_COUNTS,
        systems=SYSTEMS,
        ops_per_client=96,
        warmup_per_client=32,
    )


def _by(points, op):
    table = {}
    for point in points:
        if point.op is op:
            table.setdefault(point.clients, {})[point.system] = point
    return table


def test_fig11_client_scaling(points):
    for op in (OpType.READ_FILE, OpType.LS, OpType.STAT,
               OpType.CREATE_FILE, OpType.MKDIRS):
        table = _by(points, op)
        rows = [
            [count] + [table[count][s].throughput for s in SYSTEMS]
            for count in sorted(table)
        ]
        report(
            f"fig11_{op.name.lower()}",
            f"Figure 11 — client scaling, {op.value} (ops/s)",
            tabulate(["clients"] + list(SYSTEMS), rows),
        )

    largest = max(CLIENT_COUNTS)
    reads = _by(points, OpType.READ_FILE)
    # λFS read throughput is many times HopsFS' (28.91x at paper
    # scale) at the largest client count.
    assert reads[largest]["lambda"].throughput > 4 * reads[largest]["hopsfs"].throughput
    # CephFS wins reads at the smallest scale, λFS at the largest.
    assert reads[min(CLIENT_COUNTS)]["cephfs"].throughput > \
        reads[min(CLIENT_COUNTS)]["lambda"].throughput
    assert reads[largest]["lambda"].throughput > reads[largest]["cephfs"].throughput
    # InfiniCache's invoke-per-op model trails λFS badly.
    assert reads[largest]["lambda"].throughput > 3 * reads[largest]["infinicache"].throughput

    creates = _by(points, OpType.CREATE_FILE)
    # §5.3.1: λFS ~1.49x HopsFS for create; CephFS above both.
    assert creates[largest]["lambda"].throughput > creates[largest]["hopsfs"].throughput
    assert creates[largest]["cephfs"].throughput > creates[largest]["lambda"].throughput
