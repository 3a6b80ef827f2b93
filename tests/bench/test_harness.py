"""Smoke tests for the benchmark harness at tiny scale.

These keep the experiment drivers correct without paying benchmark
runtimes: every builder constructs, every driver returns sane rows.
"""

import pytest

from repro.bench.harness import (
    build_cephfs,
    build_hopsfs,
    build_hopsfs_cache,
    build_infinicache,
    build_lambdafs,
    run_micro,
)
from repro.core import OpType
from repro.namespace.treegen import TreeSpec, generate_tree
from repro.sim import Environment

TREE = generate_tree(TreeSpec(depth=2, dirs_per_dir=2, files_per_dir=4))

BUILDERS = [
    build_lambdafs,
    build_hopsfs,
    build_hopsfs_cache,
    build_infinicache,
    build_cephfs,
]


@pytest.mark.parametrize("builder", BUILDERS)
def test_builder_runs_reads(builder):
    env = Environment()
    handle = builder(env, TREE, vcpus=64.0)
    result = run_micro(handle, TREE, OpType.READ_FILE, clients=4,
                       ops_per_client=8, warmup_per_client=2)
    assert result.total_ops == 32
    assert result.errors == 0
    assert result.throughput > 0
    assert handle.active_servers() >= 1
    assert handle.cost_usd(result.duration_ms) > 0


def test_lambda_builder_vcpu_budget_respected():
    env = Environment()
    handle = build_lambdafs(env, TREE, vcpus=32.0)
    run_micro(handle, TREE, OpType.READ_FILE, clients=8,
              ops_per_client=8, warmup_per_client=0)
    # 32 vCPUs / 6.25 per instance = at most 5 instances.
    assert handle.system.platform.used_vcpus() <= 32.0


def test_hopsfs_builder_sizes_cluster():
    env = Environment()
    handle = build_hopsfs(env, TREE, vcpus=64.0)
    assert handle.active_servers() == 4  # 64 / 16 vCPU per NameNode


def test_table3_driver_tiny():
    from repro.bench.experiments import table3_subtree_mv

    rows = table3_subtree_mv(directory_sizes=(64,))
    assert rows[0]["files"] == 64
    assert rows[0]["lambda"] > 0
    assert rows[0]["hopsfs"] > 0


def test_fig14_driver_tiny():
    from repro.bench.experiments import fig14_autoscaling_ablation

    rows = fig14_autoscaling_ablation(
        ops=(OpType.READ_FILE,), clients=16, ops_per_client=16,
        warmup_per_client=4,
    )
    assert set(rows[0]) == {"op", "AS", "Limited AS", "No AS"}
    assert all(rows[0][mode] > 0 for mode in ("AS", "Limited AS", "No AS"))


def test_fig16_driver_tiny():
    from repro.bench.experiments import fig16_indexfs

    rows = fig16_indexfs(client_counts=(2,), writes_per_client=10,
                         reads_per_client=10, fixed_total=40)
    assert len(rows) == 2  # variable + fixed
    assert all(r["lambda_write"] > 0 and r["indexfs_write"] > 0 for r in rows)


def test_replacement_sweep_driver_tiny():
    from repro.bench.experiments import replacement_probability_sweep

    rows = replacement_probability_sweep(
        probabilities=(0.0, 0.5), clients=8, ops_per_client=16,
    )
    assert [r["probability"] for r in rows] == [0.0, 0.5]
    assert all(r["throughput"] > 0 for r in rows)


def test_scaling_point_does_not_depend_on_earlier_points():
    """Ids come from each point's own Environment, so a point run after
    others in one process equals the same point run first."""
    from repro.bench.experiments import _one_scaling_point

    def point():
        return _one_scaling_point("lambda", OpType.READ_FILE, 16, 512.0, 8, 4,
                                  seed=0)

    first = point()
    _one_scaling_point("lambda", OpType.CREATE_FILE, 8, 512.0, 4, 2, seed=1)
    _one_scaling_point("hopsfs", OpType.READ_FILE, 8, 512.0, 4, 2, seed=1)
    assert point() == first
