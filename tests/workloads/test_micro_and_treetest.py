"""Unit tests for the microbenchmark and tree-test drivers."""

import pytest

from repro.baselines import IndexFSCluster
from repro.core.messages import OpType
from repro.namespace.treegen import TreeSpec, generate_tree
from repro.sim import Environment
from repro.workloads import MicroBenchmark, TreeTest, TreeTestConfig, treetest


class StubClient:
    """Uniform-latency client for driver tests."""

    def __init__(self, env, latency_ms=1.0, fail_every=0):
        self.env = env
        self.latency_ms = latency_ms
        self.calls = []
        self.fail_every = fail_every

    def execute(self, op, target, dst_path=None, recursive=False):
        self.calls.append((op, target))
        yield self.env.timeout(self.latency_ms)

        class R:
            ok = self.fail_every == 0 or len(self.calls) % self.fail_every != 0
        return R()


def test_micro_throughput_math():
    env = Environment()
    tree = generate_tree(TreeSpec(depth=1, dirs_per_dir=2, files_per_dir=4))
    clients = [StubClient(env, latency_ms=2.0) for _ in range(4)]
    bench = MicroBenchmark(env, tree)
    box = {}

    def main(env):
        box["r"] = yield from bench.run(clients, OpType.READ_FILE, 10)

    done = env.process(main(env))
    env.run(until=done)
    result = box["r"]
    # 4 clients x 10 ops at 2 ms each, fully parallel: 20 ms total.
    assert result.duration_ms == pytest.approx(20.0)
    assert result.throughput == pytest.approx(40 * 1000 / 20.0)
    assert result.errors == 0


def test_micro_warmup_not_counted():
    env = Environment()
    tree = generate_tree(TreeSpec(depth=1, dirs_per_dir=2, files_per_dir=4))
    client = StubClient(env)
    bench = MicroBenchmark(env, tree)
    box = {}

    def main(env):
        box["r"] = yield from bench.run([client], OpType.STAT, 5, warmup_per_client=7)

    done = env.process(main(env))
    env.run(until=done)
    assert box["r"].total_ops == 5
    assert len(client.calls) == 12  # warmup + measured both executed


def test_micro_counts_errors():
    env = Environment()
    tree = generate_tree(TreeSpec(depth=1, dirs_per_dir=2, files_per_dir=4))
    client = StubClient(env, fail_every=2)
    bench = MicroBenchmark(env, tree)
    box = {}

    def main(env):
        box["r"] = yield from bench.run([client], OpType.LS, 10)

    done = env.process(main(env))
    env.run(until=done)
    assert box["r"].errors == 5


def test_micro_create_targets_are_unique():
    env = Environment()
    tree = generate_tree(TreeSpec(depth=1, dirs_per_dir=2, files_per_dir=4))
    clients = [StubClient(env) for _ in range(3)]
    bench = MicroBenchmark(env, tree)

    def main(env):
        yield from bench.run(clients, OpType.CREATE_FILE, 20)

    done = env.process(main(env))
    env.run(until=done)
    targets = [t for c in clients for _op, t in c.calls]
    assert len(targets) == len(set(targets))


def test_micro_rejects_unsupported_op():
    env = Environment()
    tree = generate_tree(TreeSpec())
    bench = MicroBenchmark(env, tree)
    with pytest.raises(ValueError):
        bench._target(OpType.MV, __import__("random").Random(0), 0, 0, "m")


def test_treetest_phases_and_counts(monkeypatch):
    monkeypatch.setattr(treetest, "WARMUP_OPS", 2)
    env = Environment()
    cluster = IndexFSCluster(env)
    clients = [cluster.new_client() for _ in range(2)]
    config = TreeTestConfig(writes_per_client=20, reads_per_client=15)
    box = {}

    def main(env):
        box["r"] = yield from TreeTest(env, config).run(clients)

    done = env.process(main(env))
    env.run(until=done)
    result = box["r"]
    assert result.write_ops == 40
    assert result.read_ops == 30
    assert result.write_throughput > 0
    assert result.read_throughput > 0
    assert result.aggregate_throughput > 0


def test_treetest_fixed_splits_total(monkeypatch):
    monkeypatch.setattr(treetest, "WARMUP_OPS", 0)
    env = Environment()
    cluster = IndexFSCluster(env)
    clients = [cluster.new_client() for _ in range(4)]
    config = TreeTestConfig(fixed_total_writes=80, fixed_total_reads=40)
    box = {}

    def main(env):
        box["r"] = yield from TreeTest(env, config).run(clients, fixed_size=True)

    done = env.process(main(env))
    env.run(until=done)
    assert box["r"].write_ops == 80
    assert box["r"].read_ops == 40
