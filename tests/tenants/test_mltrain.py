"""The ML-training workload: epoch structure, counts, determinism."""

import pytest

from repro.core.messages import OpType
from repro.sim import Environment
from repro.workloads.mltrain import MLTrainConfig, MLTrainWorkload

pytestmark = pytest.mark.tenant


class CountingClient:
    """Records operations without any simulated cost."""

    def __init__(self, env):
        self.env = env
        self.ops = []

    def _record(self, op, path):
        self.ops.append((op, path))
        yield self.env.timeout(0.01)

        class R:
            ok = True
        return R()

    def read_file(self, path):
        return (yield from self._record(OpType.READ_FILE, path))

    def stat(self, path):
        return (yield from self._record(OpType.STAT, path))

    def create_file(self, path):
        return (yield from self._record(OpType.CREATE_FILE, path))


def _run(env, workload, clients):
    done = {}

    def main():
        done["result"] = yield from workload.run(clients)

    env.process(main())
    env.run()
    return done["result"]


def test_counts_match_config():
    env = Environment()
    config = MLTrainConfig(epochs=2, dataset_files=24, checkpoint_files=10)
    workload = MLTrainWorkload(env, config)
    clients = [CountingClient(env) for _ in range(4)]
    result = _run(env, workload, clients)
    assert result.epochs == 2
    assert result.reads == 2 * 24
    assert result.stats == 2 * 24  # stat-before-read doubles the touches
    assert result.creates == 2 * 10
    assert result.failed == 0
    assert result.total_ops == 2 * (24 + 24 + 10)


def test_stat_before_read_can_be_disabled():
    env = Environment()
    config = MLTrainConfig(epochs=1, dataset_files=8, checkpoint_files=4,
                           stat_before_read=False)
    workload = MLTrainWorkload(env, config)
    result = _run(env, workload, [CountingClient(env)])
    assert result.stats == 0
    assert result.reads == 8


def test_namespace_preinstalls_checkpoint_dirs():
    env = Environment()
    config = MLTrainConfig(epochs=3, dataset_files=4, root="/t/ml")
    tree = MLTrainWorkload(env, config).namespace()
    assert "/t/ml/ckpt_e0" in tree.directories
    assert "/t/ml/ckpt_e2" in tree.directories
    assert len(tree.files) == 4


def test_shuffle_is_seeded_and_epochs_differ():
    def op_order(seed):
        env = Environment()
        config = MLTrainConfig(epochs=2, dataset_files=16,
                               checkpoint_files=0, seed=seed,
                               stat_before_read=False)
        workload = MLTrainWorkload(env, config)
        client = CountingClient(env)
        _run(env, workload, [client])
        return [path for _op, path in client.ops]

    first, second = op_order(1), op_order(1)
    assert first == second  # same seed → byte-identical order
    assert op_order(1) != op_order(2)  # seed matters
    half = len(first) // 2
    assert first[:half] != first[half:]  # epochs reshuffle
    assert sorted(first[:half]) == sorted(first[half:])  # same files


def test_checkpoint_files_split_across_clients():
    env = Environment()
    config = MLTrainConfig(epochs=1, dataset_files=4, checkpoint_files=7)
    workload = MLTrainWorkload(env, config)
    clients = [CountingClient(env) for _ in range(3)]
    _run(env, workload, clients)
    creates = [
        sum(1 for op, _p in c.ops if op is OpType.CREATE_FILE)
        for c in clients
    ]
    assert sum(creates) == 7
    assert max(creates) - min(creates) <= 1  # near-even split
