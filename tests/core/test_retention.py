"""Bounded retention on the read path.

Every TCP read races a straggler watchdog (``call | timer``).  When the
call wins, the losing timer stays in the calendar queue until its
deadline.  It must not keep the finished op alive until then: the live
``AnyOf`` and ``Process`` count after a closed read loop has to be the
same whether each client ran a few ops or many.
"""

import gc

from repro.bench.harness import build_lambdafs, drive
from repro.core import OpType
from repro.namespace.treegen import TreeSpec, generate_tree
from repro.sim import AnyOf, Environment, Process
from repro.workloads import MicroBenchmark

CLIENTS = 64


def _live_after_read_loop(ops_per_client: int) -> int:
    tree = generate_tree(TreeSpec(depth=2, dirs_per_dir=4, files_per_dir=8))
    env = Environment()
    handle = build_lambdafs(env, tree, deployments=2, seed=3)
    clients = handle.make_clients(CLIENTS)
    drive(env, handle.prewarm())
    bench = MicroBenchmark(env, tree, seed=3)
    result = drive(env, bench.run(clients, OpType.READ_FILE, ops_per_client))
    assert result.errors == 0
    # The loop's watchdogs (50 ms floor) are still pending in the queue.
    assert env.peek() < float("inf")
    gc.collect()
    live = sum(
        1 for obj in gc.get_objects() if isinstance(obj, (AnyOf, Process))
    )
    del env, handle, clients, bench, result
    gc.collect()
    return live


def test_live_ops_do_not_grow_with_ops_per_client():
    few = _live_after_read_loop(16)
    many = _live_after_read_loop(48)
    assert many <= few, (few, many)
