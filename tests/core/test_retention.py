"""Bounded retention on the read path.

Every TCP read races a straggler watchdog (``call | timer``).  When the
call wins, the losing timer stays in the calendar queue until its
deadline.  It must not keep the finished op alive until then: the live
``AnyOf`` and ``Process`` count after a closed read loop has to be the
same whether each client ran a few ops or many.

Responses stay in each NameNode's result cache for its TTL, so what a
response holds stays live too: a READ_FILE view is shared per
(NameNode, inode) rather than built per response, and the per-op
records carry no instance ``__dict__``.
"""

import gc
import pickle

import pytest

from repro.bench.harness import build_lambdafs, drive
from repro.core import OpType
from repro.core.messages import MetadataRequest, MetadataResponse
from repro.core.namenode import LambdaNameNode
from repro.metrics.recorder import OpRecord
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


def _is_file_view(obj) -> bool:
    return type(obj) is dict and obj.keys() == {"inode", "locations", "blocks"}


def test_read_views_are_shared_per_namenode_and_inode(monkeypatch):
    # Keyed by the DataNode view too: reads racing a NameNode's first
    # DataNode refresh see an empty view, and the refresh replaces it.
    served = set()
    build_view = LambdaNameNode._file_view

    def recording_view(self, inode):
        served.add((self.member_id, inode.id, tuple(self._datanode_view)))
        return build_view(self, inode)

    monkeypatch.setattr(LambdaNameNode, "_file_view", recording_view)
    tree = generate_tree(TreeSpec(depth=2, dirs_per_dir=4, files_per_dir=8))
    env = Environment()
    handle = build_lambdafs(env, tree, deployments=2, seed=3)
    clients = handle.make_clients(CLIENTS)
    drive(env, handle.prewarm())
    bench = MicroBenchmark(env, tree, seed=3)
    result = drive(env, bench.run(clients, OpType.READ_FILE, 48))
    assert result.errors == 0
    gc.collect()
    views = sum(1 for obj in gc.get_objects() if _is_file_view(obj))
    assert 0 < views <= len(served), (views, len(served))


@pytest.mark.parametrize("record", [
    MetadataRequest(OpType.READ_FILE, "/d/f", client_id="c1"),
    MetadataResponse(request_id=7, ok=True, value={"k": 1}, served_by="nn"),
    OpRecord("read file", 1.0, 2.5, cache_hit=True),
], ids=lambda record: type(record).__name__)
def test_per_op_records_are_slotted_and_picklable(record):
    assert not hasattr(record, "__dict__")
    assert pickle.loads(pickle.dumps(record)) == record
