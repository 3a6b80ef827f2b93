"""The memoised READ_FILE view.

The file system keeps one view per inode id for the whole NameNode
fleet, and every NameNode holding the same INode and DataNode view
hands out that same dict.  These tests pin that the memo is invisible:
each returned view equals what fresh placement over the serving
NameNode's live DataNode set gives, it follows INode replacement and
membership changes, and it stays sized by the files that still exist.
"""

import pytest

from repro.core import LambdaFS, LambdaFSConfig
from repro.core.blocks import BlockManager
from repro.core.client import ClientConfig
from repro.core.messages import MetadataRequest, OpType
from repro.core.maintenance import BlockReport, DataNodeConfig
from repro.core.namenode import NameNodeConfig
from repro.datanode import DataNodeFleet, DataNodeFleetConfig
from repro.faas import FaaSConfig, platform
from repro.sim import Environment

STALE_AFTER_MS = 6_000.0


@pytest.fixture(autouse=True)
def fast_app_init(monkeypatch):
    """A 10 ms app init after each cold start."""
    monkeypatch.setattr(platform, "APP_INIT_MS", 10.0)


def make_fs(env, datanodes=4, deployments=1):
    fs = LambdaFS(env, LambdaFSConfig(
        num_deployments=deployments,
        faas=FaaSConfig(
            cluster_vcpus=16.0, vcpus_per_instance=4.0,
            cold_start_min_ms=50.0, cold_start_max_ms=80.0,
            idle_reclaim_ms=600_000.0,
        ),
        client=ClientConfig(replacement_probability=0.0),
        datanodes=DataNodeConfig(count=datanodes),
        namenode=NameNodeConfig(datanode_stale_after_ms=STALE_AFTER_MS),
    ))
    fs.format()
    fs.start()
    return fs


def run(env, generator):
    box = {}

    def proc(env):
        box["value"] = yield from generator

    env.run(until=env.process(proc(env)))
    return box["value"]


def namenode_of(fs, response):
    for instance in fs.all_instances():
        if instance.id == response.served_by:
            return instance.app
    raise AssertionError(f"no instance {response.served_by!r}")


def assert_fresh(namenode, view, racks=None):
    """``view`` equals placement computed from scratch now."""
    live = list(namenode._datanode_view)
    fresh = BlockManager()
    assert view["locations"] == live
    assert view["blocks"] == {
        block_id: fresh.place(block_id, live, racks)
        for block_id in view["inode"].block_ids
    }


def test_two_reads_share_one_view():
    env = Environment()
    fs = make_fs(env)
    client = fs.new_client()

    def scenario():
        yield from client.mkdirs("/d")
        yield from client.create_file("/d/f")
        yield env.timeout(4_000)
        first = yield from client.read_file("/d/f")
        second = yield from client.read_file("/d/f")
        return first, second

    first, second = run(env, scenario())
    assert first.ok and second.ok
    assert first.served_by == second.served_by
    assert second.value is first.value
    assert first.value["inode"].block_ids
    assert_fresh(namenode_of(fs, first), first.value)


def test_stale_row_refreshes_the_view():
    env = Environment()
    fs = make_fs(env)
    client = fs.new_client()

    def publish_once(txn):
        yield from txn.write(
            ("datanode", "dn9"), BlockReport("dn9", env.now, block_count=1)
        )

    def scenario():
        yield from client.mkdirs("/d")
        for index in range(8):
            yield from client.create_file(f"/d/f{index}")
        yield from client.read_file("/d/f0")  # first DataNode refresh
        yield from fs.store.run_transaction(publish_once)
        yield env.timeout(5_000)  # the next read refreshes; dn9 is fresh
        before = yield from client.read_file("/d/f0")
        yield env.timeout(STALE_AFTER_MS)  # dn9 never publishes again
        after = []
        for index in range(8):
            after.append((yield from client.read_file(f"/d/f{index}")))
        return before, after

    before, after = run(env, scenario())
    namenode = namenode_of(fs, before)
    assert "dn9" in before.value["locations"]
    assert after[0].value is not before.value
    for response in after:
        assert namenode_of(fs, response) is namenode
        assert "dn9" not in response.value["locations"]
        assert_fresh(namenode, response.value)


def test_set_permission_yields_the_new_inode():
    env = Environment()
    fs = make_fs(env)
    client = fs.new_client()

    def scenario():
        yield from client.mkdirs("/d")
        yield from client.create_file("/d/f")
        first = yield from client.read_file("/d/f")
        yield from client.set_permission("/d/f", 0o600)
        second = yield from client.read_file("/d/f")
        return first, second

    first, second = run(env, scenario())
    assert first.value["inode"].permission != 0o600
    assert second.value["inode"].permission == 0o600
    assert second.value["inode"].id == first.value["inode"].id
    assert_fresh(namenode_of(fs, second), second.value)


def test_memo_is_sized_by_live_files():
    env = Environment()
    fs = make_fs(env)
    client = fs.new_client()
    files = 40

    def scenario():
        yield from client.mkdirs("/d")
        yield from client.create_file("/d/keep")
        kept = yield from client.read_file("/d/keep")
        for index in range(files):
            path = f"/d/f{index}"
            yield from client.create_file(path)
            assert (yield from client.read_file(path)).ok
            assert (yield from client.delete(path)).ok
        return kept

    kept = run(env, scenario())
    # The one live file is the only one the fleet's memo may hold.
    assert len(fs.file_views) <= 1
    assert fs.file_views[kept.value["inode"].id] is kept.value


def two_deployment_namenodes(env):
    """A two-deployment fs with one warm NameNode in each."""
    fs = make_fs(env, deployments=2)
    run(env, fs.prewarm())
    namenodes = [instance.app for instance in fs.all_instances()]
    assert len({nn.deployment_name for nn in namenodes}) == 2
    return fs, namenodes


def wait(env, ms):
    yield env.timeout(ms)


def read_via(namenode, path):
    """READ_FILE served by ``namenode``, whichever deployment owns it."""
    env = namenode.fs.env
    request = MetadataRequest(
        OpType.READ_FILE, path, request_id=env.next_id("request"),
        client_id="test",
    )
    response = run(env, namenode.handle(request, "tcp"))
    assert response.ok, response.error
    return response.value


def test_namenodes_in_two_deployments_share_one_view():
    env = Environment()
    fs, (first, second) = two_deployment_namenodes(env)
    client = fs.new_client()

    def scenario():
        yield from client.mkdirs("/d")
        yield from client.create_file("/d/f")
        yield env.timeout(4_000)  # every DataNode has published

    run(env, scenario())
    one = read_via(first, "/d/f")
    two = read_via(second, "/d/f")
    assert first._datanode_view is second._datanode_view
    assert two is one
    assert_fresh(second, two)


def test_a_namenode_never_serves_another_datanode_view():
    env = Environment()
    fs, (first, second) = two_deployment_namenodes(env)
    client = fs.new_client()

    def publish_once(txn):
        yield from txn.write(
            ("datanode", "dn9"), BlockReport("dn9", env.now, block_count=1)
        )

    def scenario():
        yield from client.mkdirs("/d")
        yield from client.create_file("/d/f")
        yield from fs.store.run_transaction(publish_once)
        yield env.timeout(1_000)

    run(env, scenario())
    served = []

    def read(namenode):
        view = read_via(namenode, "/d/f")
        assert view["locations"] is namenode._datanode_view
        assert_fresh(namenode, view)
        served.append((namenode, view))

    read(first)  # refreshes with dn9
    run(env, wait(env, 3_000))
    read(second)  # refreshes with dn9 too: one shared view
    assert served[1][1] is served[0][1]
    # dn9 goes stale; only ``first`` is due a refresh on its next read.
    run(env, wait(env, 2_500))
    read(first)
    assert "dn9" not in first._datanode_view
    for namenode in (second, first, second, first):
        read(namenode)
    # Every read above ran with the two DataNode views apart.
    assert "dn9" in second._datanode_view


def _fleet_fs(env):
    fs = make_fs(env, datanodes=0)
    fleet = DataNodeFleet(env, DataNodeFleetConfig(), seed=0, store=fs.store)
    fs.datanode_fleet = fleet
    fleet.start()
    return fs, fleet


def test_fleet_reads_report_the_fleets_replicas():
    env = Environment()
    fs, fleet = _fleet_fs(env)
    client = fs.new_client()
    files = [f"/d/f{index}" for index in range(24)]
    checked = []

    def read_all():
        for path in files:
            response = yield from client.read_file(path)
            assert response.ok
            namenode = namenode_of(fs, response)
            if namenode._datanode_view != sorted(fleet.tracker.live()):
                continue
            for block_id, replicas in response.value["blocks"].items():
                assert replicas == fleet.placement(block_id)
                checked.append(block_id)
            racks = fleet.racks_map(namenode._datanode_view)
            assert_fresh(namenode, response.value, racks)

    def scenario():
        yield from client.mkdirs("/d")
        for path in files:
            yield from client.create_file(path)
        yield env.timeout(4_000)  # every DataNode has published
        yield from read_all()
        fleet.kill("dn4")
        yield env.timeout(2 * STALE_AFTER_MS)
        yield from read_all()

    run(env, scenario())
    assert len(checked) == 2 * len(files)
    assert "dn4" not in fleet.tracker.live()
