"""Unit tests for the CephFS-flavoured baseline."""

import pytest

from repro.baselines import CephFSCluster, CephFSConfig, cephfs
from repro.core import OpType
from repro.sim import Environment


def drive(env, gen):
    box = {}

    def proc(env):
        box["v"] = yield from gen

    done = env.process(proc(env))
    env.run(until=done)
    return box["v"]


@pytest.fixture()
def cluster():
    env = Environment()
    return env, CephFSCluster(env, CephFSConfig(num_mds=2))


def test_basic_lifecycle(cluster):
    env, c = cluster
    client = c.new_client()

    def scenario(env):
        r = yield from client.mkdirs("/a/b")
        assert r.ok
        r = yield from client.create_file("/a/b/f")
        assert r.ok
        r = yield from client.stat("/a/b/f")
        assert r.ok and r.value.name == "f"
        r = yield from client.ls("/a/b")
        assert r.ok and r.value == ["f"]
        return True

    assert drive(env, scenario(env))


def test_create_duplicate_fails(cluster):
    env, c = cluster
    client = c.new_client()

    def scenario(env):
        yield from client.create_file("/f")
        return (yield from client.create_file("/f"))

    response = drive(env, scenario(env))
    assert not response.ok and "AlreadyExists" in response.error


def test_delete_recursive(cluster):
    env, c = cluster
    c.install_namespace(["/t", "/t/sub"], ["/t/f", "/t/sub/g"])
    client = c.new_client()

    def scenario(env):
        r = yield from client.execute(OpType.DELETE, "/t", recursive=True)
        assert r.ok
        return (yield from client.stat("/t/sub/g"))

    gone = drive(env, scenario(env))
    assert not gone.ok


def test_delete_nonempty_without_recursive_fails(cluster):
    env, c = cluster
    c.install_namespace(["/t"], ["/t/f"])
    client = c.new_client()
    response = drive(env, client.delete("/t"))
    assert not response.ok and "NotDirEmpty" in response.error


def test_mv_renames_subtree(cluster):
    env, c = cluster
    c.install_namespace(["/old/deep"], ["/old/deep/f"])
    client = c.new_client()

    def scenario(env):
        r = yield from client.mv("/old", "/new")
        assert r.ok, r.error
        return (yield from client.stat("/new/deep/f"))

    moved = drive(env, scenario(env))
    assert moved.ok


def test_reads_are_fast_in_memory(cluster):
    env, c = cluster
    c.install_namespace([], ["/f"])
    client = c.new_client()
    drive(env, client.stat("/f"))
    # tcp 2x0.22 + dispatch 0.04 + cpu 0.10 < 1 ms — no store hop.
    assert c.metrics.average_latency() < 1.0


def test_writes_pay_journal(cluster):
    env, c = cluster
    client = c.new_client()
    drive(env, client.create_file("/f"))
    write_latency = c.metrics.average_latency()
    assert write_latency > 0.5  # dispatch + cpu + journal


def test_mds_partitioning_by_parent(cluster):
    _env, c = cluster
    assert c.mds_for("/dir/a") is c.mds_for("/dir/b")


def test_install_namespace_builds_parents(cluster):
    env, c = cluster
    c.install_namespace([], ["/x/y/z/file"])
    client = c.new_client()
    response = drive(env, client.ls("/x/y/z"))
    assert response.ok and response.value == ["file"]


def test_dispatch_serializes_per_mds(monkeypatch):
    monkeypatch.setattr(cephfs, "DISPATCH_MS", 1.0)
    env = Environment()
    c = CephFSCluster(env, CephFSConfig(num_mds=1))
    c.install_namespace([], ["/d/f"])
    clients = [c.new_client() for _ in range(4)]
    finish = []

    def reader(env, client):
        yield from client.stat("/d/f")
        finish.append(env.now)

    for client in clients:
        env.process(reader(env, client))
    env.run()
    # Single dispatch thread at 1 ms: completions spread ~1 ms apart.
    assert max(finish) - min(finish) >= 2.5
