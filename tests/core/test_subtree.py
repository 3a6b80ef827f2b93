"""Unit tests for the subtree protocol (Appendix D)."""

import pytest

from repro.core import LambdaFS, LambdaFSConfig, OpType, subtree
from repro.core.subtree import SubtreeConfig
from repro.faas import FaaSConfig, platform
from repro.namespace.treegen import flat_directory
from repro.sim import Environment


@pytest.fixture(autouse=True)
def small_cluster(monkeypatch):
    """A 5 ms app init, and subtree ops offload to at most 4 helpers."""
    monkeypatch.setattr(platform, "APP_INIT_MS", 5.0)
    monkeypatch.setattr(subtree, "MAX_HELPERS", 4)


def make_fs(env, batch_size=64, offload=True):
    config = LambdaFSConfig(
        num_deployments=4,
        faas=FaaSConfig(
            cluster_vcpus=128.0, vcpus_per_instance=4.0,
            cold_start_min_ms=20.0, cold_start_max_ms=30.0,
        ),
        subtree=SubtreeConfig(batch_size=batch_size, offload_enabled=offload),
    )
    fs = LambdaFS(env, config)
    fs.format()
    fs.start()
    return fs


def drive(env, gen):
    box = {}

    def proc(env):
        box["v"] = yield from gen

    done = env.process(proc(env))
    env.run(until=done)
    return box["v"]


def setup_tree(fs, files=200):
    tree = flat_directory("/big", files)
    fs.install_namespace(tree.directories, tree.files)
    return tree


def test_subtree_delete_removes_all_rows():
    env = Environment()
    fs = make_fs(env)
    setup_tree(fs, files=150)
    client = fs.new_client()

    def scenario(env):
        r = yield from client.execute(OpType.DELETE, "/big", recursive=True)
        assert r.ok, r.error
        return (yield from client.stat("/big/f42"))

    gone = drive(env, scenario(env))
    assert not gone.ok
    # Every inode and dirent row of the subtree is gone.
    assert fs.store.keys_with_prefix(("dirent", 2)) == []


def test_subtree_mv_uses_offloading():
    env = Environment()
    fs = make_fs(env, batch_size=32)
    setup_tree(fs, files=200)
    client = fs.new_client()

    def scenario(env):
        return (yield from client.mv("/big", "/moved"))

    response = drive(env, scenario(env))
    assert response.ok
    # 200 actions / 32 per batch = 7 batches; at least some were
    # offloaded to helper deployments over HTTP.
    helper_instances = [
        instance
        for name, deployment in fs.platform.deployments.items()
        for instance in deployment.all_instances
        if instance.requests_served > 0
    ]
    assert len({i.deployment_name for i in helper_instances}) >= 2


def test_subtree_without_offload_stays_local():
    env = Environment()
    fs = make_fs(env, batch_size=32, offload=False)
    setup_tree(fs, files=100)
    client = fs.new_client()
    response = drive(env, client.mv("/big", "/moved"))
    assert response.ok
    served = {
        instance.deployment_name
        for deployment in fs.platform.deployments.values()
        for instance in deployment.all_instances
        if instance.requests_served > 0
    }
    assert len(served) == 1  # only the leader's deployment worked


def test_subtree_prefix_invalidation_reaches_caches():
    env = Environment()
    fs = make_fs(env)
    setup_tree(fs, files=60)
    client_a = fs.new_client()
    client_b = fs.new_client(fs.new_vm())

    def scenario(env):
        r1 = yield from client_b.stat("/big/f10")  # cache it on b's NN
        assert r1.ok
        r = yield from client_a.execute(OpType.DELETE, "/big", recursive=True)
        assert r.ok, r.error
        return (yield from client_b.stat("/big/f10"))

    stale = drive(env, scenario(env))
    assert not stale.ok


def test_subtree_isolation_flag():
    env = Environment()
    fs = make_fs(env)
    setup_tree(fs, files=500)
    client_a = fs.new_client()
    client_b = fs.new_client(fs.new_vm())
    results = []

    def op_a(env):
        results.append((yield from client_a.mv("/big", "/m1")))

    def op_b(env):
        yield env.timeout(5.0)  # overlap with a's subtree op
        results.append((yield from client_b.mv("/big", "/m2")))

    pa = env.process(op_a(env))
    pb = env.process(op_b(env))
    env.run(until=pa)
    if pb.is_alive:
        env.run(until=pb)
    oks = [r.ok for r in results]
    # Exactly one mv wins: the other sees the subtree lock / missing
    # source and fails cleanly — never a half-moved tree.
    assert oks.count(True) == 1
    assert fs.store.peek(("st_lock", 2)) in (None,)


def test_subtree_on_missing_dir_fails_cleanly():
    env = Environment()
    fs = make_fs(env)
    client = fs.new_client()
    response = drive(
        env, client.execute(OpType.DELETE, "/nothing", recursive=True))
    assert not response.ok


def test_mkdir_during_subtree_delete_is_serializable():
    env = Environment()
    fs = make_fs(env)
    setup_tree(fs, files=100)
    client = fs.new_client()

    def scenario(env):
        r = yield from client.execute(OpType.DELETE, "/big", recursive=True)
        assert r.ok
        # Recreating afterwards works from a clean slate.
        r = yield from client.mkdirs("/big/new")
        assert r.ok
        return (yield from client.ls("/big"))

    listing = drive(env, scenario(env))
    assert listing.ok and listing.value == ["new"]
