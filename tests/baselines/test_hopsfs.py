"""Unit/integration tests for the HopsFS baselines."""

import pytest

from repro.baselines import HopsFSCachedCluster, HopsFSCluster, HopsFSConfig, hopsfs
from repro.core import OpType
from repro.faas import platform
from repro.metastore import ndb
from repro.sim import Environment


@pytest.fixture(autouse=True)
def small_cluster_constants(monkeypatch):
    """16 RPC handlers per NameNode, a 0.1 ms store round trip, and a
    5 ms λFS app init."""
    monkeypatch.setattr(hopsfs, "RPC_HANDLERS", 16)
    monkeypatch.setattr(ndb, "RTT_MS", 0.1)
    monkeypatch.setattr(platform, "APP_INIT_MS", 5.0)


def small_config(**overrides):
    defaults = dict(num_namenodes=4, vcpus_per_namenode=4)
    defaults.update(overrides)
    return HopsFSConfig(**defaults)


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
    c = HopsFSCluster(env, small_config())
    c.format()
    return env, c


@pytest.fixture()
def cached_cluster():
    env = Environment()
    c = HopsFSCachedCluster(env, small_config())
    c.format()
    return env, c


def test_basic_lifecycle(cluster):
    env, c = cluster
    client = c.new_client()

    def scenario(env):
        r = yield from client.mkdirs("/d")
        assert r.ok
        r = yield from client.create_file("/d/f")
        assert r.ok
        r = yield from client.stat("/d/f")
        assert r.ok and r.value.name == "f"
        r = yield from client.ls("/d")
        assert r.ok and r.value == ["f"]
        r = yield from client.mv("/d/f", "/d/g")
        assert r.ok
        r = yield from client.delete("/d/g")
        assert r.ok
        return True

    assert drive(env, scenario(env))


def test_stateless_namenodes_never_hit_cache(cluster):
    env, c = cluster
    client = c.new_client()

    def scenario(env):
        yield from client.mkdirs("/d")
        yield from client.create_file("/d/f")
        responses = []
        for _ in range(5):
            responses.append((yield from client.stat("/d/f")))
        return responses

    responses = drive(env, scenario(env))
    assert all(not r.cache_hit for r in responses)


def test_cached_namenodes_hit_after_first_read(cached_cluster):
    env, c = cached_cluster
    client = c.new_client()

    def scenario(env):
        yield from client.mkdirs("/d")
        yield from client.create_file("/d/f")
        first = yield from client.stat("/d/f")
        second = yield from client.stat("/d/f")
        return first, second

    _first, second = drive(env, scenario(env))
    # Consistent-hash routing sends both stats to the same NameNode,
    # so the second is served from its cache.
    assert second.cache_hit


def test_cached_cluster_invalidates_peers(cached_cluster):
    env, c = cached_cluster
    client_a = c.new_client()
    client_b = c.new_client()

    def scenario(env):
        yield from client_a.mkdirs("/d")
        yield from client_a.create_file("/d/f")
        r1 = yield from client_b.stat("/d/f")
        assert r1.ok
        r2 = yield from client_a.mv("/d/f", "/d/g")
        assert r2.ok
        r3 = yield from client_b.stat("/d/f")
        r4 = yield from client_b.stat("/d/g")
        return r3, r4

    r3, r4 = drive(env, scenario(env))
    assert not r3.ok
    assert r4.ok


def test_consistent_hash_routing_is_stable(cached_cluster):
    env, c = cached_cluster
    client = c.new_client()
    nn1 = c.pick_namenode("/dir/a", client._rng)
    nn2 = c.pick_namenode("/dir/b", client._rng)
    assert nn1 is nn2  # same parent directory -> same NameNode


def test_vanilla_routing_spreads(cluster):
    env, c = cluster
    client = c.new_client()
    picks = {c.pick_namenode("/dir/a", client._rng).id for _ in range(50)}
    assert len(picks) > 1


def test_subtree_delete(cluster):
    env, c = cluster
    client = c.new_client()

    def scenario(env):
        yield from client.mkdirs("/top/sub")
        yield from client.create_file("/top/sub/f")
        r = yield from client.execute(OpType.DELETE, "/top", recursive=True)
        assert r.ok, r.error
        gone = yield from client.stat("/top/sub/f")
        return gone

    gone = drive(env, scenario(env))
    assert not gone.ok


def test_subtree_mv(cluster):
    env, c = cluster
    client = c.new_client()

    def scenario(env):
        yield from client.mkdirs("/old")
        for i in range(5):
            yield from client.create_file(f"/old/f{i}")
        r = yield from client.mv("/old", "/new")
        assert r.ok, r.error
        moved = yield from client.stat("/new/f3")
        return moved

    moved = drive(env, scenario(env))
    assert moved.ok


def test_cost_scales_with_cluster_and_time(cluster):
    _env, c = cluster
    one_second = c.cost_usd(1_000.0)
    two_seconds = c.cost_usd(2_000.0)
    assert two_seconds == pytest.approx(2 * one_second)
    assert one_second > 0


def test_cached_subtree_prefix_invalidation(cached_cluster):
    env, c = cached_cluster
    client = c.new_client()

    def scenario(env):
        yield from client.mkdirs("/top")
        yield from client.create_file("/top/f")
        r1 = yield from client.stat("/top/f")  # cache it somewhere
        assert r1.ok
        r = yield from client.execute(OpType.DELETE, "/top", recursive=True)
        assert r.ok, r.error
        r2 = yield from client.stat("/top/f")
        return r2

    r2 = drive(env, scenario(env))
    assert not r2.ok


def _lambdafs(env):
    from repro.core import LambdaFS, LambdaFSConfig
    from repro.faas import FaaSConfig

    fs = LambdaFS(env, LambdaFSConfig(
        num_deployments=2,
        faas=FaaSConfig(
            cluster_vcpus=32.0, vcpus_per_instance=4.0,
            cold_start_min_ms=20.0, cold_start_max_ms=30.0,
        ),
    ))
    fs.format()
    fs.start()
    return fs


SYSTEMS = pytest.mark.parametrize("build", [
    pytest.param(lambda env: HopsFSCluster(env, small_config()), id="hopsfs"),
    pytest.param(lambda env: HopsFSCachedCluster(env, small_config()), id="hopsfs-cache"),
    pytest.param(_lambdafs, id="lambdafs"),
])


def _denied_read(build, setup, read):
    """Run ``setup`` paths then ``set_permission /d 0o600`` and return
    ``read``'s response; a read that misses the cache resolves the
    path from the store and must enforce permissions as a hit does."""
    env = Environment()
    system = build(env)
    if isinstance(system, HopsFSCluster):
        system.format()
    client = system.new_client()

    def scenario(env):
        for step in setup:
            assert (yield from step(client)).ok
        assert (yield from client.set_permission("/d", 0o600)).ok
        return (yield from read(client))

    response = drive(env, scenario(env))
    assert not response.ok
    assert response.error.startswith("AccessDeniedError"), response.error
    assert not response.cache_hit


@SYSTEMS
def test_stat_under_an_untraversable_directory_is_denied(build):
    _denied_read(
        build,
        [lambda c: c.mkdirs("/d"), lambda c: c.create_file("/d/f")],
        lambda c: c.stat("/d/f"),
    )


@SYSTEMS
def test_ls_under_an_untraversable_directory_is_denied(build):
    _denied_read(
        build,
        [lambda c: c.mkdirs("/d/e"), lambda c: c.create_file("/d/e/f")],
        lambda c: c.ls("/d/e"),
    )
