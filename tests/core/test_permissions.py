"""Permission enforcement and the set_permission operation."""

import pytest

from repro.core import LambdaFS, LambdaFSConfig
from repro.faas import FaaSConfig, platform
from repro.sim import Environment


@pytest.fixture(autouse=True)
def fast_app_init(monkeypatch):
    """A 5 ms app init after each cold start."""
    monkeypatch.setattr(platform, "APP_INIT_MS", 5.0)


@pytest.fixture()
def system():
    env = Environment()
    fs = LambdaFS(env, LambdaFSConfig(
        num_deployments=2,
        faas=FaaSConfig(
            cluster_vcpus=32.0, vcpus_per_instance=4.0,
            cold_start_min_ms=20.0, cold_start_max_ms=30.0,
        ),
    ))
    fs.format()
    fs.start()
    return env, fs


def drive(env, gen):
    box = {}

    def proc(env):
        box["v"] = yield from gen

    done = env.process(proc(env))
    env.run(until=done)
    return box["v"]


def setup_file(env, client):
    def scenario(env):
        yield from client.mkdirs("/d")
        yield from client.create_file("/d/f")

    drive(env, scenario(env))


def test_set_permission_roundtrip(system):
    env, fs = system
    client = fs.new_client()
    setup_file(env, client)

    def scenario(env):
        r = yield from client.set_permission("/d/f", 0o600)
        assert r.ok, r.error
        return (yield from client.stat("/d/f"))

    response = drive(env, scenario(env))
    assert response.ok
    assert response.value.permission == 0o600


def test_unreadable_file_denied(system):
    env, fs = system
    client = fs.new_client()
    setup_file(env, client)

    def scenario(env):
        yield from client.set_permission("/d/f", 0o200)  # write-only
        return (yield from client.read_file("/d/f"))

    response = drive(env, scenario(env))
    assert not response.ok and "AccessDenied" in response.error


def test_non_traversable_directory_denied(system):
    env, fs = system
    client = fs.new_client()
    setup_file(env, client)

    def scenario(env):
        r = yield from client.set_permission("/d", 0o600)  # no execute bit
        assert r.ok, r.error
        return (yield from client.stat("/d/f"))

    response = drive(env, scenario(env))
    assert not response.ok and "AccessDenied" in response.error


def test_read_only_directory_rejects_create(system):
    env, fs = system
    client = fs.new_client()
    setup_file(env, client)

    def scenario(env):
        yield from client.set_permission("/d", 0o555)
        return (yield from client.create_file("/d/new"))

    response = drive(env, scenario(env))
    assert not response.ok and "AccessDenied" in response.error


def test_permission_change_invalidates_other_caches(system):
    env, fs = system
    client_a = fs.new_client()
    client_b = fs.new_client(fs.new_vm())
    setup_file(env, client_a)

    def scenario(env):
        warm = yield from client_b.stat("/d/f")  # b caches mode 755
        assert warm.ok
        r = yield from client_a.set_permission("/d/f", 0o000)
        assert r.ok, r.error
        # b's cached copy must have been invalidated: the read is
        # denied, not served stale from cache.
        return (yield from client_b.read_file("/d/f"))

    response = drive(env, scenario(env))
    assert not response.ok and "AccessDenied" in response.error


def test_invalid_mode_rejected(system):
    env, fs = system
    client = fs.new_client()
    setup_file(env, client)
    response = drive(env, client.set_permission("/d/f", 0o7777))
    assert not response.ok and "AccessDenied" in response.error


def test_restore_permission_restores_access(system):
    env, fs = system
    client = fs.new_client()
    setup_file(env, client)

    def scenario(env):
        yield from client.set_permission("/d/f", 0o000)
        yield from client.set_permission("/d/f", 0o644)
        return (yield from client.read_file("/d/f"))

    response = drive(env, scenario(env))
    assert response.ok


def test_hopsfs_supports_set_permission(monkeypatch):
    from repro.baselines import HopsFSCluster, HopsFSConfig
    from repro.metastore import ndb

    monkeypatch.setattr(ndb, "RTT_MS", 0.1)
    env = Environment()
    cluster = HopsFSCluster(env, HopsFSConfig(num_namenodes=2))
    cluster.format()
    client = cluster.new_client()

    def scenario(env):
        yield from client.mkdirs("/d")
        yield from client.create_file("/d/f")
        r = yield from client.set_permission("/d/f", 0o400)
        assert r.ok, r.error
        return (yield from client.stat("/d/f"))

    box = {}

    def proc(env):
        box["v"] = yield from scenario(env)

    done = env.process(proc(env))
    env.run(until=done)
    assert box["v"].value.permission == 0o400
