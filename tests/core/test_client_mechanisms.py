"""Unit tests for client-side mechanisms: replacement, stragglers,
anti-thrashing, retry fallback."""

import pytest

from repro.core import LambdaFS, LambdaFSConfig
from repro.core import client as client_module
from repro.core.client import ClientConfig
from repro.faas import FaaSConfig, platform
from repro.sim import Environment


@pytest.fixture
def make_fs(monkeypatch):
    """Build a small λFS with a 5 ms app init: UPPER_CASE overrides
    patch ``repro.core.client``'s constants, the rest are
    ``ClientConfig`` fields."""
    monkeypatch.setattr(platform, "APP_INIT_MS", 5.0)

    def build(env, **overrides):
        for name in [name for name in overrides if name.isupper()]:
            monkeypatch.setattr(client_module, name, overrides.pop(name))
        config = LambdaFSConfig(
            num_deployments=2,
            faas=FaaSConfig(
                cluster_vcpus=64.0, vcpus_per_instance=4.0,
                cold_start_min_ms=20.0, cold_start_max_ms=30.0,
            ),
            client=ClientConfig(**overrides),
        )
        fs = LambdaFS(env, config)
        fs.format()
        fs.start()
        return fs
    return build


def drive(env, gen):
    box = {}

    def proc(env):
        box["v"] = yield from gen

    done = env.process(proc(env))
    env.run(until=done)
    return box["v"]


def warm(env, fs, client):
    def setup(env):
        yield from fs.prewarm(1)
        yield from client.mkdirs("/d")
        yield from client.create_file("/d/f")

    drive(env, setup(env))


def test_replacement_probability_one_forces_http(make_fs):
    env = Environment()
    fs = make_fs(env, replacement_probability=1.0)
    client = fs.new_client()
    warm(env, fs, client)

    def reads(env):
        for _ in range(10):
            yield from client.stat("/d/f")

    drive(env, reads(env))
    assert client.stats_tcp_rpcs == 0


def test_replacement_probability_zero_prefers_tcp(make_fs):
    env = Environment()
    fs = make_fs(env, replacement_probability=0.0)
    client = fs.new_client()
    warm(env, fs, client)
    before_http = client.stats_http_rpcs

    def reads(env):
        for _ in range(10):
            yield from client.stat("/d/f")

    drive(env, reads(env))
    assert client.stats_http_rpcs == before_http  # all TCP
    assert client.stats_tcp_rpcs >= 10


def test_moving_average_updates(make_fs):
    env = Environment()
    fs = make_fs(env)
    client = fs.new_client()
    assert client._moving_average() == 0.0
    client._observe(2.0)
    client._observe(4.0)
    assert client._moving_average() == pytest.approx(3.0)


def test_latency_window_is_bounded(make_fs):
    env = Environment()
    fs = make_fs(env, LATENCY_WINDOW=4)
    client = fs.new_client()
    for value in (100.0,) * 4:
        client._observe(value)
    for value in (1.0,) * 4:
        client._observe(value)
    assert client._moving_average() == pytest.approx(1.0)


def test_antithrash_triggers_on_latency_spike(make_fs):
    env = Environment()
    fs = make_fs(env, ANTITHRASH_THRESHOLD=2.0, ANTITHRASH_COOLDOWN_MS=500.0)
    client = fs.new_client()
    for _ in range(8):
        client._observe(1.0)
    assert not client._antithrash_active()
    client._observe(10.0)  # 10x the moving average
    assert client._antithrash_active()


def test_antithrash_cooldown_expires(make_fs):
    env = Environment()
    fs = make_fs(env, ANTITHRASH_THRESHOLD=2.0, ANTITHRASH_COOLDOWN_MS=100.0)
    client = fs.new_client()
    for _ in range(4):
        client._observe(1.0)
    client._observe(50.0)
    assert client._antithrash_active()

    def wait(env):
        yield env.timeout(200.0)

    drive(env, wait(env))
    assert not client._antithrash_active()


def test_antithrash_disabled_never_triggers(make_fs):
    env = Environment()
    fs = make_fs(env, antithrash_enabled=False)
    client = fs.new_client()
    for _ in range(4):
        client._observe(1.0)
    client._observe(1_000.0)
    assert not client._antithrash_active()


def test_antithrash_mode_suppresses_replacement(make_fs):
    env = Environment()
    fs = make_fs(env, replacement_probability=1.0, ANTITHRASH_THRESHOLD=2.0)
    client = fs.new_client()
    warm(env, fs, client)
    # Force anti-thrash mode, then issue reads: despite p=1.0, TCP
    # must be used because the mode suppresses HTTP invocations.
    for _ in range(4):
        client._observe(1.0)
    client._observe(100.0)
    assert client._antithrash_active()
    tcp_before = client.stats_tcp_rpcs

    def reads(env):
        for _ in range(5):
            yield from client.stat("/d/f")

    drive(env, reads(env))
    assert client.stats_tcp_rpcs == tcp_before + 5


def test_straggler_resubmits_slow_request(make_fs):
    env = Environment()
    fs = make_fs(env, STRAGGLER_FLOOR_MS=10.0, STRAGGLER_THRESHOLD=2.0)
    client = fs.new_client()
    warm(env, fs, client)

    # Stall the only instance's CPU so the next TCP request exceeds
    # the straggler threshold and is abandoned + resubmitted.
    deployment = fs.platform.deployments[fs.partitioner.deployment_for("/d/f")]
    instance = deployment.live_instances()[0]

    def hog(env):
        with instance.cpu.request() as slot:
            yield slot
            # occupy one of 4 slots fully; then grab them all
            yield env.timeout(500)

    for _ in range(instance.cpu.capacity):
        env.process(hog(env))

    def read(env):
        return (yield from client.stat("/d/f"))

    response = drive(env, read(env))
    assert response.ok
    assert client.stats_stragglers >= 1


def test_straggler_disabled_waits(make_fs):
    env = Environment()
    fs = make_fs(env, straggler_enabled=False)
    client = fs.new_client()
    warm(env, fs, client)
    deployment = fs.platform.deployments[fs.partitioner.deployment_for("/d/f")]
    instance = deployment.live_instances()[0]

    def hog(env):
        with instance.cpu.request() as slot:
            yield slot
            yield env.timeout(300)

    for _ in range(instance.cpu.capacity):
        env.process(hog(env))

    def read(env):
        return (yield from client.stat("/d/f"))

    start = env.now
    response = drive(env, read(env))
    assert response.ok
    assert client.stats_stragglers == 0
    assert env.now - start >= 290  # waited out the stall


def test_http_fallback_when_no_connections(make_fs):
    env = Environment()
    fs = make_fs(env, replacement_probability=0.0)
    client = fs.new_client()
    # No connections exist yet: the very first op must go HTTP.
    response = drive(env, client.mkdirs("/d"))
    assert response.ok
    assert client.stats_http_rpcs == 1
