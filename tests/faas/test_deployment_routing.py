"""Unit tests for deployment-level instance selection."""

import random

import pytest

from repro.faas import FaaSConfig, FaaSPlatform
from repro.faas import platform as faas_platform
from repro.sim import Environment


class NullApp:
    def __init__(self, instance):
        self.instance = instance

    def handle(self, request, via):
        yield from self.instance.compute(1.0)
        return request


@pytest.fixture(autouse=True)
def instant_app_init(monkeypatch):
    """No app init after a cold start's boot."""
    monkeypatch.setattr(faas_platform, "APP_INIT_MS", 0.0)


def make(env, concurrency=2):
    platform = FaaSPlatform(env, FaaSConfig(
        concurrency_level=concurrency,
        cold_start_min_ms=5.0, cold_start_max_ms=5.0,
    ), rng=random.Random(0))
    deployment = platform.register_deployment("D", NullApp)
    return platform, deployment


def warm_instances(env, platform, deployment, count):
    instances = [platform.provision(deployment) for _ in range(count)]
    env.run(until=20)
    return instances


def test_pick_available_prefers_least_loaded():
    env = Environment()
    platform, deployment = make(env)
    a, b = warm_instances(env, platform, deployment, 2)
    a.http_in_flight = 1
    assert deployment.pick_available() is b


def test_pick_available_none_when_all_at_limit():
    env = Environment()
    platform, deployment = make(env, concurrency=1)
    a, b = warm_instances(env, platform, deployment, 2)
    a.http_in_flight = 1
    b.http_in_flight = 1
    assert deployment.pick_available() is None
    assert deployment.least_loaded() in (a, b)


def test_least_loaded_empty_deployment():
    env = Environment()
    _platform, deployment = make(env)
    assert deployment.least_loaded() is None
    assert deployment.pick_available() is None


def test_instance_gone_removes_and_notifies():
    env = Environment()
    platform, deployment = make(env)
    (instance,) = warm_instances(env, platform, deployment, 1)
    waited = []

    def waiter(env):
        yield deployment.change_event()
        waited.append(env.now)

    def killer(env):
        yield env.timeout(5)
        instance.terminate()

    env.process(waiter(env))
    env.process(killer(env))
    env.run()
    assert deployment.live_count() == 0
    assert waited == [25.0]  # parked invocations get woken


def test_used_vcpus_tracks_live_instances():
    env = Environment()
    platform, deployment = make(env)
    warm_instances(env, platform, deployment, 2)
    assert platform.used_vcpus() == 2 * platform.config.vcpus_per_instance
    deployment.live_instances()[0].terminate()
    assert platform.used_vcpus() == platform.config.vcpus_per_instance
