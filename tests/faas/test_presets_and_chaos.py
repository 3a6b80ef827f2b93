"""Tests for FaaS fault injection: the NameNode killer."""

import pytest

from repro.faas import FaaSConfig, FaaSPlatform
from repro.faas import platform as faas_platform
from repro.chaos.faults import NameNodeKiller
from repro.sim import Environment


class EchoApp:
    def __init__(self, instance):
        self.instance = instance

    def handle(self, request, via):
        yield from self.instance.compute(1.0)
        return request


def test_killer_terminates_round_robin(monkeypatch):
    monkeypatch.setattr(faas_platform, "APP_INIT_MS", 0.0)
    env = Environment()
    platform = FaaSPlatform(env, FaaSConfig(
        cold_start_min_ms=10.0, cold_start_max_ms=10.0,
    ))
    for name in ("A", "B"):
        deployment = platform.register_deployment(name, EchoApp)
        platform.provision(deployment)
    env.run(until=50)  # instances warm

    killer = NameNodeKiller(env, platform, interval_ms=100.0)
    killer.start()
    env.run(until=450)
    killer.stop()

    assert len(killer.kills) == 2  # one instance per deployment existed
    assert {kill.deployment for kill in killer.kills} == {"A", "B"}
    assert platform.total_live_instances() == 0


def test_killer_skips_deployments_with_no_warm_instances():
    env = Environment()
    platform = FaaSPlatform(env, FaaSConfig())
    platform.register_deployment("empty", EchoApp)
    killer = NameNodeKiller(env, platform, interval_ms=50.0)
    killer.start()
    env.run(until=300)
    killer.stop()
    assert killer.kills == []


def test_killer_stop_is_idempotent():
    env = Environment()
    platform = FaaSPlatform(env, FaaSConfig())
    killer = NameNodeKiller(env, platform, interval_ms=50.0)
    killer.start()
    killer.stop()
    killer.stop()


def test_killer_rejects_bad_interval():
    env = Environment()
    platform = FaaSPlatform(env, FaaSConfig())
    with pytest.raises(ValueError):
        NameNodeKiller(env, platform, interval_ms=0.0)
