"""Tests for FaaS platform presets and fault injection."""

import pytest

from repro.faas import FaaSConfig, FaaSPlatform
from repro.chaos.faults import NameNodeKiller
from repro.faas.presets import aws_lambda, nuclio, openwhisk, preset
from repro.sim import Environment


def test_presets_have_distinct_envelopes():
    ow = openwhisk()
    nc = nuclio()
    al = aws_lambda()
    assert nc.cold_start_max_ms < ow.cold_start_max_ms
    assert al.idle_reclaim_ms < ow.idle_reclaim_ms
    assert nc.idle_reclaim_ms > ow.idle_reclaim_ms


def test_preset_lookup_and_overrides():
    config = preset("nuclio", concurrency_level=8)
    assert config.concurrency_level == 8
    assert config.cold_start_min_ms == 250.0
    with pytest.raises(ValueError):
        preset("knative")


def test_preset_preserves_base_fields():
    base = FaaSConfig(cluster_vcpus=99.0)
    config = openwhisk(base)
    assert config.cluster_vcpus == 99.0


class EchoApp:
    def __init__(self, instance):
        self.instance = instance

    def handle(self, request, via):
        yield from self.instance.compute(1.0)
        return request


def test_killer_terminates_round_robin():
    env = Environment()
    platform = FaaSPlatform(env, FaaSConfig(
        cold_start_min_ms=10.0, cold_start_max_ms=10.0, app_init_ms=0.0,
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
