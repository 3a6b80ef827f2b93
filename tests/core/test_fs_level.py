"""Tests for the LambdaFS assembly object itself."""

import pytest

from repro.core import LambdaFS, LambdaFSConfig
from repro.faas import FaaSConfig, platform
from repro.sim import Environment


@pytest.fixture(autouse=True)
def fast_app_init(monkeypatch):
    """A 5 ms app init after each cold start."""
    monkeypatch.setattr(platform, "APP_INIT_MS", 5.0)


def quick_config(**overrides):
    defaults = dict(
        num_deployments=4,
        faas=FaaSConfig(
            cluster_vcpus=64.0, vcpus_per_instance=4.0,
            cold_start_min_ms=20.0, cold_start_max_ms=30.0,
        ),
    )
    defaults.update(overrides)
    return LambdaFSConfig(**defaults)


def drive(env, gen):
    done = env.process((lambda g: (yield from g))(gen))
    env.run(until=done)


def test_deployments_registered_at_construction():
    env = Environment()
    fs = LambdaFS(env, quick_config())
    assert sorted(fs.platform.deployments) == [
        "NameNode0", "NameNode1", "NameNode2", "NameNode3"
    ]


def test_prewarm_provisions_one_per_deployment():
    env = Environment()
    fs = LambdaFS(env, quick_config())
    fs.format()
    drive(env, fs.prewarm(1))
    assert fs.active_namenodes() == 4
    for deployment in fs.platform.deployments.values():
        assert deployment.live_count() == 1
        assert deployment.live_instances()[0].state == "warm"


def test_prewarm_respects_vcpu_cap():
    env = Environment()
    fs = LambdaFS(env, quick_config(faas=FaaSConfig(
        cluster_vcpus=8.0, vcpus_per_instance=4.0,
        cold_start_min_ms=20.0, cold_start_max_ms=30.0,
    )))
    fs.format()
    drive(env, fs.prewarm(4))
    assert fs.active_namenodes() == 2  # 8 vCPU / 4 per instance


def test_install_namespace_bulk():
    env = Environment()
    fs = LambdaFS(env, quick_config())
    fs.format()
    fs.install_namespace(["/a/b"], ["/a/b/f1", "/a/b/f2"])
    fs.start()
    client = fs.new_client()
    box = {}

    def main(env):
        box["r"] = yield from client.ls("/a/b")

    done = env.process(main(env))
    env.run(until=done)
    assert box["r"].value == ["f1", "f2"]


def test_costs_start_at_zero():
    env = Environment()
    fs = LambdaFS(env, quick_config())
    assert fs.cost_usd() == 0.0
    assert fs.simplified_cost_usd() == 0.0
    assert sum(i.requests_served for i in fs.all_instances()) == 0


def test_http_requests_billed_separately():
    env = Environment()
    fs = LambdaFS(env, quick_config())
    fs.format()
    fs.start()
    client = fs.new_client()

    def main(env):
        yield from client.mkdirs("/d")       # http (first contact)
        for _ in range(5):
            yield from client.stat("/d")     # tcp after connect-back

    drive(env, main(env))
    served = sum(i.requests_served for i in fs.all_instances())
    assert served >= 6
    assert fs.total_http_requests() < served


def test_seed_changes_latency_draws():
    env_a = Environment()
    fs_a = LambdaFS(env_a, quick_config(seed=1))
    env_b = Environment()
    fs_b = LambdaFS(env_b, quick_config(seed=2))
    draws_a = [fs_a.latency.http_oneway() for _ in range(5)]
    draws_b = [fs_b.latency.http_oneway() for _ in range(5)]
    assert draws_a != draws_b


def test_same_seed_reproduces():
    def run_once():
        env = Environment()
        fs = LambdaFS(env, quick_config(seed=5))
        fs.format()
        fs.start()
        client = fs.new_client()

        def main(env):
            yield from client.mkdirs("/x")
            yield from client.create_file("/x/f")
            yield from client.stat("/x/f")

        drive(env, main(env))
        return env.now, len(fs.metrics.records)

    assert run_once() == run_once()
