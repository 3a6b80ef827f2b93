"""Unit tests for the FaaS platform."""

import random

import pytest

from repro.faas import FaaSConfig, FaaSPlatform
from repro.faas import platform as faas_platform
from repro.sim import Environment


@pytest.fixture(autouse=True)
def fast_platform(monkeypatch):
    """A 10 ms app init and a 100 ms reclaim sweep."""
    monkeypatch.setattr(faas_platform, "APP_INIT_MS", 10.0)
    monkeypatch.setattr(faas_platform, "RECLAIM_SWEEP_MS", 100.0)


class EchoApp:
    """Trivial application: fixed service time, echoes requests."""

    def __init__(self, instance, service_ms=2.0):
        self.instance = instance
        self.service_ms = service_ms
        self.started = False
        self.terminated = False

    def on_start(self):
        self.started = True
        return None

    def on_terminate(self):
        self.terminated = True

    def handle(self, request, via):
        yield from self.instance.compute(self.service_ms)
        return ("echo", request, via)


def make_platform(env, **overrides):
    defaults = dict(
        cluster_vcpus=64.0,
        vcpus_per_instance=8.0,
        concurrency_level=2,
        cold_start_min_ms=100.0,
        cold_start_max_ms=100.0,
        idle_reclaim_ms=1_000.0,
    )
    defaults.update(overrides)
    platform = FaaSPlatform(env, FaaSConfig(**defaults), rng=random.Random(0))
    return platform


def test_invoke_cold_starts_first_instance():
    env = Environment()
    platform = make_platform(env)
    deployment = platform.register_deployment("NN0", EchoApp)
    results = []

    def client(env):
        response, instance = yield from platform.invoke("NN0", "r1")
        results.append((env.now, response, instance.id))

    env.process(client(env))
    env.run()
    # 100 boot + 10 init + 2 service = 112 ms.
    assert results[0][0] == pytest.approx(112.0)
    assert results[0][1] == ("echo", "r1", "http")
    assert deployment.live_count() == 1
    assert platform.cold_starts == 1


def test_warm_instance_reused():
    env = Environment()
    platform = make_platform(env)
    platform.register_deployment("NN0", EchoApp)
    times = []

    def client(env):
        yield from platform.invoke("NN0", "r1")
        start = env.now
        yield from platform.invoke("NN0", "r2")
        times.append(env.now - start)

    env.process(client(env))
    env.run()
    assert times[0] == pytest.approx(2.0)  # warm path: service only
    assert platform.cold_starts == 1


def test_concurrency_level_triggers_scale_out():
    env = Environment()
    platform = make_platform(env, concurrency_level=1)
    deployment = platform.register_deployment("NN0", EchoApp)

    def client(env, delay):
        yield env.timeout(delay)
        yield from platform.invoke("NN0", "r")

    # Both in flight at once with ConcurrencyLevel=1 => 2 instances.
    env.process(client(env, 0))
    env.process(client(env, 1))
    env.run()
    assert len(deployment.all_instances) == 2


def test_vcpu_cap_blocks_provisioning():
    env = Environment()
    platform = make_platform(env, cluster_vcpus=8.0, concurrency_level=1)
    deployment = platform.register_deployment("NN0", EchoApp)

    def client(env, delay):
        yield env.timeout(delay)
        yield from platform.invoke("NN0", "r")

    env.process(client(env, 0))
    env.process(client(env, 1))
    env.run()
    # Cap allows a single 8-vCPU instance; second request overloads it.
    assert len(deployment.all_instances) == 1


def test_max_instances_per_deployment():
    env = Environment()
    platform = make_platform(env, concurrency_level=1,
                             max_instances_per_deployment=1)
    deployment = platform.register_deployment("NN0", EchoApp)

    def client(env, delay):
        yield env.timeout(delay)
        yield from platform.invoke("NN0", "r")

    for delay in (0, 1, 2):
        env.process(client(env, delay))
    env.run()
    assert len(deployment.all_instances) == 1


def test_idle_reclaim_scales_in(monkeypatch):
    monkeypatch.setattr(faas_platform, "RECLAIM_SWEEP_MS", 50.0)
    env = Environment()
    platform = make_platform(env, idle_reclaim_ms=500.0)
    deployment = platform.register_deployment("NN0", EchoApp)
    platform.start()

    def client(env):
        yield from platform.invoke("NN0", "r")

    env.process(client(env))
    env.run(until=5_000)
    assert deployment.live_count() == 0
    app = deployment.all_instances[0].app
    assert app.terminated


def test_eviction_frees_capacity_for_other_deployment():
    env = Environment()
    platform = make_platform(env, cluster_vcpus=8.0, allow_eviction=True)
    d_a = platform.register_deployment("A", EchoApp)
    d_b = platform.register_deployment("B", EchoApp)
    results = []

    def client_a(env):
        yield from platform.invoke("A", "ra")

    def client_b(env):
        yield env.timeout(700)  # A has been idle past the eviction guard
        response, _ = yield from platform.invoke("B", "rb")
        results.append(response)

    env.process(client_a(env))
    env.process(client_b(env))
    env.run()
    assert results == [("echo", "rb", "http")]
    assert platform.evictions == 1
    assert d_a.live_count() == 0
    assert d_b.live_count() == 1


def test_no_eviction_when_disabled():
    env = Environment()
    platform = make_platform(env, cluster_vcpus=8.0, allow_eviction=False,
                             concurrency_level=4)
    platform.register_deployment("A", EchoApp)
    d_b = platform.register_deployment("B", EchoApp)
    finished = []

    def client_a(env):
        yield from platform.invoke("A", "ra")

    def client_b(env):
        yield env.timeout(500)
        yield from platform.invoke("B", "rb")
        finished.append(env.now)

    env.process(client_a(env))
    env.process(client_b(env))
    env.run(until=2_000)
    # B has no instance and no capacity: the invocation parks forever.
    assert finished == []
    assert d_b.live_count() == 0


def test_terminate_mid_request_raises():
    env = Environment()
    platform = make_platform(env)
    deployment = platform.register_deployment("NN0", EchoApp)
    errors = []

    def client(env):
        try:
            yield from platform.invoke("NN0", "r")
        except Exception as exc:  # noqa: BLE001
            errors.append(type(exc).__name__)

    def killer(env):
        yield env.timeout(111)  # after warm, during the 2 ms service
        deployment.instances[0].terminate(reason="fault")

    env.process(client(env))
    env.process(killer(env))
    env.run()
    assert errors == ["InstanceTerminated"]


def test_billing_busy_time_tracked():
    env = Environment()
    platform = make_platform(env)
    deployment = platform.register_deployment("NN0", EchoApp)

    def client(env):
        yield from platform.invoke("NN0", "r1")
        yield env.timeout(100)
        yield from platform.invoke("NN0", "r2")

    env.process(client(env))
    env.run()
    instance = deployment.all_instances[0]
    # Two 2 ms requests; the idle gap must not be billed busy.
    assert instance.busy_ms == pytest.approx(4.0)
    assert instance.requests_served == 2


def test_scale_events_recorded(monkeypatch):
    monkeypatch.setattr(faas_platform, "RECLAIM_SWEEP_MS", 50.0)
    env = Environment()
    platform = make_platform(env, idle_reclaim_ms=200.0)
    platform.register_deployment("NN0", EchoApp)
    platform.start()

    def client(env):
        yield from platform.invoke("NN0", "r")

    env.process(client(env))
    env.run(until=2_000)
    kinds = [event.kind for event in platform.scale_events]
    assert kinds == ["provision", "terminate"]


def test_duplicate_deployment_rejected():
    env = Environment()
    platform = make_platform(env)
    platform.register_deployment("NN0", EchoApp)
    with pytest.raises(ValueError):
        platform.register_deployment("NN0", EchoApp)
