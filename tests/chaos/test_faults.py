"""Fault catalog units: victim policies, the killer, config swaps."""

import random

import pytest

from repro.chaos import ChaosEngine, FaultSpec, Scenario
from repro.chaos.faults import NameNodeKiller, pick_victim
from repro.sim import Environment

pytestmark = pytest.mark.chaos


class FakeInstance:
    def __init__(self, id, provisioned_at_ms=0.0):
        self.id = id
        self.provisioned_at_ms = provisioned_at_ms
        self.state = "warm"
        self.terminated = []

    def terminate(self, reason=""):
        self.state = "dead"
        self.terminated.append(reason)


class FakeDeployment:
    def __init__(self, name, instances):
        self.name = name
        self.instances = instances

    def live_instances(self):
        return [i for i in self.instances if i.state != "dead"]


class FakePlatform:
    def __init__(self, deployments):
        self.deployments = {d.name: d for d in deployments}


def test_pick_victim_policies():
    rng = random.Random(0)
    a = FakeInstance("a", provisioned_at_ms=10.0)
    b = FakeInstance("b", provisioned_at_ms=30.0)
    c = FakeInstance("c", provisioned_at_ms=20.0)
    warm = [a, b, c]
    assert pick_victim(warm, "round_robin", rng) is a
    assert pick_victim(warm, "youngest", rng) is b
    assert pick_victim(warm, "random", rng) in warm
    with pytest.raises(ValueError):
        pick_victim(warm, "eldest", rng)


def test_killer_validates_arguments():
    env = Environment()
    platform = FakePlatform([])
    with pytest.raises(ValueError):
        NameNodeKiller(env, platform, interval_ms=0.0)
    with pytest.raises(ValueError):
        NameNodeKiller(env, platform, interval_ms=10.0, policy="eldest")


def test_killer_round_robin_rotates_deployments():
    env = Environment()
    platform = FakePlatform([
        FakeDeployment("A", [FakeInstance("a1"), FakeInstance("a2")]),
        FakeDeployment("B", [FakeInstance("b1")]),
    ])
    killer = NameNodeKiller(env, platform, interval_ms=100.0)
    killer.start()
    env.run(until=450.0)
    killer.stop()
    assert [(k.deployment, k.instance_id) for k in killer.kills] == [
        ("A", "a1"), ("B", "b1"), ("A", "a2"),  # B empty by round 4
    ]
    assert platform.deployments["A"].instances[0].terminated == ["fault"]


def test_killer_random_policy_is_seed_reproducible():
    def kills(seed):
        env = Environment()
        platform = FakePlatform([
            FakeDeployment("A", [FakeInstance(f"a{i}") for i in range(6)]),
        ])
        killer = NameNodeKiller(
            env, platform, interval_ms=50.0, policy="random", seed=seed
        )
        killer.start()
        env.run(until=260.0)
        return [k.instance_id for k in killer.kills]

    assert kills(1) == kills(1)
    assert len(kills(1)) == 5


def test_killer_stop_is_idempotent():
    env = Environment()
    killer = NameNodeKiller(env, FakePlatform([]), interval_ms=10.0)
    killer.start()
    killer.stop()
    killer.stop()
    env.run(until=50.0)
    assert killer.kills == []


# -- config-swap faults: swap on activate, restore on deactivate --------

def _run_window(env, engine, spec, during, t_mid=10.0, t_end=40.0):
    engine.start(Scenario("s", faults=(spec,)))
    env.run(until=t_mid)
    during()
    env.run(until=t_end)


def test_lock_storm_swaps_and_restores_lock_timeout():
    from repro.metastore import NdbStore

    env = Environment()
    store = NdbStore(env)
    engine = ChaosEngine(env, store=store)
    original = store.locks.default_timeout_ms

    def during():
        assert store.locks.default_timeout_ms == 5.0

    _run_window(env, engine, FaultSpec(
        "lock_storm", at_ms=5.0, duration_ms=20.0, params={"timeout_ms": 5.0},
    ), during)
    assert store.locks.default_timeout_ms == original


def test_ack_loss_disable_retry_swaps_coordinator_config():
    from repro.coordination import Coordinator

    env = Environment()
    coordinator = Coordinator(env)
    engine = ChaosEngine(env, coordinator=coordinator)
    original = coordinator.config

    def during():
        assert coordinator.config.ack_max_retries == 0

    _run_window(env, engine, FaultSpec(
        "ack_loss", at_ms=5.0, duration_ms=20.0,
        params={"p": 1.0, "disable_retry": True},
    ), during)
    assert coordinator.config == original


def test_watch_delay_multiplies_watch_latency():
    from repro.coordination import Coordinator

    env = Environment()
    coordinator = Coordinator(env)
    engine = ChaosEngine(env, coordinator=coordinator)
    original = coordinator.config.watch_ms

    def during():
        assert coordinator.config.watch_ms == pytest.approx(original * 20.0)

    _run_window(env, engine, FaultSpec(
        "watch_delay", at_ms=5.0, duration_ms=20.0, params={"factor": 20.0},
    ), during)
    assert coordinator.config.watch_ms == original


def test_cold_start_storm_and_capacity_crunch_swap_platform_config():
    from repro.faas import FaaSConfig, FaaSPlatform

    env = Environment()
    platform = FaaSPlatform(env, FaaSConfig(), rng=random.Random(0))
    engine = ChaosEngine(env, platform=platform)
    original = platform.config
    engine.start(Scenario("s", faults=(
        FaultSpec("cold_start_storm", at_ms=5.0, duration_ms=20.0,
                  params={"factor": 4.0}),
        FaultSpec("capacity_crunch", at_ms=5.0, duration_ms=20.0,
                  params={"fraction": 0.25}),
    )))
    env.run(until=10.0)
    assert platform.config.cold_start_min_ms == pytest.approx(
        original.cold_start_min_ms * 4.0
    )
    assert platform.config.cluster_vcpus == pytest.approx(
        original.cluster_vcpus * 0.25
    )
    env.run(until=40.0)
    assert platform.config.cold_start_min_ms == original.cold_start_min_ms
    assert platform.config.cluster_vcpus == original.cluster_vcpus


def _sample(env, engine, specs, read, times):
    """``read()`` at each of ``times`` while ``specs`` run."""
    engine.start(Scenario("s", faults=tuple(specs)))
    samples = []
    for t in times:
        env.run(until=t)
        samples.append(read())
    return samples


def test_staggered_capacity_crunches_hold_the_latest_override():
    from repro.faas import FaaSConfig, FaaSPlatform

    env = Environment()
    platform = FaaSPlatform(env, FaaSConfig(), rng=random.Random(0))
    original = platform.config.cluster_vcpus
    crunch = [
        FaultSpec("capacity_crunch", at_ms=at, duration_ms=clear - at,
                  params={"fraction": 0.5})
        for at, clear in ((5.0, 20.0), (10.0, 40.0))
    ]
    samples = _sample(
        env, ChaosEngine(env, platform=platform), crunch,
        lambda: platform.config.cluster_vcpus, (7.0, 15.0, 30.0, 50.0),
    )
    # Both overrides are half the original, not half of each other.
    assert samples == [original / 2] * 3 + [original]


def test_overlapping_lock_storms_hold_the_latest_active_override():
    from repro.metastore import NdbStore

    def storm(at, clear, timeout):
        return FaultSpec("lock_storm", at_ms=at, duration_ms=clear - at,
                         params={"timeout_ms": timeout})

    times = (7.0, 15.0, 30.0, 50.0)
    for specs, expected in (
        # Staggered: the later storm's override outlives the earlier.
        ((storm(5.0, 20.0, 5.0), storm(10.0, 40.0, 7.0)), [5.0, 7.0, 7.0]),
        # Nested: once the later storm clears, the earlier one's holds.
        ((storm(5.0, 40.0, 5.0), storm(10.0, 20.0, 7.0)), [5.0, 7.0, 5.0]),
    ):
        env = Environment()
        store = NdbStore(env)
        samples = _sample(
            env, ChaosEngine(env, store=store), specs,
            lambda: store.locks.default_timeout_ms, times,
        )
        assert samples == expected + [2_000.0]


def test_tcp_sever_closes_connections_and_logs_count():
    class FakeConnection:
        def __init__(self):
            self.alive = True

        def close(self):
            self.alive = False

    instance = FakeInstance("a1")
    instance._connections = [FakeConnection(), FakeConnection()]
    platform = FakePlatform([FakeDeployment("A", [instance])])
    env = Environment()
    engine = ChaosEngine(env, platform=platform)
    engine.start(Scenario("s", faults=(
        FaultSpec("tcp_sever", at_ms=5.0),
    )))
    env.run(until=10.0)
    assert instance._connections == []
    injects = [e for e in engine.log if e.action == "inject"]
    assert dict(injects[0].detail)["closed"] == 2
