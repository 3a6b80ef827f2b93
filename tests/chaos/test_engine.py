"""ChaosEngine: scheduling, injection queries, determinism."""

import pytest

from repro.chaos import ChaosEngine, FaultSpec, Scenario
from repro.sim import Environment

pytestmark = pytest.mark.chaos


def run_until(env, t):
    env.run(until=t)


def edges(engine):
    """The activate/deactivate edges of ``engine``'s fault log."""
    return [(e.kind, e.action) for e in engine.log if e.action != "inject"]


def test_schedule_activates_and_deactivates_on_the_sim_clock():
    env = Environment()
    engine = ChaosEngine(env)
    engine.start(Scenario("s", faults=(
        FaultSpec("tcp_drop", at_ms=10.0, duration_ms=20.0, params={"p": 1.0}),
    )))
    run_until(env, 5.0)
    assert edges(engine) == []
    assert not engine.tcp_should_drop("d0")
    run_until(env, 15.0)
    assert edges(engine) == [("tcp_drop", "activate")]
    assert engine.tcp_should_drop("d0")
    run_until(env, 35.0)
    assert edges(engine) == [("tcp_drop", "activate"),
                             ("tcp_drop", "deactivate")]
    assert not engine.tcp_should_drop("d0")


def test_scenario_times_are_relative_to_engine_start():
    env = Environment()
    engine = ChaosEngine(env)
    run_until(env, 50.0)
    engine.start(Scenario("s", faults=(
        FaultSpec("tcp_drop", at_ms=10.0, duration_ms=5.0, params={"p": 1.0}),
    )))
    assert engine.epoch == 50.0
    assert engine.first_fault_at_ms == 60.0
    assert engine.faults_clear_at_ms == 65.0
    run_until(env, 62.0)
    assert engine.tcp_should_drop(None)


def test_start_twice_raises_and_stop_deactivates():
    env = Environment()
    engine = ChaosEngine(env)
    engine.start(Scenario("s", faults=(
        FaultSpec("tcp_drop", at_ms=0.0, duration_ms=100.0,
                  params={"p": 1.0}),
    )))
    run_until(env, 1.0)
    with pytest.raises(RuntimeError):
        engine.start(Scenario("s2", faults=()))
    assert edges(engine) == [("tcp_drop", "activate")]
    engine.stop()
    assert [e.action for e in engine.log] == ["activate", "deactivate"]
    assert not engine.tcp_should_drop("d0")


def test_deployment_scoping_of_fabric_faults():
    env = Environment()
    engine = ChaosEngine(env)
    engine.start(Scenario("s", faults=(
        FaultSpec("tcp_drop", at_ms=0.0, duration_ms=10.0,
                  params={"p": 1.0, "deployment": "d1"}),
    )))
    run_until(env, 1.0)
    assert engine.tcp_should_drop("d1")
    assert not engine.tcp_should_drop("d2")


def test_tcp_delay_is_deterministic_without_jitter():
    env = Environment()
    engine = ChaosEngine(env)
    engine.start(Scenario("s", faults=(
        FaultSpec("tcp_delay", at_ms=0.0, duration_ms=10.0,
                  params={"extra_ms": 7.5}),
    )))
    run_until(env, 1.0)
    assert engine.tcp_extra_delay_ms("any") == 7.5
    assert engine.tcp_extra_delay_ms("any") == 7.5


def test_store_hold_and_factor():
    env = Environment()
    engine = ChaosEngine(env)
    engine.start(Scenario("s", faults=(
        FaultSpec("shard_outage", at_ms=0.0, duration_ms=30.0,
                  params={"shard": 0}),
        FaultSpec("store_slowdown", at_ms=0.0, duration_ms=30.0,
                  params={"factor": 3.0}),
    )))
    run_until(env, 10.0)
    assert engine.store_hold_ms(0) == pytest.approx(20.0)
    assert engine.store_hold_ms(1) == 0.0  # other shard unaffected
    assert engine.store_factor(0) == 3.0
    assert engine.store_factor(1) == 3.0  # no shard filter -> all
    run_until(env, 31.0)
    assert engine.store_hold_ms(0) == 0.0
    assert engine.store_factor(0) == 1.0


def test_gateway_effects_and_ack_drop():
    env = Environment()
    engine = ChaosEngine(env)
    engine.start(Scenario("s", faults=(
        FaultSpec("http_brownout", at_ms=0.0, duration_ms=10.0,
                  params={"extra_ms": 5.0, "fail_p": 1.0}),
        FaultSpec("ack_loss", at_ms=0.0, duration_ms=10.0,
                  params={"p": 1.0, "deployment": "d0"}),
    )))
    run_until(env, 1.0)
    extra, shed = engine.gateway_effects()
    assert extra == 5.0 and shed
    assert engine.ack_should_drop("d0", "nn1")
    assert not engine.ack_should_drop("d9", "nn1")
    injected = {(e.kind, e.action) for e in engine.log}
    assert ("http_brownout", "inject") in injected
    assert ("ack_loss", "inject") in injected


def _drive_queries(seed):
    """A fixed query schedule against a drop fault; returns the log."""
    env = Environment()
    engine = ChaosEngine(env, seed=seed)
    engine.start(Scenario("s", faults=(
        FaultSpec("tcp_drop", at_ms=0.0, duration_ms=200.0,
                  params={"p": 0.5}),
    )))

    def querier(env):
        for step in range(100):
            yield env.timeout(1.0)
            engine.tcp_should_drop(f"d{step % 4}")

    env.process(querier(env))
    env.run(until=150.0)
    return [str(event) for event in engine.log], engine.log_hash()


def test_same_seed_same_fault_log_hash():
    log_a, hash_a = _drive_queries(seed=7)
    log_b, hash_b = _drive_queries(seed=7)
    log_c, hash_c = _drive_queries(seed=8)
    assert log_a == log_b
    assert hash_a == hash_b
    assert hash_a != hash_c  # different seed, different coin flips


# -- chaos-disabled determinism regression ------------------------------

def _traced_workload(attach_engine):
    from dataclasses import replace

    from repro.core import LambdaFS, LambdaFSConfig
    from repro.core.client import ClientConfig
    from repro.faas import FaaSConfig
    from repro.trace import install_tracer

    env = Environment()
    tracer = install_tracer(env)
    if attach_engine:
        env.chaos = ChaosEngine(env, seed=3)  # attached, never started
    fs = LambdaFS(env, LambdaFSConfig(
        num_deployments=2,
        faas=FaaSConfig(cluster_vcpus=64.0, vcpus_per_instance=4.0),
        client=replace(ClientConfig(), replacement_probability=0.1),
    ))
    fs.format()
    fs.start()
    client = fs.new_client()

    def workload(env):
        yield from fs.prewarm(1)
        yield from client.mkdirs("/chaos/dir")
        yield from client.create_file("/chaos/dir/f")
        for _ in range(10):
            yield from client.stat("/chaos/dir/f")

    done = env.process(workload(env))
    env.run(until=done)
    return tracer.event_hash()


def test_attached_idle_engine_leaves_run_byte_identical():
    """The chaos-off determinism regression: env.chaos set but no
    scenario running must not perturb a single event."""
    without = _traced_workload(attach_engine=False)
    with_idle = _traced_workload(attach_engine=True)
    assert without == with_idle
