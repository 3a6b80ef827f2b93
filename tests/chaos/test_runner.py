"""End-to-end scenario runs: survive, catch the broken path, repeat."""

import pytest

from repro.chaos import (
    ChaosRunConfig,
    FaultSpec,
    RecoverySLO,
    Scenario,
    run_matrix,
    run_scenario,
    scenario_record,
)

pytestmark = [pytest.mark.chaos, pytest.mark.slow]


SMALL = ChaosRunConfig(
    clients=6,
    deployments=2,
    vcpus=128.0,
    think_ms=20.0,
    drain_ms=2_500.0,
    slo=RecoverySLO(window_ms=1_500.0),
)


def test_small_drop_scenario_survives():
    scenario = Scenario("drops", faults=(
        FaultSpec("tcp_drop", at_ms=700.0, duration_ms=800.0,
                  params={"p": 0.3}),
    ))
    result = run_scenario(scenario, SMALL)
    assert result.passed, result.report.render()
    assert result.ops_ok > 0
    assert result.event_hash and result.log_hash
    actions = [event.action for event in result.engine.log]
    assert "activate" in actions and "deactivate" in actions
    assert "PASS" in result.summary()


def test_ack_loss_without_retry_is_caught():
    """The deliberately broken recovery path: a dropped ACK with
    redelivery disabled strands the writer, and the verifier says so."""
    scenario = Scenario("noretry", faults=(
        FaultSpec("ack_loss", at_ms=300.0, duration_ms=1_200.0,
                  params={"p": 1.0, "disable_retry": True}),
    ))
    from dataclasses import replace

    config = replace(SMALL, write_fraction=0.5,
                     slo=RecoverySLO(window_ms=1_200.0))
    result = run_scenario(scenario, config)
    assert not result.passed
    assert result.report.hung_ops
    assert any("liveness" in failure for failure in result.report.failures)
    assert "FAIL" in result.summary()


def test_same_seed_same_event_and_fault_hashes():
    scenario = Scenario("repeat", faults=(
        FaultSpec("tcp_drop", at_ms=400.0, duration_ms=600.0,
                  params={"p": 0.4}),
        FaultSpec("namenode_kill", at_ms=500.0, duration_ms=400.0,
                  params={"interval_ms": 200.0, "policy": "random"}),
    ))
    first = run_scenario(scenario, SMALL)
    second = run_scenario(scenario, SMALL)
    assert first.event_hash == second.event_hash
    assert first.log_hash == second.log_hash
    assert [str(e) for e in first.engine.log] == [
        str(e) for e in second.engine.log
    ]


PAIR = (
    Scenario("m1", faults=(
        FaultSpec("tcp_delay", at_ms=300.0, duration_ms=500.0,
                  params={"extra_ms": 5.0}),
    )),
    Scenario("m2", faults=(
        FaultSpec("http_brownout", at_ms=300.0, duration_ms=500.0,
                  params={"extra_ms": 10.0, "fail_p": 0.2}),
    )),
)


def test_run_matrix_collects_per_scenario_results():
    results = run_matrix(PAIR, SMALL)
    assert [r.scenario.name for r in results] == ["m1", "m2"]
    assert all(r.passed for r in results)


def test_matrix_record_equals_the_scenario_run_alone():
    """Ids come from each run's own Environment, so a scenario run
    second in a matrix gives the record it gives alone."""
    second = run_matrix(PAIR, SMALL)[1]
    alone = run_scenario(PAIR[1], SMALL)
    assert scenario_record(second) == scenario_record(alone)
