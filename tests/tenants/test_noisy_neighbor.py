"""Noisy-neighbor chaos: the QoS gate passes, the runaway is caught."""

import pytest

from repro.chaos import (
    EXPECTED_FAIL,
    FAMILIES,
    ChaosRunConfig,
    FaultSpec,
    RecoverySLO,
    Scenario,
    builtin_scenarios,
    run_scenario,
    scenario_needs_tenants,
)
from repro.namespace.treegen import TreeSpec
from repro.tenants import TenantSpec

pytestmark = [pytest.mark.tenant, pytest.mark.chaos, pytest.mark.slow]


SMALL_TREE = TreeSpec(depth=2, dirs_per_dir=2, files_per_dir=4)

CAST = (
    TenantSpec("hog", workload="readstorm", clients=4, think_ms=20.0,
               tree=SMALL_TREE),
    TenantSpec("vic-a", workload="mixed", clients=3, think_ms=20.0,
               tree=SMALL_TREE),
    TenantSpec("vic-b", workload="readstorm", clients=3, think_ms=20.0,
               tree=SMALL_TREE),
)

CONFIG = ChaosRunConfig(
    deployments=2,
    vcpus=128.0,
    drain_ms=2_000.0,
    telemetry_interval_ms=200.0,
    slo=RecoverySLO(window_ms=2_500.0),
    tenants=CAST,
)


def _flood(disable_isolation: bool) -> Scenario:
    params = {"tenant": "hog", "think_ms": 0.0}
    if disable_isolation:
        params["disable_isolation"] = True
    return Scenario("nn-small", faults=(
        FaultSpec("tenant_flood", at_ms=1_200.0, duration_ms=1_500.0,
                  params=params),
    ))


def test_catalog_wiring():
    scenarios = builtin_scenarios()
    for name in FAMILIES["tenants"].scenarios:
        assert name in scenarios
        assert scenario_needs_tenants(scenarios[name])
    assert "noisy-neighbor-runaway" in EXPECTED_FAIL
    assert not scenario_needs_tenants(scenarios["nn-kills"])


def test_governed_flood_recovers(reset_sim_counters):
    result = run_scenario(_flood(False), CONFIG)
    assert result.passed, result.report.render()
    assert result.tenant_counts is not None
    assert result.tenant_counts["hog"].issued > 0
    assert result.tenant_counts["vic-a"].issued > 0
    report = result.report
    assert any("fairness" in check for check in report.checks)
    assert report.jain_recovered is not None
    assert report.jain_recovered >= CONFIG.slo.jain_floor
    assert report.fairness_recovery_ms is not None
    # The engine-wired governor actually throttled the flood.
    assert result.engine.governor is not None
    assert result.engine.governor.throttled.get("hog", 0) > 0


def test_runaway_flood_is_caught(reset_sim_counters):
    """disable_isolation kills the governor and latches the flood past
    its window — the fairness gate must fail the run."""
    result = run_scenario(_flood(True), CONFIG)
    assert not result.passed
    assert any("fairness" in failure for failure in result.report.failures)
    assert result.engine.governor is not None
    assert result.engine.governor.enabled is False
    assert result.engine.tenant_flood_latch == {"hog": 0.0}
    # The hog kept flooding after the window: it dwarfs the victims.
    hog = result.tenant_counts["hog"].issued
    victims = (result.tenant_counts["vic-a"].issued
               + result.tenant_counts["vic-b"].issued)
    assert hog > victims
    assert result.report.jain_min is not None
    assert result.report.jain_min < CONFIG.slo.jain_floor


def test_same_seed_same_hashes_in_tenant_mode(reset_sim_counters):
    first = run_scenario(_flood(False), CONFIG)
    reset_sim_counters()
    second = run_scenario(_flood(False), CONFIG)
    assert first.event_hash == second.event_hash
    assert first.log_hash == second.log_hash


def test_non_tenant_scenario_report_has_no_fairness_line(
    reset_sim_counters,
):
    """The fairness gate engages only for tenant_flood scenarios —
    existing single-tenant runs keep their exact report shape."""
    scenario = Scenario("plain", faults=(
        FaultSpec("tcp_drop", at_ms=500.0, duration_ms=600.0,
                  params={"p": 0.2}),
    ))
    config = ChaosRunConfig(
        clients=6, deployments=2, vcpus=128.0, think_ms=20.0,
        drain_ms=2_000.0, slo=RecoverySLO(window_ms=1_500.0),
    )
    result = run_scenario(scenario, config)
    assert result.tenant_counts is None
    assert not any("fairness" in check for check in result.report.checks)
