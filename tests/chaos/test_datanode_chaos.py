"""End-to-end data-plane chaos: kills, recovery, and determinism.

The full stack — λFS metadata service + DataNode fleet + chaos engine
+ verifier — run through the ``datanode-kill`` catalog scenarios.
Same-seed runs must reproduce the event hash, the fault-log hash, and
the re-replication completion times exactly; the repaired run PASSes
the verifier's replication gate and the dead-repair-daemon variant is
the expected FAIL.
"""

import pytest

from repro.chaos import ChaosRunConfig, RecoverySLO, run_scenario
from repro.chaos.scenarios import FAMILIES, builtin_scenarios

pytestmark = [pytest.mark.chaos, pytest.mark.datanode, pytest.mark.slow]

SMALL = ChaosRunConfig(
    clients=6,
    deployments=2,
    vcpus=128.0,
    think_ms=20.0,
    drain_ms=2_500.0,
    slo=RecoverySLO(window_ms=8_000.0),
)


def test_datanode_kill_passes_with_rf_restored():
    result = run_scenario(builtin_scenarios()["datanode-kill"], SMALL)
    assert result.passed, result.report.render()
    fleet = result.fleet
    assert fleet is not None
    # The scenario kills exactly 2 of the 9-node fleet.
    assert len(fleet.tracker.dead()) == 2
    assert sum(1 for dn in fleet.nodes if not dn.alive) == 2
    # Re-replication actually ran and the verifier saw it.
    assert fleet.scanner.records
    assert result.report.replication_recovery_ms is not None
    assert not fleet.scanner.lost
    assert any(
        check.startswith("PASS replication") for check in result.report.checks
    )


def test_datanode_kill_norepair_is_expected_fail():
    result = run_scenario(builtin_scenarios()["datanode-kill-norepair"], SMALL)
    assert not result.passed
    assert any("under-replicated" in f or "lost" in f
               for f in result.report.failures)
    # The broken path is the repair daemon, nothing else.
    assert not result.report.hung_ops
    assert not result.fleet.scanner.records


def test_disk_slow_passes_without_deficits():
    result = run_scenario(builtin_scenarios()["disk-slow"], SMALL)
    assert result.passed, result.report.render()
    assert result.fleet is not None
    assert not result.fleet.tracker.dead()


def test_same_seed_datanode_kill_reproduces_everything():
    """Event hash, fault-log hash, and the full re-replication
    timeline are functions of the seed alone."""
    scenario = builtin_scenarios()["datanode-kill"]

    def run_once():
        result = run_scenario(scenario, SMALL)
        repairs = tuple(
            (r.block_id, r.detected_ms, r.restored_ms, r.source, r.target)
            for r in result.fleet.scanner.records
        )
        return (result.event_hash, result.log_hash, result.ops_ok,
                result.report.replication_recovery_ms, repairs)

    first = run_once()
    second = run_once()
    assert first == second
    assert first[4]  # repairs actually happened


def test_datanode_matrix_names_resolve():
    scenarios = builtin_scenarios()
    for name in FAMILIES["datanode"].scenarios:
        assert name in scenarios
