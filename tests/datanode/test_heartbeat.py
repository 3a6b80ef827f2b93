"""Heartbeat liveness edge cases: flaps, races, and total loss."""

import pytest

from repro.chaos.scenario import FaultSpec, Scenario
from repro.chaos.engine import ChaosEngine
from repro.chaos.verifier import ChaosVerifier
from repro.datanode import DataNodeFleet, DataNodeFleetConfig
from repro.sim import Environment

pytestmark = pytest.mark.datanode

SMALL = DataNodeFleetConfig(count=6)


def make_fleet(env, config=SMALL, start=True):
    fleet = DataNodeFleet(env, config, seed=0)
    if start:
        fleet.start()
    return fleet


def test_missed_beats_declare_node_dead():
    env = Environment()
    fleet = make_fleet(env)
    fleet.kill("dn0")
    # Cutoff is 3 × 500 ms; by 2.5 s the scan must have fired.
    env.run(until=2_500.0)
    assert "dn0" in fleet.tracker.dead()
    assert "dn0" not in fleet.tracker.live()
    assert "dn0" not in fleet.placement(123)


def test_flapping_node_inside_one_window_is_never_dead():
    """dead→alive inside the miss window: the restart resumes beats
    before the cutoff, so the tracker never observes a death."""
    env = Environment()
    fleet = make_fleet(env)

    def flap(env):
        yield env.timeout(1_000.0)
        fleet.kill("dn1")
        yield env.timeout(900.0)  # < 1500 ms cutoff
        fleet.restart("dn1")

    env.process(flap(env))
    env.run(until=5_000.0)
    assert fleet.tracker.deaths == 0
    assert "dn1" in fleet.tracker.live()


def test_flapped_node_past_cutoff_dies_then_revives():
    env = Environment()
    fleet = make_fleet(env)

    def flap(env):
        yield env.timeout(1_000.0)
        fleet.kill("dn2")
        yield env.timeout(2_200.0)  # > cutoff: scan declares it dead
        fleet.restart("dn2")

    env.process(flap(env))
    env.run(until=6_000.0)
    assert fleet.tracker.deaths == 1
    assert fleet.tracker.revivals == 1
    assert "dn2" in fleet.tracker.live()


def test_heartbeat_racing_its_own_kill_fault():
    """A kill landing exactly on a beat tick must still win: the kill
    fires via the chaos engine at t=2400 ms — in between two beats —
    and whichever intra-tick order the scheduler picks, the node ends
    up dead at the tracker and excluded from placement."""
    env = Environment()
    fleet = make_fleet(env)
    engine = ChaosEngine(env, seed=0, fleet=fleet)
    scenario = Scenario(
        name="race",
        faults=(
            # interval 500 ms from activation at 1900 ms → kill lands
            # at 2400 ms, heartbeats tick at 2000/2500/...
            FaultSpec("datanode_kill", at_ms=1_900.0, duration_ms=600.0,
                      params={"count": 1, "interval_ms": 500.0}),
        ),
    )
    engine.start(scenario)
    env.run(until=6_000.0)
    killed = [dn.id for dn in fleet.nodes if not dn.alive]
    assert len(killed) == 1
    assert killed[0] in fleet.tracker.dead()
    assert killed[0] not in fleet.placement(7)


def test_all_replicas_lost_is_a_verifier_fail():
    """A block whose every replica died must surface as a hard FAIL,
    never as a silent empty placement."""
    env = Environment()
    fleet = make_fleet(env)
    fleet.repair_enabled = False  # nothing to copy from anyway
    fleet.register_replicas(77, ["dn0", "dn1"])
    fleet.kill("dn0")
    fleet.kill("dn1")
    env.run(until=3_000.0)
    assert 77 in fleet.scanner.lost
    report = ChaosVerifier(fleet=fleet).verify()
    assert not report.passed
    assert report.lost_blocks == [77]
    assert any("lost" in failure for failure in report.failures)


def test_verifier_passes_once_scanner_repairs_deficit():
    env = Environment()
    fleet = make_fleet(env)
    for block in range(8):
        fleet.register_replicas(block, fleet.placement(block))
    fleet.kill("dn3")
    env.run(until=6_000.0)
    # Every block dn3 held has been re-replicated to a live node.
    live = set(fleet.tracker.live())
    for block, holders in fleet.blocks.items():
        assert len(holders & live) >= 3
    report = ChaosVerifier(fleet=fleet).verify()
    assert report.passed


def test_dead_repair_daemon_leaves_standing_deficit():
    env = Environment()
    fleet = make_fleet(env)
    fleet.repair_enabled = False
    for block in range(8):
        fleet.register_replicas(block, fleet.placement(block))
    fleet.kill("dn3")
    env.run(until=6_000.0)
    report = ChaosVerifier(fleet=fleet).verify()
    assert not report.passed
    assert any("under-replicated" in failure for failure in report.failures)
