"""Pipelined chunk writes and the re-replication scanner."""

import pytest

from repro.bench.harness import build_lambdafs
from repro.chaos.engine import ChaosEngine, install_chaos
from repro.core import OpType
from repro.chaos.scenario import FaultSpec, Scenario
from repro.datanode import DataNodeFleet, DataNodeFleetConfig
from repro.namespace.treegen import TreeSpec, generate_tree
from repro.sim import Environment
from repro.trace import install_tracer
from repro.workloads import MicroBenchmark

pytestmark = pytest.mark.datanode

CONFIG = DataNodeFleetConfig(count=9)


def drive(env, generator):
    done = env.process(generator)
    env.run(until=done)
    return done.value


def test_pipeline_writes_replication_factor_replicas():
    env = Environment()
    fleet = DataNodeFleet(env, CONFIG, seed=0)
    fleet.start()
    stored = drive(env, fleet.client_write(1, actor="c0"))
    assert len(stored) == 3
    assert fleet.blocks[1] == set(stored)
    assert {fleet.node(dn).rack for dn in stored} == {"rack0", "rack1", "rack2"}
    for dn in stored:
        assert 1 in fleet.node(dn).replicas


def test_pipeline_breaks_at_dead_node():
    """The forward chain stops at the first dead node: upstream
    replicas are durable, downstream ones never happen."""
    env = Environment()
    fleet = DataNodeFleet(env, CONFIG, seed=0)
    # Not started: placement over tracker view (all live), no scans.
    targets = fleet.placement(5)
    fleet.node(targets[1]).alive = False  # dies without the tracker knowing
    stored = drive(env, fleet.client_write(5, actor="c0"))
    assert stored == targets[:1]
    assert fleet.blocks[5] == {targets[0]}


def test_pipeline_emits_stage_spans():
    env = Environment()
    tracer = install_tracer(env)
    fleet = DataNodeFleet(env, CONFIG, seed=0)
    drive(env, fleet.client_write(2, actor="c0"))
    kinds = [span.kind for span in tracer.spans.values()]
    assert kinds.count("dn.pipeline") == 1
    assert kinds.count("dn.xfer") == 3
    assert kinds.count("dn.disk") == 3
    assert kinds.count("dn.ack") == 3
    spans = list(tracer.spans.values())
    root = next(s for s in spans if s.kind == "dn.pipeline")
    children = [s for s in spans if s.parent_id == root.span_id]
    assert len(children) == 9


def test_disk_slow_fault_slows_matching_rack_only():
    def timed_write(rack_scope):
        env = Environment()
        fleet = DataNodeFleet(env, CONFIG, seed=0)
        engine = env.chaos = ChaosEngine(env, seed=0, fleet=fleet)
        engine.start(Scenario(
            name="slow",
            faults=(
                FaultSpec("disk_slow", at_ms=0.0, duration_ms=100_000.0,
                          params={"factor": 50.0, "rack": rack_scope}),
            ),
        ))
        env.run(until=1.0)  # let the activation edge fire
        start = env.now
        drive(env, fleet.client_write(3, actor="c0"))
        return env.now - start

    # Block 3's pipeline spans all three racks, so slowing rack0
    # drags it; slowing a rack that doesn't exist changes nothing.
    assert timed_write("rack0") > 2.0 * timed_write("rack9")


def test_scanner_records_repair_timeline():
    env = Environment()
    fleet = DataNodeFleet(env, CONFIG, seed=0)
    fleet.start()
    drive(env, fleet.client_write(11, actor="c0"))
    victim = sorted(fleet.blocks[11])[0]
    fleet.kill(victim)
    env.run(until=8_000.0)
    records = [r for r in fleet.scanner.records if r.block_id == 11]
    assert len(records) == 1
    record = records[0]
    assert record.restored_ms >= record.detected_ms
    assert record.target not in {victim}
    live = set(fleet.tracker.live())
    assert len(fleet.blocks[11] & live) == 3


def test_same_seed_fleet_runs_are_identical():
    """Same seed → same kills, same repair timeline, same event hash."""

    def run_once():
        env = Environment()
        tracer = install_tracer(env)
        fleet = DataNodeFleet(env, CONFIG, seed=7)
        fleet.start()
        engine = ChaosEngine(env, seed=7, fleet=fleet)
        engine.start(Scenario(
            name="kills",
            faults=(
                FaultSpec("datanode_kill", at_ms=1_000.0, duration_ms=900.0,
                          params={"count": 2, "interval_ms": 400.0}),
            ),
        ))

        def workload(env):
            for block in range(40):
                yield from fleet.client_write(block, actor="c0")
                yield env.timeout(25.0)

        done = env.process(workload(env))
        env.run(until=done)
        env.run(until=12_000.0)
        repairs = [
            (r.block_id, r.detected_ms, r.restored_ms, r.source, r.target)
            for r in fleet.scanner.records
        ]
        return tracer.event_hash(), engine.log_hash(), repairs

    first = run_once()
    second = run_once()
    assert first == second
    assert first[2]  # the scenario really exercised re-replication


def _traced_run(attach_fleet):
    env = Environment()
    tree = generate_tree(TreeSpec(depth=2, seed=0))
    handle = build_lambdafs(
        env, tree, vcpus=64.0, deployments=2, seed=0, trace=True
    )
    fs = handle.system
    if attach_fleet:
        fs.datanode_fleet = DataNodeFleet(env, CONFIG, seed=0, store=fs.store)
    install_chaos(env, fs, seed=0)
    clients = handle.make_clients(4)
    drive(env, fs.prewarm(1))
    bench = MicroBenchmark(env, tree, seed=0)
    drive(env, bench.run(clients, OpType.READ_FILE, 8))
    drive(env, bench.run(clients, OpType.CREATE_FILE, 4))
    return handle.tracer.event_hash(), fs.metrics.outcome_digest()


def test_attached_idle_fleet_leaves_run_byte_identical():
    """A fleet that is built and attached (to the system and to the
    chaos engine) but never started draws from no shared stream and
    schedules nothing: the run is identical, event for event and op
    for op, to one without a fleet."""
    assert _traced_run(attach_fleet=True) == _traced_run(attach_fleet=False)
