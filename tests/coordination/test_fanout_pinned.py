"""Pin the sim-time behaviour of INV rounds with several targets.

The committed goldens (the ack-loss kernel hashes, BENCH_profile.json's
event hash, the chaos matrix and the resilience baseline) all run at
a scale where each INV round reaches one member, so none of them sees
how a round fans out.  This run prewarms three NameNodes in each of 8
deployments and drives a closed loop of creates, so a round reaches
two or more followers; half of all ACKs are lost in the middle of
the window, so redelivery runs on those rounds too.

The digest covers every op's ``(op, path, ok, latency_ms)`` record and
was recorded with one delivery process per member.  How many kernel
events a round takes is an implementation detail, so the tracer's
event hash is deliberately not pinned.
"""

import hashlib

import pytest

from repro.bench.harness import build_lambdafs, drive
from repro.chaos import install_chaos
from repro.chaos.scenario import FaultSpec, Scenario
from repro.core import OpType
from repro.namespace.treegen import TreeSpec, generate_tree
from repro.sim import Environment
from repro.workloads import MicroBenchmark

pytestmark = pytest.mark.chaos

OPS_DIGEST = "260812e53a100dd80380fd646b940d07"
LOG_DIGEST = "917fb3bcad27a113085668fcb26fc265"


class Recorder:
    """Stands in for a client and records every op it executes."""

    def __init__(self, env, client, records):
        self.env = env
        self.client = client
        self.records = records

    def execute(self, op, path, *args, **kwargs):
        start = self.env.now
        response = yield from self.client.execute(op, path, *args, **kwargs)
        self.records.append((op.value, path, response.ok, self.env.now - start))
        return response


def run_fanout(seed=1):
    tree = generate_tree(TreeSpec(depth=2, dirs_per_dir=4, files_per_dir=4))
    env = Environment()
    handle = build_lambdafs(env, tree, deployments=8, seed=seed)
    fs = handle.system
    coordinator = fs.coordinator
    fanouts = []
    invalidate = coordinator.invalidate

    def counting_invalidate(*args, **kwargs):
        contacted = yield from invalidate(*args, **kwargs)
        fanouts.append(contacted)
        return contacted

    coordinator.invalidate = counting_invalidate
    clients = handle.make_clients(48)
    drive(env, fs.prewarm(3))
    bench = MicroBenchmark(env, tree, seed=seed)
    drive(env, bench.run(clients, OpType.READ_FILE, 0, 2))

    engine = install_chaos(env, system=fs, seed=seed)
    engine.start(Scenario(
        name="fanout-ack-loss",
        faults=(FaultSpec("ack_loss", at_ms=40.0, duration_ms=120.0,
                          params={"p": 0.5}),),
    ))
    records = []
    recorders = [Recorder(env, client, records) for client in clients]
    drive(env, bench.run(recorders, OpType.CREATE_FILE, 6, 0))
    engine.stop()
    return records, fanouts, engine


def digest(records):
    text = "\n".join(
        f"{op}|{path}|{ok}|{latency!r}" for op, path, ok, latency in records
    )
    return hashlib.sha256(text.encode()).hexdigest()[:32]


def test_multi_member_rounds_keep_their_op_records(reset_sim_counters):
    records, fanouts, engine = run_fanout()
    # The config must exercise fan-out, and redelivery within it.
    assert min(fanouts) >= 2
    drops = [event for event in engine.log if event.action == "inject"]
    assert len(drops) >= 20
    assert len(records) == 48 * 6
    assert all(ok for _, _, ok, _ in records)
    assert digest(records) == OPS_DIGEST
    # The ACK-loss draws happen in the same order at the same instants.
    assert engine.log_hash() == LOG_DIGEST
