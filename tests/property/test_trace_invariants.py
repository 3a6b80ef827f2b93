"""Property test: random microbenchmark workloads under NameNode
chaos never violate the traced coherence or lock-discipline
invariants.

Each example builds a small λFS fleet with tracing + the default
checker battery enabled, runs one randomly chosen operation mix via
:class:`~repro.workloads.micro.MicroBenchmark` while a
:class:`~repro.chaos.faults.NameNodeKiller` terminates a warm NameNode
on a random cadence, and asserts the run was invariant-clean."""

from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.harness import build_lambdafs
from repro.core.messages import OpType
from repro.chaos.faults import NameNodeKiller
from repro.faas import platform
from repro.namespace.treegen import TreeSpec, generate_tree
from repro.sim import Environment
from repro.workloads import MicroBenchmark

MICRO_OPS = (
    OpType.READ_FILE, OpType.STAT, OpType.LS, OpType.CREATE_FILE, OpType.MKDIRS
)


@pytest.mark.slow
@settings(max_examples=6, deadline=None)
@given(
    op=st.sampled_from(MICRO_OPS),
    seed=st.integers(min_value=0, max_value=2**16),
    kill_interval_ms=st.sampled_from([40.0, 75.0, 150.0]),
)
def test_chaos_workload_is_invariant_clean(op, seed, kill_interval_ms):
    with patch.object(platform, "APP_INIT_MS", 2.0):
        env = Environment()
        tree = generate_tree(TreeSpec(depth=2, dirs_per_dir=3, files_per_dir=4))
        handle = build_lambdafs(
            env, tree, vcpus=48.0, deployments=4, seed=seed, trace=True,
            faas_overrides={
                "vcpus_per_instance": 4.0,
                "cold_start_min_ms": 10.0,
                "cold_start_max_ms": 15.0,
            },
        )
        clients = handle.make_clients(6)
        bench = MicroBenchmark(env, tree, seed=seed)
        killer = NameNodeKiller(env, handle.system.platform, kill_interval_ms)
        box = {}

        def main(env):
            killer.start()
            box["result"] = yield from bench.run(clients, op, ops_per_client=8)
            killer.stop()

        done = env.process(main(env))
        env.run(until=done)

        tracer = handle.tracer
        assert tracer.violations() == [], "\n".join(
            str(v) for v in tracer.violations()
        )
        # The run actually exercised the protocol and (usually) the chaos.
        assert box["result"].total_ops == 48
        checkers = {type(c).__name__: c for c in tracer.checkers}
        assert checkers["LockDisciplineChecker"].acquires > 0
        if op in (OpType.CREATE_FILE, OpType.MKDIRS):
            assert checkers["CoherenceChecker"].commits_checked > 0
