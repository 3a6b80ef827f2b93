"""Profiling must be free: zero effect on the simulated event stream.

The profiler only reads spans after (or during) a run — it schedules
nothing.  These tests pin that down with the tracer's streaming event
hash: a profiled run is byte-identical to a merely traced run, and
analyzing mid-run perturbs nothing.
"""

import pytest

from repro.bench.harness import build_lambdafs, drive
from repro.core import OpType
from repro.namespace.treegen import TreeSpec, generate_tree
from repro.sim import Environment
from repro.workloads import MicroBenchmark

pytestmark = pytest.mark.profile


def _run(trace=False, profile=False, analyze_midway=False, seed=3):
    env = Environment()
    tree = generate_tree(TreeSpec(seed=seed))
    handle = build_lambdafs(
        env, tree, deployments=4, seed=seed, trace=trace, profile=profile,
    )
    client_objects = handle.make_clients(12)
    drive(env, handle.prewarm())
    bench = MicroBenchmark(env, tree, seed=seed)
    drive(env, bench.run(client_objects, OpType.READ_FILE, 6, 4))
    if analyze_midway:
        # Analysis between phases must not disturb the simulation.
        handle.profiler.analyze()
    drive(env, bench.run(client_objects, OpType.CREATE_FILE, 3, 0))
    return handle


def test_profiled_run_hash_matches_traced_run():
    traced = _run(trace=True)
    profiled = _run(profile=True)
    assert traced.tracer.summary()["event_hash"] == \
        profiled.tracer.summary()["event_hash"]
    assert traced.tracer.summary()["events_hashed"] == \
        profiled.tracer.summary()["events_hashed"]
    assert traced.profiler is None
    assert profiled.profiler is not None


def test_same_seed_profiled_runs_are_bit_identical():
    first = _run(profile=True)
    second = _run(profile=True)
    assert first.tracer.summary()["event_hash"] == \
        second.tracer.summary()["event_hash"]
    first_profile = first.profiler.analyze()
    second_profile = second.profiler.analyze()
    assert first_profile.to_dict() == second_profile.to_dict()


def test_midrun_analysis_does_not_perturb():
    plain = _run(profile=True)
    poked = _run(profile=True, analyze_midway=True)
    assert plain.tracer.summary()["event_hash"] == \
        poked.tracer.summary()["event_hash"]
    assert plain.profiler.analyze().to_dict() == \
        poked.profiler.analyze().to_dict()
