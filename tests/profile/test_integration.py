"""Profiler on real runs: exact attribution, exports, injected regressions.

The acceptance bar from the issue: on a traced microbenchmark, every
completed client op's stage attribution sums to its end-to-end latency
within 1e-6 ms, with no unattributed gap beyond an explicit ``other``
bucket below 5%; and doubling the store's service times must surface
as a ``store``-stage regression in the profile diff.
"""

import json

import pytest

from repro.bench.harness import build_lambdafs, drive
from repro.core import OpType
from repro.metastore import NdbConfig
from repro.namespace.treegen import TreeSpec, generate_tree
from repro.profile import chrome_trace_events, diff_profiles, folded_stacks
from repro.sim import Environment
from repro.workloads import MicroBenchmark

pytestmark = pytest.mark.profile


def _profiled_run(slow_store=1.0, clients=16, ops=12, seed=0):
    env = Environment()
    tree = generate_tree(TreeSpec(seed=seed))
    ndb = None
    if slow_store != 1.0:
        base = NdbConfig()
        ndb = NdbConfig(
            read_service_ms=base.read_service_ms * slow_store,
            write_service_ms=base.write_service_ms * slow_store,
            commit_service_ms=base.commit_service_ms * slow_store,
        )
    handle = build_lambdafs(
        env, tree, deployments=4, seed=seed, ndb=ndb,
        client_overrides={"replacement_probability": 0.05},
        profile=True,
    )
    client_objects = handle.make_clients(clients)
    drive(env, handle.prewarm())
    # Warm a few TCP connections so both transports appear.
    bench = MicroBenchmark(env, tree, seed=seed)
    drive(env, bench.run(client_objects[:8], OpType.READ_FILE, 0, 8))
    drive(env, bench.run(client_objects, OpType.READ_FILE, ops, 0))
    drive(env, bench.run(client_objects, OpType.CREATE_FILE, max(1, ops // 4), 0))
    assert handle.profiler is not None
    return handle, handle.profiler.analyze()


def test_attribution_is_exact_on_a_real_run():
    handle, profile = _profiled_run()
    assert len(profile.ops) > 100
    for record in profile.ops:
        # The tiling is exact: stage sums equal end-to-end latency.
        assert record.attributed_ms == pytest.approx(
            record.total_ms, abs=1e-6
        ), (record.op, record.span_id)
    # Every instrumented kind maps to a named stage; the `other`
    # fallback stays a rounding bucket, not a dumping ground.
    totals = profile.stage_totals()
    grand = sum(totals.values())
    assert grand > 0
    assert totals["other"] / grand < 0.05
    # No tracer-side leaks: all spans closed at end of run.
    assert handle.tracer.summary()["open_spans"] == 0
    assert profile.open_roots == 0


def test_real_run_touches_the_expected_stages():
    _, profile = _profiled_run()
    by_type = profile.by_op_type()
    assert set(by_type) == {"read file", "create file"}
    reads = profile.stage_totals("read file")
    writes = profile.stage_totals("create file")
    # Reads hit the store through the namenode over both transports.
    assert reads["store"] > 0
    assert reads["namenode"] > 0
    assert reads["tcp_transit"] > 0
    assert reads["http_gateway"] > 0
    # Writes commit transactions; store dominates their latency here.
    assert writes["store"] > 0
    assert max(writes, key=writes.get) == "store"


def test_exports_from_a_real_run_are_well_formed(tmp_path):
    handle, profile = _profiled_run(clients=8, ops=6)
    events = chrome_trace_events(handle.tracer.spans.values())
    payload = json.loads(json.dumps({"traceEvents": events}))
    assert payload["traceEvents"]
    for event in payload["traceEvents"]:
        if event["ph"] != "X":
            continue
        assert event["ts"] >= 0
        assert event["dur"] >= 0
    stacks = folded_stacks(profile)
    for line in stacks.strip().splitlines():
        assert int(line.rsplit(" ", 1)[1]) > 0


def test_doubled_store_service_time_is_flagged_in_store_stage():
    _, baseline = _profiled_run()
    _, slowed = _profiled_run(slow_store=2.0)
    diff = diff_profiles(baseline, slowed)
    regressions = diff.regressions()
    assert regressions
    flagged = {(delta.op, delta.stage) for delta in regressions}
    assert ("create file", "store") in flagged
    # The dominant regression is the store stage, not a knock-on.
    assert max(regressions, key=lambda delta: delta.delta_ms).stage == "store"


def test_self_diff_of_a_real_run_is_clean():
    _, first = _profiled_run()
    _, second = _profiled_run()
    diff = diff_profiles(first, second)
    assert diff.regressions() == []
    assert diff.improvements() == []
