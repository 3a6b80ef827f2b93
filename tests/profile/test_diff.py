"""Run-to-run profile diffing: regression detection and formatting."""

import pytest

from repro.profile import Profile, diff_profiles, format_diff
from repro.profile.critical_path import OpProfile
from repro.profile.stages import STAGES

pytestmark = pytest.mark.profile


def _op(op, start, stages, span_id=1):
    full = {stage: 0.0 for stage in STAGES}
    full.update(stages)
    end = start + sum(full.values())
    return OpProfile(
        span_id=span_id, op=op, path="/x", ok=True, via="tcp",
        start_ms=start, end_ms=end, stages=full,
    )


def _profile(per_op_stages, count=8):
    """Build a profile with `count` identical ops per op type."""
    ops = []
    span_id = 1
    clock = 0.0
    for op, stages in per_op_stages.items():
        for _ in range(count):
            ops.append(_op(op, clock, stages, span_id=span_id))
            span_id += 1
            clock += 10.0
    return Profile(ops)


BASELINE = {
    "read file": {"tcp_transit": 0.4, "namenode": 0.3, "store": 1.0},
    "create file": {"http_gateway": 1.0, "store": 2.0, "coherence": 0.8},
}


def test_self_diff_is_clean():
    before = _profile(BASELINE)
    after = _profile(BASELINE)
    diff = diff_profiles(before, after)
    assert diff.regressions() == []
    assert diff.improvements() == []
    assert "0 regression(s), 0 improvement(s)" in format_diff(diff)


def test_injected_slowdown_is_flagged_in_the_right_stage():
    slowed = {
        op: {stage: (ms * 2.0 if stage == "store" else ms)
             for stage, ms in stages.items()}
        for op, stages in BASELINE.items()
    }
    diff = diff_profiles(_profile(BASELINE), _profile(slowed))
    regressions = diff.regressions()
    assert regressions
    assert {(d.op, d.stage) for d in regressions} == {
        ("read file", "store"), ("create file", "store"),
    }
    deltas = {d.op: d.delta_ms for d in regressions}
    assert deltas == {
        "read file": pytest.approx(1.0), "create file": pytest.approx(2.0),
    }
    text = format_diff(diff)
    assert "REGRESSION" in text
    assert "2 regression(s)" in text


def test_improvement_is_reported_not_flagged():
    faster = {
        op: {stage: (ms * 0.5 if stage == "store" else ms)
             for stage, ms in stages.items()}
        for op, stages in BASELINE.items()
    }
    diff = diff_profiles(_profile(BASELINE), _profile(faster))
    assert diff.regressions() == []
    assert {(d.op, d.stage) for d in diff.improvements()} == {
        ("read file", "store"), ("create file", "store"),
    }


def test_min_ms_floor_suppresses_jitter():
    jittered = {
        "read file": dict(BASELINE["read file"], tcp_transit=0.43),
        "create file": BASELINE["create file"],
    }
    # +0.03 ms is > 25% relative? No: 0.03/0.4 = 7.5%. Make it relative-
    # large but absolute-tiny instead: a 0.01 ms stage doubling.
    tiny_before = {"read file": {"invoker_queue": 0.01, "store": 1.0}}
    tiny_after = {"read file": {"invoker_queue": 0.02, "store": 1.0}}
    diff = diff_profiles(_profile(tiny_before), _profile(tiny_after),
                         min_ms=0.05)
    assert diff.regressions() == []  # +0.01 ms is below the floor
    diff2 = diff_profiles(_profile(BASELINE), _profile(jittered))
    assert diff2.regressions() == []  # +7.5% is below the 25% threshold


def test_op_present_in_only_one_run_is_not_flagged():
    before = _profile({"read file": BASELINE["read file"]})
    after = _profile(BASELINE)  # adds "create file"
    diff = diff_profiles(before, after)
    assert all(d.op == "read file" for d in diff.regressions())
    assert diff.regressions() == []


def test_threshold_is_tunable():
    slowed = {
        "read file": dict(BASELINE["read file"], store=1.15),
    }
    before = _profile({"read file": BASELINE["read file"]})
    after = _profile(slowed)
    # +15% passes a 10% threshold but not the default 25%.
    assert diff_profiles(before, after).regressions() == []
    loose = diff_profiles(before, after, rel_threshold=0.10)
    assert [(d.op, d.stage) for d in loose.regressions()] == [
        ("read file", "store"),
    ]
