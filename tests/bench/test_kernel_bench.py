"""Unit tests for the kernel throughput benchmark.

Covers the closed-form event count (cross-checked against an actual
run via the counting ``on_step`` hook), the regression-gating
semantics ``scripts/kernel_ab.sh`` relies on, result-file
round-tripping, the memory columns' independence from which repeat
wins, and the CLI's scale selection.
"""

import json

import pytest

from repro.bench import kernel
from repro.bench.kernel import (
    QUICK_SCALES,
    SCALES,
    KernelScale,
    compare_kernel_bench,
    format_kernel_bench,
    format_kernel_diff,
    load_kernel_bench,
    quick_scale_names,
    run_kernel_bench,
    run_kernel_point,
    save_kernel_bench,
)

pytestmark = pytest.mark.kernel


def test_closed_form_matches_executed_events():
    scale = KernelScale("tiny", clients=40, ops_per_client=13)
    record = run_kernel_point(scale, verify_count=True, mem_probe=False)
    assert record["events"] == scale.events_expected()
    assert record["ops"] == 40 * 13
    assert record["events_per_sec"] > 0


def test_verify_count_catches_a_wrong_closed_form():
    class _Lying(KernelScale):
        def events_expected(self):
            return super().events_expected() + 1

    with pytest.raises(AssertionError, match="closed form"):
        run_kernel_point(_Lying("lie", clients=10, ops_per_client=4),
                         verify_count=True, mem_probe=False)


def _result(**points):
    return {
        "version": 1,
        "seed": 0,
        "points": {
            name: {
                "clients": 1, "ops_per_client": 1, "events": 100, "ops": 10,
                "final_sim_ms": 1.0, "wall_s": 1.0,
                "events_per_sec": eps, "ops_per_sec": eps,
                "rss_max_kb": None,
            }
            for name, eps in points.items()
        },
    }


def test_compare_passes_within_threshold():
    diff = compare_kernel_bench(_result(a=100.0), _result(a=91.0),
                                threshold=0.10)
    assert diff.ok and diff.regressions == []
    assert "PASS" in format_kernel_diff(diff)
    # Improvements obviously pass too.
    assert compare_kernel_bench(_result(a=100.0), _result(a=300.0)).ok


def test_compare_flags_regression_beyond_threshold():
    diff = compare_kernel_bench(_result(a=100.0), _result(a=85.0),
                                threshold=0.10)
    assert not diff.ok
    assert len(diff.regressions) == 1 and "a" in diff.regressions[0]
    assert "FAIL" in format_kernel_diff(diff)
    # A looser threshold accepts the same candidate.
    assert compare_kernel_bench(_result(a=100.0), _result(a=85.0),
                                threshold=0.20).ok


def test_compare_skips_unshared_scale_points():
    diff = compare_kernel_bench(_result(a=100.0), _result(b=1.0))
    assert diff.ok and diff.rows == []


def test_bench_json_round_trip(tmp_path):
    result = _result(q=123.456)
    path = save_kernel_bench(result, str(tmp_path / "bench.json"))
    assert load_kernel_bench(path) == result
    assert "events/s" in format_kernel_bench(result)


def test_load_rejects_non_bench_file(tmp_path):
    path = tmp_path / "other.json"
    path.write_text(json.dumps({"foo": 1}))
    with pytest.raises(ValueError, match="points"):
        load_kernel_bench(str(path))


def test_quick_scale_names():
    assert quick_scale_names(False, None) == list(SCALES)
    assert quick_scale_names(True, None) == list(QUICK_SCALES)
    # Explicit scales win over the quick flag.
    assert quick_scale_names(True, ["1k", "100k"]) == ["1k", "100k"]


def test_run_kernel_bench_rejects_bad_arguments():
    with pytest.raises(ValueError, match="unknown kernel scale"):
        run_kernel_bench(scales=("nope",))
    with pytest.raises(ValueError, match="repeats"):
        run_kernel_bench(scales=("1k",), repeats=0)


@pytest.mark.parametrize("walls", [(1.0, 2.0, 3.0), (3.0, 1.0, 2.0),
                                   (3.0, 2.0, 1.0)])
def test_memory_columns_do_not_depend_on_the_fastest_repeat(
        monkeypatch, walls):
    # The tracemalloc probe runs after attempt 0 and raises the process
    # peak, so any later attempt would read a higher RSS.  The recorded
    # memory must be attempt 0's whichever repeat wins on time.
    probe_ran = []
    ticks = iter(t for wall in walls for t in (0.0, wall))

    class _Clock:
        @staticmethod
        def perf_counter():
            return next(ticks)

    def fake_probe(scale, seed):
        probe_ran.append(scale.name)
        return 64.0

    monkeypatch.setattr(kernel, "time", _Clock)
    monkeypatch.setattr(kernel, "_rss_max_kb",
                        lambda: 150_000.0 if probe_ran else 100_000.0)
    monkeypatch.setattr(kernel, "_py_heap_peak_kb", fake_probe)
    monkeypatch.setitem(kernel.SCALES, "tiny",
                        KernelScale("tiny", clients=4, ops_per_client=2))
    result = run_kernel_bench(scales=("tiny",), repeats=len(walls))
    point = result["points"]["tiny"]
    assert point["wall_s"] == min(walls)
    assert point["rss_max_kb"] == 100_000.0
    assert point["py_heap_peak_kb"] == 64.0
    assert probe_ran == ["tiny"]
