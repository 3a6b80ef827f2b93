"""Figure 15: the Spotify run while NameNodes are killed round-robin."""

import pytest

from repro.bench.experiments import fig15_fault_tolerance

from _shared import QUICK, report, tabulate

pytestmark = pytest.mark.bench


def test_fig15_fault_tolerance():
    # trace=True: the fault-tolerance run doubles as the invariant
    # battery's stress test — kills mid-INV-round must never let a
    # write commit early or a stale cache entry be served.
    kwargs = dict(trace=True)
    if QUICK:
        kwargs.update(duration_ms=20_000.0, clients=96, kill_interval_ms=5_000.0)
    runs = fig15_fault_tolerance(**kwargs)
    failures, baseline = runs["failures"], runs["baseline"]

    base_by_t = dict(baseline.throughput_timeline)
    nn_by_t = dict(failures.nn_timeline)
    rows = [
        [int(t / 1000), ops, base_by_t.get(t, ""), nn_by_t.get(t, "")]
        for t, ops in failures.throughput_timeline[::3]
    ]
    report(
        "fig15",
        "Figure 15 — fault tolerance under the Spotify workload",
        tabulate(["t (s)", "λFS+Failures ops/s", "λFS ops/s", "NNs (failures run)"], rows),
    )
    # §5.6: despite a NameNode being killed every interval, λFS
    # completes the workload as generated (slight dips, quick
    # recovery): ≥90% of the failure-free average throughput.
    assert failures.avg_throughput > 0.9 * baseline.avg_throughput
    assert failures.completed == failures.issued
    for run in (failures, baseline):
        assert run.trace_report is not None
        assert run.trace_report["violations"] == 0, \
            run.trace_report["violation_detail"]
