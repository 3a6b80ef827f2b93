"""Determinism regression: same seed, same bits.

The tracer folds every kernel step into a streaming hash, so two
runs are step-for-step identical iff their hashes match.  Client,
connection and request ids (which name RNG streams) come from each
run's own ``Environment``, so two in-process runs see exactly what a
fresh interpreter would.
"""

import pytest

from repro.bench import experiments
from repro.bench.experiments import fig8_spotify


@pytest.fixture(autouse=True)
def small_cluster(monkeypatch):
    """64 vCPUs instead of the Spotify runs' 512."""
    monkeypatch.setattr(experiments, "SPOTIFY_VCPUS", 64.0)


def _run(seed):
    run = fig8_spotify(
        base_throughput=800.0,
        duration_ms=4_000.0,
        clients=16,
        seed=seed,
        systems=("lambda",),
        trace=True,
    )["lambda"]
    assert run.trace_report is not None
    return run


@pytest.mark.slow
def test_same_seed_is_bit_identical():
    first = _run(seed=8)
    second = _run(seed=8)

    assert first.trace_report["event_hash"] == second.trace_report["event_hash"]
    assert first.trace_report["events_hashed"] == \
        second.trace_report["events_hashed"]
    assert first.trace_report["spans"] == second.trace_report["spans"]
    # The recorded metrics agree too, not just the event stream.
    assert first.avg_throughput == second.avg_throughput
    assert first.avg_latency_ms == second.avg_latency_ms
    assert first.latencies_by_op == second.latencies_by_op
    assert first.throughput_timeline == second.throughput_timeline
    assert (first.issued, first.completed) == (second.issued, second.completed)
    # And the run was coherent while it was at it.
    assert first.trace_report["violations"] == 0


@pytest.mark.slow
def test_different_seed_diverges():
    first = _run(seed=8)
    other = _run(seed=9)
    assert first.trace_report["event_hash"] != other.trace_report["event_hash"]
