"""ChaosVerifier gates in isolation: invariants, liveness, SLOs."""

import pytest

from repro.chaos import ChaosVerifier, RecoverySLO
from repro.telemetry.sampler import TimeSeries

pytestmark = pytest.mark.chaos


class FakeSpan:
    def __init__(self, kind, actor, start_ms=0.0, **attrs):
        self.kind = kind
        self.actor = actor
        self.start_ms = start_ms
        self.attrs = attrs


class FakeTracer:
    def __init__(self, violations=(), open_spans=()):
        self._violations = list(violations)
        self._open = list(open_spans)

    def violations(self):
        return self._violations

    def open_spans(self):
        return self._open


class FakeEngine:
    def __init__(self, epoch=0.0, first_fault=None, clear=None):
        self.epoch = epoch
        self.first_fault_at_ms = first_fault
        self.faults_clear_at_ms = clear


def _series(points_by_key):
    """Build a TimeSeries from {key: [(t, cumulative value), ...]}."""
    times = sorted({t for pts in points_by_key.values() for t, _ in pts})
    ts = TimeSeries()
    for t in times:
        values = {}
        for key, pts in points_by_key.items():
            values[key] = dict(pts).get(t, 0.0)
        ts.append(t, values)
    return ts


def _latency_series(intervals):
    """Cumulative count/sum samples giving per-interval mean latency.

    ``intervals`` is [(t_ms, ops_in_interval, mean_latency_ms)].
    """
    count = sum_ = 0.0
    counts, sums = [], []
    for t, n, mean in intervals:
        count += n
        sum_ += n * mean
        counts.append((t, count))
        sums.append((t, sum_))
    return {"op_latency_ms_count": counts, "op_latency_ms_sum": sums}


def test_everything_missing_skips_all_gates_and_passes():
    report = ChaosVerifier().verify()
    assert report.passed
    assert all(line.startswith("skip") for line in report.checks)


def test_invariant_violations_fail():
    tracer = FakeTracer(violations=["stale read on /a"])
    report = ChaosVerifier(tracer=tracer).verify()
    assert not report.passed
    assert report.violations == ["stale read on /a"]


def test_hung_client_op_fails_liveness():
    tracer = FakeTracer(open_spans=[
        FakeSpan("client.op", "client3", start_ms=1234.5,
                 op="set permission", path="/a/b"),
        FakeSpan("coord.member", "nn7"),  # non-client spans don't count
    ])
    report = ChaosVerifier(tracer=tracer).verify()
    assert not report.passed
    assert len(report.hung_ops) == 1
    assert "client3" in report.hung_ops[0]
    assert "set permission" in report.hung_ops[0]


def test_clean_tracer_passes_both_tracer_gates():
    report = ChaosVerifier(tracer=FakeTracer()).verify()
    assert report.passed
    assert any("invariants" in line and line.startswith("PASS")
               for line in report.checks)
    assert any("liveness" in line and line.startswith("PASS")
               for line in report.checks)


def test_latency_slo_recovers_within_window():
    # Baseline 2ms (t=250..1000), fault window 1000-3000 at 20ms,
    # recovery interval at 3250 back to 3ms.
    ts = _series(_latency_series([
        (250, 10, 2.0), (500, 10, 2.0), (750, 10, 2.0),
        (1500, 10, 20.0), (2500, 10, 20.0),
        (3250, 10, 3.0), (3500, 10, 2.5),
    ]))
    engine = FakeEngine(epoch=0.0, first_fault=1000.0, clear=3000.0)
    report = ChaosVerifier(
        timeseries=ts, engine=engine,
        slo=RecoverySLO(window_ms=2000.0),
    ).verify()
    assert report.passed
    assert report.baseline_latency_ms == pytest.approx(2.0)
    assert report.recovered_latency_ms == pytest.approx(3.0)
    assert report.recovery_time_ms == pytest.approx(250.0)


def test_latency_slo_fails_when_latency_stays_high():
    ts = _series(_latency_series([
        (250, 10, 2.0), (500, 10, 2.0),
        (1500, 10, 20.0),
        (3250, 10, 20.0), (4500, 10, 20.0),
    ]))
    engine = FakeEngine(epoch=0.0, first_fault=1000.0, clear=3000.0)
    report = ChaosVerifier(
        timeseries=ts, engine=engine,
        slo=RecoverySLO(window_ms=2000.0),
    ).verify()
    assert not report.passed
    assert any("latency SLO" in f for f in report.failures)


def test_latency_slo_fails_when_no_ops_complete_after_clear():
    ts = _series(_latency_series([
        (250, 10, 2.0), (500, 10, 2.0),
        (1500, 10, 20.0),
    ]))
    engine = FakeEngine(epoch=0.0, first_fault=1000.0, clear=3000.0)
    report = ChaosVerifier(
        timeseries=ts, engine=engine, slo=RecoverySLO(window_ms=2000.0),
    ).verify()
    assert not report.passed
    assert any("no completed ops" in f for f in report.failures)


def test_latency_baseline_requires_enough_prefault_samples():
    ts = _series(_latency_series([(250, 10, 2.0), (3250, 10, 2.0)]))
    engine = FakeEngine(epoch=0.0, first_fault=1000.0, clear=3000.0)
    report = ChaosVerifier(
        timeseries=ts, engine=engine, slo=RecoverySLO(window_ms=2000.0),
    ).verify()
    assert report.passed  # skipped, not failed
    assert any("not enough pre-fault samples" in line
               for line in report.checks)


def test_latency_baseline_excludes_prewarm_before_epoch():
    # A cold 50ms interval before the engine epoch must not inflate
    # the baseline.
    ts = _series(_latency_series([
        (100, 10, 50.0),  # pre-epoch (prelude) — excluded
        (400, 10, 2.0), (700, 10, 2.0),
        (3250, 10, 3.0),
    ]))
    engine = FakeEngine(epoch=200.0, first_fault=1000.0, clear=3000.0)
    report = ChaosVerifier(
        timeseries=ts, engine=engine, slo=RecoverySLO(window_ms=2000.0),
    ).verify()
    assert report.baseline_latency_ms == pytest.approx(2.0)
    assert report.passed


def test_hit_rate_slo_recovery_and_failure():
    def cache_series(intervals):
        hits = misses = 0.0
        h, m = [], []
        for t, dh, dm in intervals:
            hits += dh
            misses += dm
            h.append((t, hits))
            m.append((t, misses))
        return {"cache_hits_total": h, "cache_misses_total": m}

    engine = FakeEngine(epoch=0.0, first_fault=1000.0, clear=3000.0)
    good = _series({
        **_latency_series([(250, 10, 2.0), (500, 10, 2.0), (3250, 10, 2.0)]),
        **cache_series([(250, 80, 20), (500, 80, 20),
                        (3250, 60, 40)]),  # 0.6 >= 0.5 * 0.8
    })
    report = ChaosVerifier(
        timeseries=good, engine=engine, slo=RecoverySLO(window_ms=2000.0),
    ).verify()
    assert report.passed
    assert report.recovered_hit_rate == pytest.approx(0.6)

    bad = _series({
        **_latency_series([(250, 10, 2.0), (500, 10, 2.0), (3250, 10, 2.0)]),
        **cache_series([(250, 80, 20), (500, 80, 20),
                        (3250, 10, 90)]),  # 0.1 < 0.5 * 0.8
    })
    report = ChaosVerifier(
        timeseries=bad, engine=engine, slo=RecoverySLO(window_ms=2000.0),
    ).verify()
    assert not report.passed
    assert any("hit-rate SLO" in f for f in report.failures)


def test_render_mentions_verdict_and_checks():
    tracer = FakeTracer(open_spans=[
        FakeSpan("client.op", "client1", op="read file", path="/x"),
    ])
    text = ChaosVerifier(tracer=tracer).verify().render()
    assert text.startswith("verifier: FAIL")
    assert "hung: client1" in text
