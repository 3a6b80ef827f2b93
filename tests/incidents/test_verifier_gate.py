"""Gate 6 (detection) unit tests against stub engines and reports.

The end-to-end behavior (real chaos runs with ``--detect``) lives in
test_detection_gate.py; here the gate's decision table is exercised
in isolation: detector-off no-op, false-positive control, missed
detection, misattribution, late detection, and the happy path.
"""

import pytest

from repro.chaos import ChaosVerifier, verifier
from repro.incidents import Alert, Evidence, build_report

pytestmark = pytest.mark.incident


class _SpecStub:
    def __init__(self, kind):
        self.kind = kind


class _ScenarioStub:
    def __init__(self, *kinds):
        self.faults = [_SpecStub(kind) for kind in kinds]


class _EngineStub:
    """Just enough ChaosEngine surface for the other gates to skip."""

    def __init__(self, *kinds):
        self.scenario = _ScenarioStub(*kinds)
        self.first_fault_at_ms = 1_000.0 if kinds else float("inf")
        self.faults_clear_at_ms = 2_000.0 if kinds else 0.0
        self.log = []


def _report(kinds=("ack_loss",), alert_rule="ack-latency-anomaly",
            fault_at=1_000.0, alert_at=1_200.0):
    """An incident report whose top suspect is the injected fault."""
    fault_log = []
    for kind in kinds:
        fault_log.append({"time_ms": fault_at, "kind": kind,
                          "action": "activate", "detail": ""})
        fault_log.append({"time_ms": fault_at + 1_000.0, "kind": kind,
                          "action": "deactivate", "detail": ""})
    alerts = [Alert(rule=alert_rule, severity="page", condition="",
                    started_ms=alert_at, ended_ms=alert_at + 300.0)]
    return build_report(
        alerts, Evidence(fault_log=fault_log),
        scenario="stub", first_fault_at_ms=fault_at, end_ms=5_000.0,
    )


def _gate_lines(verifier):
    report = verifier.verify()
    return report, [c for c in report.checks if "detection" in c]


def test_gate_silent_when_no_incident_report_given():
    report, lines = _gate_lines(ChaosVerifier(engine=_EngineStub("ack_loss")))
    assert lines == []
    assert report.incidents_detected is None


def test_no_fault_control_passes_on_zero_incidents():
    empty = build_report([], Evidence(), scenario="control", end_ms=5_000.0)
    report, lines = _gate_lines(
        ChaosVerifier(engine=_EngineStub(), incidents=empty))
    assert report.passed
    assert lines == ["PASS detection: no faults, no incidents"]
    assert report.incidents_detected == 0


def test_no_fault_control_fails_on_any_incident():
    noisy = build_report(
        [Alert(rule="latency-anomaly", severity="page", condition="",
               started_ms=100.0, ended_ms=200.0)],
        Evidence(), scenario="control", end_ms=5_000.0,
    )
    report, lines = _gate_lines(
        ChaosVerifier(engine=_EngineStub(), incidents=noisy))
    assert not report.passed
    assert "false positive" in lines[0]


def test_fault_run_fails_when_nothing_detected():
    empty = build_report([], Evidence(), scenario="s", end_ms=5_000.0)
    report, lines = _gate_lines(
        ChaosVerifier(engine=_EngineStub("tcp_sever"), incidents=empty))
    assert not report.passed
    assert "no incident was detected" in lines[0]


def test_fault_run_passes_when_top_suspect_matches_in_window():
    report, lines = _gate_lines(ChaosVerifier(
        engine=_EngineStub("ack_loss"), incidents=_report()))
    assert report.passed
    assert "blamed fault:ack_loss" in lines[0]
    assert report.top_suspect == "fault:ack_loss"
    assert report.detection_ms == pytest.approx(200.0)


def test_fault_run_fails_on_misattribution():
    # Incident exists but blames a fault kind that was not injected.
    report, lines = _gate_lines(ChaosVerifier(
        engine=_EngineStub("shard_outage"), incidents=_report()))
    assert not report.passed
    assert "no incident blamed an injected fault" in lines[0]
    assert report.top_suspect == "fault:ack_loss"


def test_fault_run_fails_on_late_detection(monkeypatch):
    monkeypatch.setattr(verifier, "DETECTION_WINDOW_MS", 100.0)
    late = _report(alert_at=1_500.0)  # MTTD 500 ms > 100 ms window
    report, lines = _gate_lines(ChaosVerifier(
        engine=_EngineStub("ack_loss"), incidents=late))
    assert not report.passed
    assert "within 100 ms" in lines[0]


def test_multi_fault_scenario_accepts_any_injected_kind():
    report, lines = _gate_lines(ChaosVerifier(
        engine=_EngineStub("ack_loss", "tcp_delay"), incidents=_report()))
    assert report.passed
