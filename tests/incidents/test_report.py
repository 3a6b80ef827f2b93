"""Grouping, MTTD/MTTR math, JSON round-trip, and renderings."""

import pytest

from repro.incidents import (
    Alert,
    Evidence,
    IncidentReport,
    build_report,
    group_alerts,
    load_report,
)

pytestmark = pytest.mark.incident


def _alert(rule, start, end, severity="page", resolved=True):
    return Alert(rule=rule, severity=severity, condition=f"{rule} cond",
                 started_ms=start, ended_ms=end, resolved=resolved)


def test_group_alerts_folds_overlapping_windows():
    incidents = group_alerts([
        _alert("a", 100.0, 500.0),
        _alert("b", 400.0, 900.0),    # overlaps a
        _alert("c", 5_000.0, 5_100.0),  # far away: new incident
    ])
    assert [len(i.alerts) for i in incidents] == [2, 1]
    assert incidents[0].started_ms == 100.0
    assert incidents[0].ended_ms == 900.0
    assert incidents[0].rules == ["a", "b"]
    assert incidents[1].index == 1


def test_group_alerts_bridges_small_gaps_only():
    near = group_alerts([
        _alert("a", 0.0, 100.0),
        _alert("b", 900.0, 1_000.0),  # 800 ms gap < default 1000
    ])
    assert len(near) == 1
    far = group_alerts([
        _alert("a", 0.0, 100.0),
        _alert("b", 1_200.0, 1_300.0),  # 1100 ms gap > default 1000
    ])
    assert len(far) == 2


def test_group_alerts_still_firing_extends_to_run_end():
    incidents = group_alerts(
        [Alert(rule="a", severity="page", condition="", started_ms=50.0)],
        end_ms=700.0,
    )
    assert incidents[0].ended_ms == 700.0


def test_incident_severity_and_mttr():
    incidents = group_alerts([
        _alert("a", 100.0, 500.0, severity="warn"),
        _alert("b", 200.0, 900.0, severity="page"),
    ])
    incident = incidents[0]
    assert incident.severity == "page"
    assert incident.mttr_ms == 800.0
    assert incident.resolved


def test_build_report_mttd_from_first_fault():
    report = build_report(
        [_alert("a", 1_200.0, 1_500.0)],
        Evidence(),
        scenario="x", seed=3, first_fault_at_ms=1_000.0, end_ms=2_000.0,
    )
    assert report.incidents
    assert report.incidents[0].mttd_ms == 200.0
    assert report.mttd_ms == 200.0


def test_build_report_without_faults_has_no_mttd():
    report = build_report([_alert("a", 100.0, 200.0)], end_ms=500.0)
    assert report.incidents[0].mttd_ms is None
    assert report.mttd_ms is None


def test_incident_json_roundtrips_through_loader(tmp_path):
    report = build_report(
        [
            _alert("a", 100.0, 500.0, severity="warn"),
            _alert("b", 400.0, None, resolved=False),
        ],
        Evidence(fault_log=[
            {"time_ms": 50.0, "kind": "tcp_sever", "action": "activate",
             "detail": ""},
            {"time_ms": 600.0, "kind": "tcp_sever", "action": "deactivate",
             "detail": ""},
        ]),
        scenario="roundtrip", seed=7, first_fault_at_ms=50.0, end_ms=1_000.0,
    )
    path = str(tmp_path / "incidents.json")
    report.save(path)
    loaded = load_report(path)
    assert loaded.as_dict() == report.as_dict()
    # Spot-check the deep structure survived, not just the dict form.
    assert loaded.incidents[0].alerts[1].ended_ms is None
    assert not loaded.incidents[0].resolved
    assert loaded.incidents[0].top_suspect.kind == "fault:tcp_sever"


def test_render_terminal_and_markdown():
    report = build_report(
        [_alert("a", 100.0, 500.0)],
        Evidence(fault_log=[
            {"time_ms": 50.0, "kind": "ack_loss", "action": "activate",
             "detail": ""},
        ]),
        scenario="demo", first_fault_at_ms=50.0, end_ms=1_000.0,
    )
    text = report.render()
    assert "incident #0" in text
    assert "MTTD 50 ms" in text
    assert "ack_loss" in text
    md = report.render_markdown()
    assert md.startswith("# Incident report")
    assert "| `a` |" in md
    assert "| 1 |" in md  # suspect table rank column


def test_render_empty_report():
    report = IncidentReport(scenario="clean")
    assert "no incidents detected" in report.render()
    assert "No incidents detected." in report.render_markdown()
