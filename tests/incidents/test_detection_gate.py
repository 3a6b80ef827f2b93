"""End-to-end detection: real chaos runs with detection on.

These are the test-suite mirror of the BENCH_chaos.json gate: a
fault-injecting scenario must produce an incident whose top-ranked
suspect is the injected fault within the detection SLO, the no-fault
control must stay silent, detection must not perturb the simulation
(byte-identical event hash), and the run's JSONL export must replay
to the run's own alerts.
"""

import json
import os
from dataclasses import replace

import pytest

from repro.chaos import FAMILIES, get_scenario, run_scenario
from repro.incidents import AlertEngine, default_rules
from repro.telemetry import read_jsonl, write_jsonl

pytestmark = [pytest.mark.incident, pytest.mark.chaos, pytest.mark.slow]

BASELINE_PATH = os.path.join(
    os.path.dirname(__file__), os.pardir, os.pardir, "BENCH_chaos.json"
)

#: The baseline's exact run shape: the chaos family's (default shape,
#: detection on, seed 0).
DETECT = FAMILIES["chaos"].config


def _baseline(name):
    with open(BASELINE_PATH) as handle:
        return json.load(handle)["scenarios"][name]


def test_ack_loss_detection_matches_baseline():
    result = run_scenario(get_scenario("ack-loss"), DETECT)
    assert result.passed, result.report.render()
    expect = _baseline("ack-loss")
    report = result.incidents
    assert len(report.incidents) == expect["incidents"]
    assert report.alerts_total == expect["alerts"]
    top = report.incidents[0].top_suspect
    assert top.kind == expect["top_suspect"]
    # The baseline is generated by `repro chaos matrix --bench-json`
    # (scenarios run back-to-back in one process); a standalone run
    # lands within a few ms of it but not bit-exact, so compare the
    # semantic contract, not the float.
    assert report.mttd_ms == pytest.approx(expect["mttd_ms"], abs=5.0)
    assert result.report.top_suspect == expect["top_suspect"]
    assert result.report.detection_ms == pytest.approx(
        expect["mttd_ms"], abs=5.0)
    assert any("PASS detection" in c for c in result.report.checks)


def test_control_run_detects_nothing():
    result = run_scenario(get_scenario("control"), DETECT)
    assert result.passed, result.report.render()
    assert result.incidents is not None
    assert result.incidents.incidents == []
    assert "PASS detection: no faults, no incidents" in result.report.checks


def test_detector_attachment_keeps_event_hash_byte_identical():
    """Detection reads only the finished run: a --detect run must replay
    the exact same simulation as a detection-off run."""
    scenario = get_scenario("ack-loss")
    plain = run_scenario(scenario, replace(DETECT, detect=False))
    detected = run_scenario(scenario, DETECT)
    assert plain.event_hash == detected.event_hash
    assert plain.log_hash == detected.log_hash
    assert plain.ops_ok == detected.ops_ok
    assert plain.incidents is None
    assert detected.incidents is not None


def test_jsonl_export_replays_to_the_runs_alerts(tmp_path):
    """``repro incidents analyze`` on a run's export and the run itself
    share one path: the JSONL round-trip loses nothing detection reads."""
    config = replace(
        DETECT, clients=12, drain_ms=5_000.0,
        slo=replace(DETECT.slo, window_ms=4_000.0),
    )
    result = run_scenario(get_scenario("ack-loss"), config)
    path = str(tmp_path / "telemetry.jsonl")
    write_jsonl(result.telemetry.timeseries, path)
    replayed = AlertEngine(default_rules()).replay(read_jsonl(path))
    # Incidents fold alerts swept in (start, rule) order.
    replayed.sort(key=lambda alert: (alert.started_ms, alert.rule))
    run_alerts = [
        alert for incident in result.incidents.incidents
        for alert in incident.alerts
    ]
    assert run_alerts, "ack-loss fired no alerts"
    assert [a.as_dict() for a in replayed] == \
        [a.as_dict() for a in run_alerts]


def test_baseline_file_is_well_formed():
    with open(BASELINE_PATH) as handle:
        doc = json.load(handle)
    assert doc["version"] == 1
    assert doc["detection_window_ms"] == 4_000.0
    # Every fault-injecting chaos-family scenario is present and was
    # detected with a fault-kind top suspect; the control stayed silent.
    for name in FAMILIES["chaos"].scenarios:
        if name == "control":
            continue
        entry = doc["scenarios"][name]
        assert entry["passed"], name
        assert entry["incidents"] >= 1, name
        assert entry["top_suspect"].startswith("fault:"), name
        assert entry["mttd_ms"] <= doc["detection_window_ms"], name
    control = doc["scenarios"]["control"]
    assert control["incidents"] == 0
    assert control["top_suspect"] is None
