"""Incident-report round-trips for alert-rule names with hostile characters.

Rule names land in every alert and incident of the report that
``repro chaos run --detect --out`` and ``repro incidents analyze
--json`` write; the corpus below mirrors the separator/quoting cases
of tests/telemetry/test_series_keys.py so a rule named after an
expression (``errors=high,window=1s``) survives the JSON round-trip
and the markdown timeline unmangled.
"""

import pytest

from repro.incidents import (
    AlertEngine,
    Signal,
    ThresholdRule,
    build_report,
    load_report,
)
from repro.telemetry import TimeSeries

pytestmark = pytest.mark.incident

#: Rule names exercising every escaping hazard: label separators,
#: key/value separators, quotes, backslashes.
HOSTILE_NAMES = [
    "errors=high,window=1s",
    'quoted "page" rule',
    "back\\slash",
    "comma,separated",
]


def _report(name):
    """The report of one rule (named ``name``) firing from t=0 to 100."""
    engine = AlertEngine([
        ThresholdRule(name=name, signal=Signal("depth", mode="gauge"),
                      threshold=0.5, op=">", severity="warn"),
    ])
    ts = TimeSeries()
    ts.append(0.0, {"depth": 2.0})
    ts.append(100.0, {"depth": 0.0})
    return build_report(engine.replay(ts), scenario="hostile", end_ms=100.0)


@pytest.mark.parametrize("name", HOSTILE_NAMES)
def test_rule_name_survives_incident_json_roundtrip(tmp_path, name):
    report = _report(name)
    loaded = load_report(report.save(str(tmp_path / "incidents.json")))
    assert loaded.as_dict() == report.as_dict()
    (incident,) = loaded.incidents
    assert incident.rules == [name]
    (alert,) = incident.alerts
    assert (alert.rule, alert.severity) == (name, "warn")
    assert (alert.started_ms, alert.ended_ms) == (0.0, 100.0)


@pytest.mark.parametrize("name", HOSTILE_NAMES)
def test_rule_name_survives_markdown_timeline(name):
    assert name in _report(name).render_markdown()
