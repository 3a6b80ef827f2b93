"""The rule DSL: validation, JSON round-trips, the default catalog,
and signal evaluation over a series."""

import json

import pytest

from repro.incidents import (
    AnomalyRule,
    BurnRateRule,
    Signal,
    ThresholdRule,
    default_rules,
    load_rules,
    rule_from_dict,
    rule_to_dict,
)
from repro.telemetry import TimeSeries

pytestmark = pytest.mark.incident


# -- Signal validation --------------------------------------------------

def test_signal_rejects_unknown_mode():
    with pytest.raises(ValueError, match="unknown signal mode"):
        Signal("ops_total", mode="median")


def test_signal_two_family_modes_need_divisor():
    for mode in ("ratio", "frac", "gap"):
        with pytest.raises(ValueError, match="needs a divisor"):
            Signal("a", mode=mode)
    # With a divisor they construct fine.
    Signal("a", mode="ratio", divisor="b")


def test_signal_needs_metric():
    with pytest.raises(ValueError, match="needs a metric"):
        Signal("", mode="gauge")


# -- rule validation ----------------------------------------------------

def test_threshold_rule_validates_op_and_severity():
    signal = Signal("ops_total", mode="delta")
    with pytest.raises(ValueError, match="op must be"):
        ThresholdRule(name="r", signal=signal, threshold=1.0, op=">=")
    with pytest.raises(ValueError, match="unknown severity"):
        ThresholdRule(name="r", signal=signal, threshold=1.0,
                      severity="critical")
    with pytest.raises(ValueError, match="for_ms"):
        ThresholdRule(name="r", signal=signal, threshold=1.0, for_ms=-1.0)


def test_anomaly_rule_validates_parameters():
    signal = Signal("ops_total", mode="rate")
    with pytest.raises(ValueError, match="z must be"):
        AnomalyRule(name="r", signal=signal, z=0.0)
    with pytest.raises(ValueError, match="alpha"):
        AnomalyRule(name="r", signal=signal, alpha=0.0)
    with pytest.raises(ValueError, match="warmup"):
        AnomalyRule(name="r", signal=signal, warmup=1)
    with pytest.raises(ValueError, match="direction"):
        AnomalyRule(name="r", signal=signal, direction="sideways")


def test_burn_rate_rule_validates_windows_and_budget():
    bad = Signal("ops_failed_total", mode="delta")
    total = Signal("ops_total", mode="delta")
    with pytest.raises(ValueError, match="error_budget"):
        BurnRateRule(name="r", bad=bad, total=total, error_budget=1.5)
    with pytest.raises(ValueError, match="short window"):
        BurnRateRule(name="r", bad=bad, total=total,
                     long_ms=1_000.0, short_ms=2_000.0)
    with pytest.raises(ValueError, match="factor"):
        BurnRateRule(name="r", bad=bad, total=total, factor=0.0)


# -- JSON round-trips ---------------------------------------------------

def test_every_default_rule_roundtrips_through_json():
    for rule in default_rules():
        clone = rule_from_dict(rule_to_dict(rule))
        assert clone == rule, rule.name


def test_rule_from_dict_rejects_unknown_type_and_fields():
    with pytest.raises(ValueError, match="unknown rule type"):
        rule_from_dict({"type": "fancy", "name": "r"})
    with pytest.raises(ValueError):
        rule_from_dict({
            "type": "threshold", "name": "r",
            "signal": {"metric": "a", "mode": "gauge"},
            "threshold": 1.0, "bogus_field": 3,
        })


def test_save_and_load_rules_roundtrip(tmp_path):
    path = tmp_path / "rules.json"
    rules = default_rules()
    path.write_text(json.dumps({"rules": [rule_to_dict(r) for r in rules]}))
    assert load_rules(str(path)) == rules


def test_load_rules_rejects_duplicate_names():
    entry = rule_to_dict(default_rules()[0])
    with pytest.raises(ValueError, match="duplicate rule name"):
        load_rules({"rules": [entry, entry]})


# -- default catalog ----------------------------------------------------

def test_default_rules_include_burn_and_liveness_rules():
    names = {rule.name for rule in default_rules()}
    assert "error-burn-fast" in names
    assert "instance-terminations" in names


def _series(points):
    ts = TimeSeries()
    for t, values in points:
        ts.append(t, values)
    return ts


def test_signal_values_read_a_gap_until_the_family_appears():
    ts = _series([
        (0.0, {"other": 1.0}),
        (100.0, {"ops": 4.0}),
        (300.0, {"ops": 10.0}),
    ])
    assert Signal("ops", mode="gauge").values(ts) == [None, 4.0, 10.0]
    assert Signal("ops", mode="delta").values(ts) == [None, 4.0, 6.0]
    # The first sample has no dt; later ones divide by their interval.
    assert Signal("ops", mode="rate").values(ts) == [None, 40.0, 30.0]
    assert Signal("ops", mode="gap", divisor="other").values(ts) == \
        [-1.0, 4.0, 10.0]


def test_signal_values_two_family_modes_need_interval_data():
    ts = _series([
        (0.0, {"hits": 0.0, "misses": 0.0}),
        (100.0, {"hits": 3.0, "misses": 1.0}),
        (200.0, {"hits": 3.0, "misses": 1.0}),
    ])
    assert Signal("hits", mode="ratio", divisor="misses").values(ts) == \
        [None, 0.75, None]
    assert Signal("hits", mode="frac", divisor="misses").values(ts) == \
        [None, 3.0, None]


def test_signal_values_jain_counts_tenants_from_their_first_series():
    a, b = 'tops{tenant="a"}', 'tops{tenant="b"}'
    ts = _series([
        (0.0, {a: 4.0}),             # one tenant: no index yet
        (100.0, {a: 8.0, b: 4.0}),   # even shares
        (200.0, {b: 8.0}),           # a's value carries forward
    ])
    assert Signal("tops", mode="jain").values(ts) == [None, 1.0, 0.5]
