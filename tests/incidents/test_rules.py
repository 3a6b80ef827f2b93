"""The rule DSL: validation, JSON round-trips, the default catalog."""

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
    rules_to_json,
    save_rules,
)

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
    path = str(tmp_path / "rules.json")
    rules = default_rules()
    save_rules(rules, path)
    assert load_rules(path) == rules


def test_load_rules_rejects_duplicate_names():
    entry = rule_to_dict(default_rules()[0])
    with pytest.raises(ValueError, match="duplicate rule name"):
        load_rules({"rules": [entry, entry]})


def test_rules_to_json_is_versioned():
    import json
    doc = json.loads(rules_to_json(default_rules()))
    assert doc["version"] == 1
    assert len(doc["rules"]) == len(default_rules())


# -- default catalog ----------------------------------------------------

def test_default_rules_include_burn_and_liveness_rules():
    names = {rule.name for rule in default_rules()}
    assert "error-burn-fast" in names
    assert "instance-terminations" in names
