"""Scenario DSL: validation, JSON round-trips, built-in catalog."""

import json

import pytest

from repro.chaos import (
    EXPECTED_FAIL,
    FAMILIES,
    FaultSpec,
    Scenario,
    builtin_scenarios,
    get_scenario,
    load_scenario,
    make_fault,
)

pytestmark = pytest.mark.chaos


def validate_scenario(scenario):
    """Build every fault of ``scenario``: construction validates."""
    for spec in scenario.faults:
        make_fault(spec)


def test_fault_spec_rejects_negative_times():
    with pytest.raises(ValueError):
        FaultSpec("tcp_drop", at_ms=-1.0)
    with pytest.raises(ValueError):
        FaultSpec("tcp_drop", at_ms=0.0, duration_ms=-5.0)


def test_fault_spec_clear_ms():
    spec = FaultSpec("tcp_drop", at_ms=100.0, duration_ms=250.0)
    assert spec.clear_ms == 350.0
    assert FaultSpec("tcp_sever", at_ms=10.0).clear_ms == 10.0


def test_fault_spec_dict_round_trip_omits_defaults():
    spec = FaultSpec("tcp_sever", at_ms=10.0)
    assert spec.to_dict() == {"kind": "tcp_sever", "at_ms": 10.0}
    full = FaultSpec("tcp_drop", at_ms=1.0, duration_ms=2.0, params={"p": 0.3})
    assert FaultSpec.from_dict(full.to_dict()) == full


def test_fault_spec_from_dict_rejects_unknown_and_missing_fields():
    with pytest.raises(ValueError, match="unknown"):
        FaultSpec.from_dict({"kind": "tcp_drop", "at_ms": 1.0, "when": 2.0})
    with pytest.raises(ValueError, match="requires"):
        FaultSpec.from_dict({"kind": "tcp_drop"})


def test_scenario_requires_name():
    with pytest.raises(ValueError):
        Scenario(name="", faults=())


def test_scenario_window_properties():
    scenario = Scenario("s", faults=(
        FaultSpec("tcp_sever", at_ms=500.0),
        FaultSpec("tcp_drop", at_ms=100.0, duration_ms=900.0),
    ))
    assert scenario.first_fault_ms == 100.0
    assert scenario.clear_ms == 1_000.0
    empty = Scenario("empty", faults=())
    assert empty.first_fault_ms == float("inf")
    assert empty.clear_ms == 0.0


def test_scenario_json_round_trip(tmp_path):
    scenario = Scenario(
        "round-trip",
        faults=(
            FaultSpec("tcp_drop", at_ms=1.0, duration_ms=2.0,
                      params={"p": 0.25, "deployment": "d0"}),
            FaultSpec("tcp_sever", at_ms=3.0),
        ),
        description="desc",
    )
    path = tmp_path / "s.json"
    path.write_text(json.dumps(scenario.to_dict()))
    assert load_scenario(str(path)) == scenario


def test_scenario_from_dict_validates_shape():
    with pytest.raises(ValueError, match="name"):
        Scenario.from_dict({"faults": []})
    with pytest.raises(ValueError, match="list"):
        Scenario.from_dict({"name": "x", "faults": {"kind": "tcp_drop"}})


def test_validate_scenario_unknown_kind():
    bad = Scenario("bad", faults=(FaultSpec("meteor_strike", at_ms=0.0),))
    with pytest.raises(ValueError, match="unknown fault kind"):
        validate_scenario(bad)


def test_validate_scenario_unknown_param():
    bad = Scenario("bad", faults=(
        FaultSpec("tcp_drop", at_ms=0.0, duration_ms=1.0,
                  params={"probability": 0.5}),
    ))
    with pytest.raises(ValueError, match="unknown param"):
        validate_scenario(bad)


def test_validate_scenario_requires_duration_where_needed():
    bad = Scenario("bad", faults=(FaultSpec("tcp_drop", at_ms=0.0),))
    with pytest.raises(ValueError, match="duration_ms"):
        validate_scenario(bad)


def test_validate_scenario_probability_bounds():
    bad = Scenario("bad", faults=(
        FaultSpec("ack_loss", at_ms=0.0, duration_ms=1.0, params={"p": 1.5}),
    ))
    with pytest.raises(ValueError, match="\\[0, 1\\]"):
        validate_scenario(bad)


def test_validate_scenario_victim_policy():
    bad = Scenario("bad", faults=(
        FaultSpec("namenode_kill", at_ms=0.0, duration_ms=1.0,
                  params={"policy": "eldest"}),
    ))
    with pytest.raises(ValueError, match="policy"):
        validate_scenario(bad)


def test_builtin_catalog_is_valid_and_covers_the_matrix():
    scenarios = builtin_scenarios()
    for scenario in scenarios.values():
        validate_scenario(scenario)
    matrix = FAMILIES["chaos"].scenarios
    for family in FAMILIES.values():
        for name in family.scenarios:
            assert name in scenarios
    for name in EXPECTED_FAIL:
        assert name in scenarios
        assert name not in matrix
    # The chaos family spans the required layers: FaaS kills, TCP
    # fabric, HTTP gateway, metastore shard, coordinator ACKs.
    kinds = {
        spec.kind for name in matrix for spec in scenarios[name].faults
    }
    assert {"namenode_kill", "tcp_sever", "http_brownout",
            "shard_outage", "ack_loss"} <= kinds


def test_get_scenario_unknown_name():
    assert get_scenario("ack-loss").name == "ack-loss"
    with pytest.raises(KeyError):
        get_scenario("nope")
