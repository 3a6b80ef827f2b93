"""The scenario pipeline: one record schema, one drift gate, one CLI.

Fast tests — records are built from stand-in results, so nothing here
runs a simulation.
"""

from types import SimpleNamespace

import pytest

from repro.chaos import (
    FAMILIES,
    Scenario,
    baseline_drift,
    builtin_scenarios,
    family_of,
    scenario_record,
)
from repro.cli import _chaos_run_config, build_parser, main

pytestmark = pytest.mark.chaos

BASE_FIELDS = {
    "passed", "expected_fail", "ops_ok", "ops_failed", "errors", "checks",
    "hung_ops", "recovery_time_ms", "duration_ms", "event_hash",
    "fault_log_hash", "outcome_digest",
}
DETECTION_FIELDS = {"incidents", "alerts", "mttd_ms", "top_suspect"}
TENANT_FIELDS = {
    "tenants", "jain_min", "jain_recovered", "baseline_victim_p99_ms",
    "recovered_victim_p99_ms", "fairness_recovery_ms",
}
FLEET_FIELDS = {
    "datanodes", "datanodes_dead", "blocks", "repairs", "lost_blocks",
    "replication_recovery_ms",
}
RESILIENCE_FIELDS = {
    "shed", "deadline_expirations", "deadline_violations",
    "breaker_opened", "breaker_opens", "breaker_transitions",
    "stale_reads", "budget_exhaustions", "baseline_goodput",
    "recovered_goodput",
}


def _result(name="ack-loss", **evidence):
    """A stand-in ChaosRunResult carrying only the requested evidence."""
    report = SimpleNamespace(
        checks=["PASS invariants: 0 violations"],
        hung_ops=[],
        recovery_time_ms=97.5,
        top_suspect="fault:ack_loss",
        jain_min=0.6,
        jain_recovered=0.85,
        baseline_victim_p99_ms=15.0,
        recovered_victim_p99_ms=10.0,
        fairness_recovery_ms=100.0,
        replication_recovery_ms=3_300.0,
        deadline_violations=0,
        baseline_goodput=270.0,
        recovered_goodput=272.0,
    )
    return SimpleNamespace(
        scenario=Scenario(name, faults=()),
        report=report,
        passed=True,
        ops_ok=10,
        ops_failed=0,
        errors={},
        duration_ms=1_000.0,
        event_hash="e" * 32,
        log_hash="f" * 32,
        outcome_digest="d" * 32,
        incidents=evidence.get("incidents"),
        tenant_counts=evidence.get("tenant_counts"),
        fleet=evidence.get("fleet"),
        resilience=evidence.get("resilience"),
    )


def _fleet():
    return SimpleNamespace(
        nodes=[1, 2, 3],
        tracker=SimpleNamespace(dead=lambda: [2]),
        blocks={"b1": None},
        scanner=SimpleNamespace(records=[object()], lost={"b9", "b3"}),
    )


EVIDENCE = {
    "incidents": (
        SimpleNamespace(incidents=[object()], alerts_total=2, mttd_ms=99.0),
        DETECTION_FIELDS,
    ),
    "tenant_counts": (
        {"hog": SimpleNamespace(issued=3, ok=3, failed=0, errors={})},
        TENANT_FIELDS,
    ),
    "fleet": (_fleet(), FLEET_FIELDS),
    "resilience": (
        {"sheds": 1, "deadline_expirations": 2, "breaker_opens": 3,
         "breaker_transitions": 6, "stale_reads": 0,
         "budget_exhaustions": 0},
        RESILIENCE_FIELDS,
    ),
}


def test_scenario_record_has_only_the_base_fields_without_evidence():
    record = scenario_record(_result())
    assert set(record) == BASE_FIELDS
    assert record["hung_ops"] == 0
    assert record["fault_log_hash"] == "f" * 32
    assert record["expected_fail"] is False
    assert scenario_record(_result("ack-loss-noretry"))["expected_fail"]


@pytest.mark.parametrize("kind", sorted(EVIDENCE))
def test_scenario_record_adds_each_block_only_with_its_evidence(kind):
    evidence, fields = EVIDENCE[kind]
    record = scenario_record(_result(**{kind: evidence}))
    assert set(record) == BASE_FIELDS | fields


def test_scenario_record_evidence_values():
    record = scenario_record(_result(**{
        kind: evidence for kind, (evidence, _) in EVIDENCE.items()
    }))
    assert record["incidents"] == 1 and record["alerts"] == 2
    assert record["tenants"]["hog"] == {
        "issued": 3, "ok": 3, "failed": 0, "errors": {},
    }
    assert record["datanodes_dead"] == 1
    assert record["repairs"] == 1
    assert record["lost_blocks"] == ["b3", "b9"]
    assert record["shed"] == 1
    assert record["breaker_opened"] is True


def _records():
    return {
        "ack-loss": scenario_record(_result()),
        "control": scenario_record(_result("control")),
    }


def test_baseline_drift_passes_identical_records():
    records = _records()
    records["ack-loss"]["lost_blocks"] = ("a", "b")  # tuple vs JSON list
    baseline = _records()
    baseline["ack-loss"]["lost_blocks"] = ["a", "b"]
    assert baseline_drift(records, baseline) == ([], [])


@pytest.mark.parametrize("field", ["event_hash", "fault_log_hash"])
def test_baseline_drift_flags_a_hash_only_change(field):
    records = _records()
    before = records["control"][field]
    records["control"][field] = "0" * 32
    drift = baseline_drift(records, _records())
    line = f"control: {field} {before!r} -> {'0' * 32!r}"
    # Only the event hash is schedule drift; a fault-log hash that
    # moved is an outcome that moved.
    if field == "event_hash":
        assert drift == ([line], [])
    else:
        assert drift == ([], [line])


def test_baseline_drift_counts_a_moved_outcome_digest_as_outcome_drift():
    records = _records()
    records["ack-loss"]["event_hash"] = "0" * 32
    records["ack-loss"]["outcome_digest"] = "1" * 32
    drift = baseline_drift(records, _records())
    assert drift.schedule == [f"ack-loss: event_hash {'e' * 32!r} -> {'0' * 32!r}"]
    assert drift.outcome == [
        f"ack-loss: outcome_digest {'d' * 32!r} -> {'1' * 32!r}"
    ]


def test_baseline_drift_flags_a_scenario_missing_from_the_run():
    records = _records()
    del records["control"]
    assert baseline_drift(records, _records()) == (
        [], ["control: in the baseline but not in the run"]
    )


def test_baseline_drift_flags_added_and_removed_fields():
    baseline = _records()
    records = _records()
    records["ack-loss"]["new_field"] = 1
    del records["ack-loss"]["hung_ops"]
    drift = baseline_drift(records, baseline)
    assert drift.schedule == []
    assert "ack-loss: hung_ops 0 -> '<absent>'" in drift.outcome
    assert "ack-loss: new_field '<absent>' -> 1" in drift.outcome


def test_every_family_scenario_belongs_to_exactly_that_family():
    for family, spec in FAMILIES.items():
        for name in spec.scenarios:
            assert family_of(name) == family
    assert family_of("no-such-scenario") is None


def test_every_builtin_scenario_is_in_exactly_one_family():
    listed = [name for spec in FAMILIES.values() for name in spec.scenarios]
    assert sorted(listed) == sorted(builtin_scenarios())


def test_unknown_family_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["chaos", "matrix", "--family", "nope"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_chaos_run_list_shows_every_family(capsys):
    assert main(["chaos", "run", "--list"]) == 0
    out = capsys.readouterr().out
    for family, spec in FAMILIES.items():
        for name in spec.scenarios:
            line = next(
                row for row in out.splitlines() if row.startswith(name + " ")
            )
            assert family in line.split()


def test_resilience_family_resolves_to_the_convoy_shape():
    for argv, family in (
        (["chaos", "matrix", "--family", "resilience"], "resilience"),
        (["chaos", "run", "overload-storm"], family_of("overload-storm")),
    ):
        config = _chaos_run_config(build_parser().parse_args(argv), family)
        assert config.clients == 48
        assert config.write_fraction == 0.5
        assert config.slo.window_ms == 8_000.0
        assert config.tree.depth == 1
        assert not config.detect


def test_explicit_knobs_override_the_family_shape():
    args = build_parser().parse_args([
        "chaos", "run", "ack-loss", "--clients", "12", "--window", "4000",
        "--no-detect",
    ])
    config = _chaos_run_config(args, family_of("ack-loss"))
    assert config.clients == 12
    assert config.slo.window_ms == 4_000.0
    assert not config.detect
    chaos = _chaos_run_config(
        build_parser().parse_args(["chaos", "run", "ack-loss"]), "chaos"
    )
    assert chaos == FAMILIES["chaos"].config and chaos.detect
