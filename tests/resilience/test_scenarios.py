"""End-to-end metastable-overload runs through the chaos gate.

The acceptance pair for the resilience layer: under the canonical
convoy-prone workload the ``metastable-brownout`` scenario must PASS
gate 7 with enforcement on, and its ``-noshed`` twin (the
``disable_shedding`` latch flips enforcement off mid-run while the
observational tripwires keep counting) must FAIL it — for the honest
reason that ops ground past their stamped deadlines.
"""

import pytest

from repro.chaos import FAMILIES, builtin_scenarios, run_scenario

CONVOY = FAMILIES["resilience"].config

pytestmark = [pytest.mark.resilience, pytest.mark.chaos, pytest.mark.slow]


def test_metastable_brownout_passes_with_enforcement(reset_sim_counters):
    result = run_scenario(
        builtin_scenarios()["metastable-brownout"], CONVOY
    )
    assert result.passed, result.report.render()
    snapshot = result.resilience
    # Enforcement stayed latched on and did real work: the brownout
    # tripped shard breakers, and not one op committed past deadline.
    assert snapshot["enabled"]
    assert snapshot["breaker_opens"] > 0
    assert snapshot["deadline_violations"] == 0
    assert result.report.breaker_transitions > 0


def test_noshed_twin_fails_with_deadline_violations(reset_sim_counters):
    result = run_scenario(
        builtin_scenarios()["metastable-brownout-noshed"],
        CONVOY,
    )
    assert not result.passed
    snapshot = result.resilience
    # The latch stood enforcement down...
    assert not snapshot["enabled"]
    # ...but the observational side kept counting: work the deadline
    # already wrote off still committed, and gate 7 names it.
    assert snapshot["deadline_violations"] > 0
    assert any(
        "past their deadline" in failure for failure in result.report.failures
    )


def test_resilience_scenarios_are_deterministic(reset_sim_counters):
    config = CONVOY
    scenario = builtin_scenarios()["metastable-brownout"]
    first = run_scenario(scenario, config)
    reset_sim_counters()
    second = run_scenario(scenario, config)
    assert first.event_hash == second.event_hash
    assert first.log_hash == second.log_hash
    assert first.resilience == second.resilience
