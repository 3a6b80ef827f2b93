"""Multi-layer chaos engineering for the simulated λFS stack.

Deterministic, composable fault injection with recovery verification:

- :mod:`repro.chaos.scenario` — the scenario DSL (:class:`FaultSpec`,
  :class:`Scenario`) and its JSON form;
- :mod:`repro.chaos.faults` — the fault catalog (TCP fabric, HTTP
  gateway, metastore shards, coordinator, FaaS platform) and the
  §5.6 :class:`NameNodeKiller`;
- :mod:`repro.chaos.engine` — :class:`ChaosEngine`, which walks a
  scenario's activation edges on the sim clock and answers injection
  queries from the instrumented sites;
- :mod:`repro.chaos.verifier` — :class:`ChaosVerifier`, the post-run
  invariants / liveness / recovery-SLO gates;
- :mod:`repro.chaos.runner` — end-to-end scenario runs under load
  (``repro chaos run`` / ``repro chaos matrix``), the baseline record
  schema and the drift gate;
- :mod:`repro.chaos.scenarios` — the built-in catalog and the
  regression :data:`~repro.chaos.scenarios.FAMILIES`.
"""

from repro.chaos.engine import ChaosEngine, FaultEvent, install_chaos
from repro.chaos.faults import (
    FAULT_TYPES,
    VICTIM_POLICIES,
    Fault,
    KillRecord,
    NameNodeKiller,
    derive_rng,
    make_fault,
    pick_victim,
    validate_scenario,
)
from repro.chaos.runner import (
    RECOVERABLE_ERRORS,
    ChaosRunConfig,
    ChaosRunResult,
    baseline_drift,
    run_matrix,
    run_scenario,
    scenario_record,
    scenario_needs_datanodes,
    scenario_needs_resilience,
    scenario_needs_tenants,
)
from repro.chaos.scenario import (
    FaultSpec,
    Scenario,
    load_scenario,
    save_scenario,
)
from repro.chaos.scenarios import (
    EXPECTED_FAIL,
    FAMILIES,
    Family,
    builtin_scenarios,
    family_of,
    get_scenario,
)
from repro.chaos.verifier import ChaosVerifier, RecoverySLO, VerifierReport

__all__ = [
    "ChaosEngine",
    "ChaosRunConfig",
    "ChaosRunResult",
    "ChaosVerifier",
    "EXPECTED_FAIL",
    "FAMILIES",
    "FAULT_TYPES",
    "Family",
    "Fault",
    "FaultEvent",
    "FaultSpec",
    "KillRecord",
    "NameNodeKiller",
    "RECOVERABLE_ERRORS",
    "RecoverySLO",
    "Scenario",
    "VICTIM_POLICIES",
    "VerifierReport",
    "baseline_drift",
    "builtin_scenarios",
    "derive_rng",
    "family_of",
    "get_scenario",
    "install_chaos",
    "load_scenario",
    "make_fault",
    "pick_victim",
    "run_matrix",
    "run_scenario",
    "save_scenario",
    "scenario_record",
    "scenario_needs_datanodes",
    "scenario_needs_resilience",
    "scenario_needs_tenants",
    "validate_scenario",
]
