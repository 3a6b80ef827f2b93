"""Run chaos scenarios against a full λFS under a live workload.

One :func:`run_scenario` call builds a traced + telemetered system,
prewarms two NameNodes per deployment (so INV rounds always have a
remote member and ACK faults have something to bite), establishes TCP
connections with a short read prelude, starts the
:class:`~repro.chaos.engine.ChaosEngine` on the scenario, and drives
closed-loop clients issuing reads plus a slice of writes straight
through the fault window and the recovery window.  Clients catch only
the *typed* RPC errors (``ConnectionDropped`` / ``InstanceTerminated``
/ ``RequestTimeout``) — anything else propagates and fails the run.

The run ends at ``faults-clear + SLO window + drain`` at the latest;
an op still in flight at that point stays an *open* ``client.op``
span, which is exactly what the :class:`~repro.chaos.verifier
.ChaosVerifier` liveness gate looks for.

:func:`run_matrix` sweeps a list of scenarios (a
:data:`~repro.chaos.scenarios.FAMILIES` entry for ``repro chaos
matrix``) in fresh environments.  :func:`scenario_record` turns each
result into one baseline record, and :func:`baseline_drift` compares
records against a committed ``BENCH_<family>.json``, field by field.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Dict, Generator, List, Optional, Sequence, Tuple

from repro.bench.harness import build_lambdafs, drive
from repro.core import OpType
from repro.core.client import RequestTimeout
from repro.faas.platform import InstanceTerminated
from repro.namespace.treegen import TreeSpec, generate_tree
from repro.resilience import ResilienceConfig
from repro.rpc.connections import ConnectionDropped
from repro.sim import AllOf, AnyOf, Environment, RngStreams
from repro.tenants.context import TenantGovernor, TenantSpec, chaos_tenants
from repro.tenants.telemetry import install_tenant_telemetry
from repro.workloads import MicroBenchmark
from repro.workloads.multitenant import MultiTenantWorkload

from repro.chaos.engine import ChaosEngine, install_chaos
from repro.chaos.scenario import Scenario
from repro.chaos.verifier import ChaosVerifier, RecoverySLO, VerifierReport
from repro.datanode import DataNodeFleet, DataNodeFleetConfig

#: Fault kinds that only do anything against a DataNode fleet.
DATANODE_FAULT_KINDS = ("datanode_kill", "disk_slow")

#: Fault kinds that only do anything against a multi-tenant workload.
TENANT_FAULT_KINDS = ("tenant_flood",)

#: Fault kinds that only make sense with the resilience layer attached.
RESILIENCE_FAULT_KINDS = ("load_spike", "disable_shedding")


def scenario_needs_datanodes(scenario: Scenario) -> bool:
    """True when ``scenario`` injects data-plane faults."""
    return any(
        spec.kind in DATANODE_FAULT_KINDS for spec in scenario.faults
    )


def scenario_needs_tenants(scenario: Scenario) -> bool:
    """True when ``scenario`` injects tenant-scoped faults."""
    return any(
        spec.kind in TENANT_FAULT_KINDS for spec in scenario.faults
    )


def scenario_needs_resilience(scenario: Scenario) -> bool:
    """True when ``scenario`` injects overload/resilience faults."""
    return any(
        spec.kind in RESILIENCE_FAULT_KINDS for spec in scenario.faults
    )

#: Typed errors a chaos client absorbs and retries past.
RECOVERABLE_ERRORS = (ConnectionDropped, InstanceTerminated, RequestTimeout)


@dataclass(frozen=True)
class ChaosRunConfig:
    """Workload + system shape for one chaos run."""

    seed: int = 0
    clients: int = 24
    deployments: int = 4
    vcpus: float = 512.0
    instances_per_deployment: int = 2
    """Prewarm depth; ≥2 keeps a remote INV target alive per deployment."""
    write_fraction: float = 0.15
    """Slice of ops that are metadata writes (drive INV rounds)."""
    think_ms: float = 40.0
    """Mean closed-loop client think time between ops."""
    replacement_probability: float = 0.02
    """Client FaaS re-invoke probability (keeps the HTTP path warm)."""
    telemetry_interval_ms: float = 250.0
    prelude_ops: int = 12
    """Per-client warm-up reads before the scenario starts (establishes
    TCP connections and populates caches; excluded from the SLO
    baseline, which starts at the engine epoch)."""
    drain_ms: float = 8_000.0
    """Grace beyond the SLO window before the run is cut off; ops
    still in flight then are hung by definition."""
    tree: TreeSpec = field(default_factory=lambda: TreeSpec(depth=3))
    slo: RecoverySLO = field(default_factory=RecoverySLO)
    datanodes: Optional[int] = None
    """DataNode fleet size.  None = auto: 9 when the scenario injects
    data-plane faults, 0 (no fleet, the legacy byte-identical
    configuration) otherwise.  Explicit 0 always disables."""
    datanode_racks: int = 3
    datanode_start: bool = True
    """False attaches the fleet without spawning any of its processes
    (the attached-but-idle determinism regression)."""
    chunk_write_fraction: float = 0.25
    """Slice of ops that are pipelined chunk writes (only drawn when a
    fleet is attached and this is > 0 — a zero fraction consumes no
    extra randomness, keeping fleet-less streams unchanged)."""
    tenants: Optional[Tuple[TenantSpec, ...]] = None
    """Multi-tenant mode.  None = auto: the :func:`~repro.tenants
    .context.chaos_tenants` cast when the scenario injects tenant
    faults, single-tenant (the legacy byte-identical configuration)
    otherwise.  An empty tuple always disables; a non-empty tuple
    forces tenant mode (``config.clients`` is then ignored — each
    spec sizes its own fleet)."""
    governor_headroom: float = 2.0
    """QoS governor budget per tenant, as a multiple of its nominal
    demand (see :meth:`TenantGovernor.for_tenants`)."""
    governor_burst_ms: float = 250.0
    resilience: Optional[ResilienceConfig] = None
    """Resilience layer.  None = auto: a default
    :class:`~repro.resilience.ResilienceConfig` when the scenario
    injects overload faults, detached (the legacy byte-identical
    configuration) otherwise.  An explicit config always attaches."""
    detect: bool = False
    """Attach the :class:`repro.incidents.AlertEngine` to the sampler
    (the single-``is None`` ``on_sample`` hook), evaluate alert rules
    online, and run incident grouping + root-cause attribution after
    the run.  Adds no sim events and draws no RNG, so the event hash
    and fault-log hash are byte-identical either way — and the
    verifier gains the detection gate (gate 6)."""
    ruleset: str = "default"
    """Named rule catalog from :data:`repro.incidents.RULESETS`."""
    profile: bool = False
    """Attribute every op's critical path after the run (slower; the
    per-tenant stage breakdown of ``repro tenants --profile``).  Reads
    only the finished trace, so hashes are byte-identical either way."""


@dataclass
class ChaosRunResult:
    """Everything one scenario run produced."""

    scenario: Scenario
    report: VerifierReport
    engine: ChaosEngine
    ops_ok: int
    ops_failed: int
    errors: Dict[str, int]
    duration_ms: float
    event_hash: str
    log_hash: str
    fleet: Optional[object] = None
    """The :class:`repro.datanode.DataNodeFleet`, when one ran."""
    tenant_counts: Optional[Dict[str, object]] = None
    """Tenant → :class:`repro.workloads.multitenant.TenantCounts`
    when the run was multi-tenant."""
    telemetry: Optional[object] = None
    """The run's :class:`repro.telemetry.Telemetry` bundle (registry +
    sampled series), for post-run analysis and export."""
    profile: Optional[object] = None
    """The critical-path :class:`repro.profile.Profile` of a
    ``profile`` or ``detect`` run; None otherwise."""
    incidents: Optional[object] = None
    """The :class:`repro.incidents.IncidentReport` of a ``detect``
    run; None when detection was off."""
    resilience: Optional[Dict[str, object]] = None
    """:meth:`ResilienceManager.snapshot` of a resilience run; None
    when the layer was detached."""

    @property
    def passed(self) -> bool:
        return self.report.passed

    def summary(self) -> str:
        errors = ", ".join(
            f"{name}={count}" for name, count in sorted(self.errors.items())
        ) or "none"
        line = (
            f"{self.scenario.name}: {'PASS' if self.passed else 'FAIL'} "
            f"ok={self.ops_ok} failed={self.ops_failed} "
            f"errors=[{errors}] t={self.duration_ms:.0f}ms "
            f"events={self.event_hash[:12]} faults={self.log_hash[:12]}"
        )
        if self.incidents is not None:
            mttd = self.incidents.mttd_ms
            line += (
                f" incidents={len(self.incidents.incidents)}"
                + (f" mttd={mttd:.0f}ms" if mttd is not None else "")
            )
        if self.resilience is not None:
            line += (
                f" sheds={self.resilience['sheds']}"
                f" breaker_opens={self.resilience['breaker_opens']}"
            )
        return line


def _client_loop(
    env: Environment,
    client,
    paths: Sequence[str],
    rng,
    issue_until: float,
    config: ChaosRunConfig,
    counts: Dict[str, int],
    errors: Dict[str, int],
    fleet=None,
) -> Generator:
    # The chunk-write draw only exists when it can matter; with no
    # fleet the stream consumes exactly one draw per op, as before.
    chunk_writes = fleet is not None and config.chunk_write_fraction > 0.0
    while env.now < issue_until:
        path = paths[rng.randrange(len(paths))]
        try:
            if chunk_writes and rng.random() < config.chunk_write_fraction:
                response = yield from client.write_block(path)
            elif rng.random() < config.write_fraction:
                response = yield from client.set_permission(path, 0o644)
            else:
                response = yield from client.read_file(path)
            counts["ok" if response.ok else "failed"] += 1
        except RECOVERABLE_ERRORS as exc:
            counts["failed"] += 1
            name = type(exc).__name__
            errors[name] = errors.get(name, 0) + 1
        if config.think_ms > 0:
            think = rng.uniform(0.5 * config.think_ms, 1.5 * config.think_ms)
            # Demand-surge query; outside a load_spike window this is
            # exactly 1.0, so the multiply is a bit-exact identity and
            # legacy scenario hashes are untouched.
            chaos = env.chaos
            if chaos is not None:
                think *= chaos.think_factor()
            yield env.timeout(think)


def run_scenario(
    scenario: Scenario,
    config: Optional[ChaosRunConfig] = None,
) -> ChaosRunResult:
    """Build a fresh system, run ``scenario`` under load, verify."""
    config = config or ChaosRunConfig()
    env = Environment()
    tenant_specs = config.tenants
    if tenant_specs is None:
        tenant_specs = (
            chaos_tenants() if scenario_needs_tenants(scenario) else ()
        )
    workload = None
    if tenant_specs:
        workload = MultiTenantWorkload(
            env, tenant_specs, seed=config.seed,
            absorb_errors=RECOVERABLE_ERRORS,
        )
        tree = workload.namespace()
    else:
        tree = generate_tree(replace(config.tree, seed=config.seed))
    datanodes = config.datanodes
    if datanodes is None:
        datanodes = 9 if scenario_needs_datanodes(scenario) else 0
    resilience_config = config.resilience
    if resilience_config is None and scenario_needs_resilience(scenario):
        resilience_config = ResilienceConfig()
    fleet_config = None
    build_extra = {}
    if datanodes > 0:
        fleet_config = DataNodeFleetConfig(
            count=datanodes, racks=config.datanode_racks
        )
        if config.datanode_start:
            # A *running* fleet replaces the legacy report publisher;
            # a stale-row filter makes the NameNodes drop DataNodes
            # that stopped publishing (i.e. died).  An attached-but-
            # idle fleet publishes nothing, so the build must stay
            # byte-identical to the fleet-less configuration.
            build_extra = {
                "datanode_overrides": {"count": 0},
                "namenode_overrides": {
                    "datanode_stale_after_ms":
                        2.0 * fleet_config.publish_interval_ms,
                },
            }
    handle = build_lambdafs(
        env,
        tree,
        vcpus=config.vcpus,
        deployments=config.deployments,
        seed=config.seed,
        client_overrides={
            "replacement_probability": config.replacement_probability,
        },
        trace=True,
        telemetry=True,
        telemetry_interval_ms=config.telemetry_interval_ms,
        resilience=resilience_config,
        **build_extra,
    )
    fs = handle.system
    detector = None
    if config.detect:
        # Online detection: the engine rides the sampler's on_sample
        # hook — pure arithmetic per sample, no events, no RNG — and
        # mirrors firing state back into the same registry so
        # alerts_firing/alerts_fired_total land in the exports.
        from repro.incidents import AlertEngine, get_ruleset

        detector = handle.telemetry.attach_detector(
            AlertEngine(get_ruleset(config.ruleset),
                        registry=handle.telemetry.registry)
        )
    fleet = None
    if fleet_config is not None:
        fleet = DataNodeFleet(
            env, fleet_config, seed=config.seed, store=fs.store
        )
        fs.datanode_fleet = fleet
        if config.datanode_start:
            fleet.start()
    clients = handle.make_clients(
        workload.total_clients() if workload is not None else config.clients
    )
    if workload is not None:
        install_tenant_telemetry(
            env.metrics, [spec.name for spec in tenant_specs]
        )
    drive(env, fs.prewarm(config.instances_per_deployment))
    if config.prelude_ops > 0:
        # Prelude runs before clients are tenant-tagged, so its warm-up
        # reads stay out of the per-tenant series (and the SLO baseline
        # starts clean at the engine epoch either way).
        bench = MicroBenchmark(env, tree, seed=config.seed)
        drive(
            env,
            bench.run(clients, OpType.READ_FILE, 0, config.prelude_ops),
        )

    engine = install_chaos(env, system=fs, seed=config.seed)
    engine.start(scenario)
    epoch = env.now
    clear = epoch + scenario.clear_ms
    issue_until = clear + config.slo.window_ms
    deadline = issue_until + config.drain_ms

    counts = {"ok": 0, "failed": 0}
    errors: Dict[str, int] = {}
    if workload is not None:
        # Tenant mode: the governor is the QoS isolation under test
        # (``tenant_flood``'s ``disable_isolation`` kills it via
        # ``engine.governor``), and the flood lookup turns the noisy
        # tenant's loops into a storm while the fault is active.
        governor = TenantGovernor.for_tenants(
            env, tenant_specs,
            headroom=config.governor_headroom,
            burst_ms=config.governor_burst_ms,
        )
        engine.governor = governor
        workload.governor = governor
        workload.flood_think = engine.tenant_flood_think_ms
        fleets = workload.partition_clients(clients)
        done = env.process(
            workload.run(fleets, issue_until - env.now)
        )
    else:
        rngs = RngStreams(config.seed)
        workers = [
            env.process(_client_loop(
                env, client, tree.files,
                rngs.stream(f"chaos-client:{index}"),
                issue_until, config, counts, errors,
                fleet=fleet if config.datanode_start else None,
            ))
            for index, client in enumerate(clients)
        ]
        done = AllOf(env, workers)
    # Stop at the deadline even if some op hangs forever — a hung op
    # must not hang the harness, it must show up in the verifier.
    cutoff = env.timeout(deadline - env.now)
    drive(env, _await_any(env, done, cutoff))

    if workload is not None:
        for tally in workload.counts.values():
            counts["ok"] += tally.ok
            counts["failed"] += tally.failed
            for name, count in tally.errors.items():
                errors[name] = errors.get(name, 0) + count

    engine.stop()
    handle.telemetry.stop()
    profile = None
    if config.profile or detector is not None:
        from repro.profile import analyze_trace

        profile = analyze_trace(handle.tracer)
    incident_report = None
    if detector is not None:
        from repro.incidents import Evidence, build_report

        alerts = detector.finish(env.now)
        evidence = Evidence(
            fault_log=engine.log,
            profile=profile,
            timeseries=handle.telemetry.timeseries,
        )
        incident_report = build_report(
            alerts, evidence,
            scenario=scenario.name,
            seed=config.seed,
            first_fault_at_ms=engine.first_fault_at_ms,
            end_ms=env.now,
        )
    verifier = ChaosVerifier(
        tracer=handle.tracer,
        timeseries=handle.telemetry.timeseries,
        engine=engine,
        slo=config.slo,
        fleet=fleet if config.datanode_start else None,
        tenants=tenant_specs if workload is not None else None,
        incidents=incident_report,
        resilience=fs.resilience,
    )
    report = verifier.verify()
    return ChaosRunResult(
        scenario=scenario,
        report=report,
        engine=engine,
        ops_ok=counts["ok"],
        ops_failed=counts["failed"],
        errors=errors,
        duration_ms=env.now,
        event_hash=handle.tracer.event_hash(),
        log_hash=engine.log_hash(),
        fleet=fleet,
        tenant_counts=dict(workload.counts) if workload is not None else None,
        telemetry=handle.telemetry,
        profile=profile,
        incidents=incident_report,
        resilience=(
            fs.resilience.snapshot() if fs.resilience is not None else None
        ),
    )


def _await_any(env: Environment, *events) -> Generator:
    yield AnyOf(env, list(events))


def run_matrix(
    scenarios: Sequence[Scenario],
    config: Optional[ChaosRunConfig] = None,
) -> List[ChaosRunResult]:
    """Run each scenario in a fresh environment; collect results."""
    return [run_scenario(scenario, config) for scenario in scenarios]


def scenario_record(result: ChaosRunResult) -> Dict[str, object]:
    """One scenario's baseline record: verdict, counters, and hashes.

    The base fields come from every run; the detection, tenant, fleet
    and resilience blocks are added only when the run produced that
    evidence.
    """
    from repro.chaos.scenarios import EXPECTED_FAIL

    report = result.report
    record: Dict[str, object] = {
        "passed": result.passed,
        "expected_fail": result.scenario.name in EXPECTED_FAIL,
        "ops_ok": result.ops_ok,
        "ops_failed": result.ops_failed,
        "errors": result.errors,
        "checks": report.checks,
        "hung_ops": len(report.hung_ops),
        "recovery_time_ms": report.recovery_time_ms,
        "duration_ms": result.duration_ms,
        "event_hash": result.event_hash,
        "fault_log_hash": result.log_hash,
    }
    if result.incidents is not None:
        record.update({
            "incidents": len(result.incidents.incidents),
            "alerts": result.incidents.alerts_total,
            "mttd_ms": result.incidents.mttd_ms,
            "top_suspect": report.top_suspect,
        })
    if result.tenant_counts is not None:
        record.update({
            "tenants": {
                tenant: {"issued": c.issued, "ok": c.ok,
                         "failed": c.failed, "errors": c.errors}
                for tenant, c in sorted(result.tenant_counts.items())
            },
            "jain_min": report.jain_min,
            "jain_recovered": report.jain_recovered,
            "baseline_victim_p99_ms": report.baseline_victim_p99_ms,
            "recovered_victim_p99_ms": report.recovered_victim_p99_ms,
            "fairness_recovery_ms": report.fairness_recovery_ms,
        })
    if result.fleet is not None:
        record.update({
            "datanodes": len(result.fleet.nodes),
            "datanodes_dead": len(result.fleet.tracker.dead()),
            "blocks": len(result.fleet.blocks),
            "repairs": len(result.fleet.scanner.records),
            "lost_blocks": sorted(result.fleet.scanner.lost),
            "replication_recovery_ms": report.replication_recovery_ms,
        })
    if result.resilience is not None:
        snap = result.resilience
        record.update({
            "shed": snap["sheds"],
            "deadline_expirations": snap["deadline_expirations"],
            "deadline_violations": report.deadline_violations,
            "breaker_opened": snap["breaker_opens"] > 0,
            "breaker_opens": snap["breaker_opens"],
            "breaker_transitions": snap["breaker_transitions"],
            "stale_reads": snap["stale_reads"],
            "budget_exhaustions": snap["budget_exhaustions"],
            "baseline_goodput": report.baseline_goodput,
            "recovered_goodput": report.recovered_goodput,
        })
    return record


_ABSENT = "<absent>"


def baseline_drift(
    records: Dict[str, Dict[str, object]],
    baseline: Dict[str, Dict[str, object]],
) -> List[str]:
    """Every difference between a run's records and a baseline's.

    Whole records are compared, ``event_hash`` and ``fault_log_hash``
    included.  A baseline scenario the run did not produce, or a run
    scenario the baseline lacks, is drift too.  Returns one line per
    difference; empty means the run reproduced the baseline.
    """
    # Round-trip through JSON so tuples compare equal to the lists a
    # baseline file holds.
    records = json.loads(json.dumps(records))
    drift = []
    for name in sorted(set(baseline) | set(records)):
        if name not in records:
            drift.append(f"{name}: in the baseline but not in the run")
            continue
        if name not in baseline:
            drift.append(f"{name}: in the run but not in the baseline")
            continue
        expected, got = baseline[name], records[name]
        for key in sorted(set(expected) | set(got)):
            before, after = expected.get(key, _ABSENT), got.get(key, _ABSENT)
            if before != after:
                drift.append(f"{name}: {key} {before!r} -> {after!r}")
    return drift
