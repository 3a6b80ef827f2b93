"""Multi-tenant runs end-to-end: telemetry, hashes, profiles.

Tenant runs go through the scenario pipeline: the no-fault
``control`` scenario with a tenant cast, as ``repro tenants`` runs it.
"""

from dataclasses import replace

import pytest

from repro.bench.harness import build_lambdafs, drive
from repro.chaos import ChaosRunConfig, RecoverySLO, get_scenario, run_scenario
from repro.namespace.treegen import TreeSpec
from repro.sim import Environment
from repro.tenants import TenantGovernor, TenantSpec, summarize
from repro.workloads.multitenant import WORKLOAD_MIXES, MultiTenantWorkload

pytestmark = [pytest.mark.tenant, pytest.mark.slow]


SMALL_TREE = TreeSpec(depth=2, dirs_per_dir=2, files_per_dir=4)

SMALL_CAST = (
    TenantSpec("alpha", workload="mixed", clients=2, think_ms=20.0,
               tree=SMALL_TREE),
    TenantSpec("beta", workload="readstorm", clients=2, think_ms=20.0,
               tree=SMALL_TREE),
)

SMALL_RUN = ChaosRunConfig(
    deployments=2, vcpus=128.0, telemetry_interval_ms=200.0,
    tenants=SMALL_CAST, slo=RecoverySLO(window_ms=1_500.0),
)


def run_tenants(config=SMALL_RUN):
    return run_scenario(get_scenario("control"), config)


def test_mix_weights_cover_every_archetype():
    from repro.tenants import WORKLOADS

    assert set(WORKLOAD_MIXES) == set(WORKLOADS)
    for mix in WORKLOAD_MIXES.values():
        assert all(weight > 0 for weight in mix.values())


def test_run_emits_per_tenant_series():
    result = run_tenants()
    assert result.passed
    for name in ("alpha", "beta"):
        assert result.tenant_counts[name].issued > 0
        assert result.tenant_counts[name].failed == 0
    timeseries = result.telemetry.timeseries
    keys = "\n".join(timeseries.keys())
    for family in ("tenant_ops_total", "tenant_op_latency_ms_count",
                   "tenant_latency_bucket", "tenant_cache_hits_total"):
        assert f'{family}' in keys
        assert 'tenant="alpha"' in keys and 'tenant="beta"' in keys
    stats = {s.name for s in summarize(timeseries, SMALL_CAST).tenants}
    assert stats == {"alpha", "beta"}


def test_same_seed_same_hash():
    first = run_tenants()
    second = run_tenants()
    assert first.event_hash == second.event_hash
    assert {n: c.issued for n, c in first.tenant_counts.items()} == {
        n: c.issued for n, c in second.tenant_counts.items()
    }


def _hash_of_run(tagged: bool = True, governed: bool = False):
    """One multi-tenant run on a hand-built stack with tracing on and
    telemetry OFF; with ``tagged=False`` the clients carry no tenant
    identity, with ``governed=True`` a :class:`TenantGovernor` gates
    every op.  Returns the event hash and the governor's throttle
    counts."""
    env = Environment()
    workload = MultiTenantWorkload(env, SMALL_CAST, seed=3)
    if governed:
        workload.governor = TenantGovernor.for_tenants(env, SMALL_CAST)
    handle = build_lambdafs(
        env, workload.namespace(),
        deployments=2, vcpus=128.0, seed=3, trace=True,
    )
    drive(env, handle.system.prewarm(1))
    clients = handle.make_clients(workload.total_clients())
    fleets = workload.partition_clients(clients)
    if not tagged:
        for client in clients:
            client.tenant = None
    drive(env, workload.run(fleets, 1_200.0))
    throttled = workload.governor.throttled if governed else {}
    return handle.tracer.event_hash(), throttled


def test_tenant_labels_do_not_perturb_event_hash():
    """The acceptance gate: with telemetry off, tagging clients with
    tenant identities (span attrs only) must leave the kernel
    event-sequence hash byte-identical."""
    tagged, _ = _hash_of_run()
    untagged, _ = _hash_of_run(tagged=False)
    assert tagged == untagged


def test_per_tenant_stage_sums_tile_op_latency():
    plain = run_tenants()
    result = run_tenants(replace(SMALL_RUN, profile=True))
    # Attribution reads only the finished trace.
    assert result.event_hash == plain.event_hash
    assert plain.profile is None
    by_tenant = result.profile.by_tenant()
    assert set(by_tenant) >= {"alpha", "beta"}
    for tenant in ("alpha", "beta"):
        ops = by_tenant[tenant]
        assert ops
        for op in ops:
            assert op.tenant == tenant
            span_ms = op.end_ms - op.start_ms
            assert sum(op.stages.values()) == pytest.approx(
                span_ms, abs=1e-6
            )


def test_governed_compliant_run_hash_matches_ungoverned():
    """A compliant cast never hits its budget, so attaching the
    governor must not change the event sequence."""
    plain, _ = _hash_of_run()
    governed, throttled = _hash_of_run(governed=True)
    assert plain == governed
    assert throttled == {}


def test_partition_requires_enough_clients():
    env = Environment()
    workload = MultiTenantWorkload(env, SMALL_CAST, seed=0)
    with pytest.raises(ValueError, match="need 4 clients"):
        workload.partition_clients([object(), object()])
