"""Tenant-scoped observability: identity, QoS, and fairness telemetry.

λFS bills metadata serving per-operation, which only makes sense if
the operator can see *per-tenant* behavior: who is driving load, who
is missing their latency SLO, and whether one tenant's storm degrades
everyone else.  This package threads a tenant context end-to-end
through the simulator (the ``tenant_*`` metric families are folded
from the op records when telemetry stops, :mod:`repro.telemetry.sampler`):

- :mod:`repro.tenants.context` — :class:`TenantSpec` traffic shapes,
  disjoint per-tenant namespaces, and the :class:`TenantGovernor`
  token-bucket QoS isolation;
- :mod:`repro.tenants.fairness` — Jain's fairness index, per-tenant
  interval p50/p99, SLO burn rate, and the :class:`FairnessReport`;
- :mod:`repro.tenants.dashboard` — the ascii per-tenant dashboard.

Runs go through the one scenario pipeline,
:func:`repro.chaos.run_scenario`: ``repro tenants`` drives the
:func:`default_tenants` cast through the no-fault ``control``
scenario, and the noisy-neighbor scenarios (the ``tenants`` family of
:data:`repro.chaos.scenarios.FAMILIES`) compose these into a verified
isolation test.
"""

from repro.tenants.context import (
    WORKLOADS,
    TenantGovernor,
    TenantSpec,
    build_tenant_namespaces,
    chaos_tenants,
    default_tenants,
)
from repro.tenants.dashboard import render_tenant_dashboard
from repro.tenants.fairness import (
    FairnessReport,
    TenantStats,
    jain_index,
    jain_timeline,
    p99_timeline,
    summarize,
    tenant_totals,
)

__all__ = [
    "FairnessReport",
    "TenantGovernor",
    "TenantSpec",
    "TenantStats",
    "WORKLOADS",
    "build_tenant_namespaces",
    "chaos_tenants",
    "default_tenants",
    "jain_index",
    "jain_timeline",
    "p99_timeline",
    "render_tenant_dashboard",
    "summarize",
    "tenant_totals",
]
