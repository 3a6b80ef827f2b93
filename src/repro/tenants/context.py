"""Tenant identity, namespaces, and the QoS rate governor.

λFS's pitch is pay-as-you-go metadata serving for many independent
users, so the simulator needs to know *who* is issuing each operation.
A :class:`TenantSpec` names one tenant and its traffic shape: how many
closed-loop clients it runs, its think time and op mix (by workload
archetype), its arrival burstiness, and the disjoint namespace subtree
it operates in (``/tenants/<name>`` by default, so the consistent-hash
partitioner spreads tenants across deployments exactly like any other
directory structure).

The :class:`TenantGovernor` is the isolation mechanism the
noisy-neighbor chaos scenario verifies: a deterministic per-tenant
token bucket that caps each tenant's issue rate at a weighted share of
the cluster budget.  It draws no randomness and consumes simulated
time only when a tenant is over its share, so an all-compliant run
with the governor attached is event-for-event identical to one
without it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Generator, Mapping, Sequence, Tuple

from repro.namespace.treegen import (
    GeneratedTree,
    TreeSpec,
    flat_directory,
    generate_tree,
)
from repro.sim import Environment

#: Workload archetypes a tenant can run (see
#: :data:`repro.workloads.multitenant.WORKLOAD_MIXES` for the op mixes).
WORKLOADS = ("mixed", "mltrain", "readstorm", "writeheavy")

#: The governor budgets each tenant at this multiple of its nominal
#: demand.
GOVERNOR_HEADROOM = 2.0


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's identity and traffic shape."""

    name: str
    workload: str = "mixed"
    """Archetype selecting the default op mix: ``mixed`` (Spotify-like
    metadata traffic), ``mltrain`` (small-file read storms over a flat
    dataset directory plus checkpoint creates), ``readstorm`` (reads
    and stats only), ``writeheavy`` (create-dominated)."""
    clients: int = 6
    weight: float = 1.0
    """Fair-share weight; the governor budget divides along these."""
    think_ms: float = 40.0
    """Mean closed-loop think time between ops."""
    burst_on_ms: float = 0.0
    burst_off_ms: float = 0.0
    """Arrival burstiness: when both are > 0, clients alternate
    ``burst_on_ms`` of issuing with ``burst_off_ms`` of silence
    (a deterministic on/off square wave, phase-shifted per client).
    Zero means steady arrivals."""
    subtree: str = ""
    """Namespace root; empty means ``/tenants/<name>``."""
    tree: TreeSpec = field(default_factory=lambda: TreeSpec(depth=2))
    """Shape of the tenant's directory tree (root is overridden by
    :meth:`subtree_root`; ``mltrain`` tenants get a flat dataset
    directory of ``dataset_files`` instead)."""
    dataset_files: int = 256
    """Flat-directory dataset size for ``mltrain`` tenants."""
    error_budget: float = 0.05
    """Allowed fraction of ops over the latency SLO target
    (:data:`repro.tenants.fairness.P99_SLO_MS`; burn rate 1.0 =
    exactly consuming the budget)."""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("tenant name must be non-empty")
        if self.workload not in WORKLOADS:
            raise ValueError(
                f"unknown workload {self.workload!r}; expected one of {WORKLOADS}"
            )
        if self.clients < 1:
            raise ValueError("tenant needs at least one client")
        if self.weight <= 0:
            raise ValueError("tenant weight must be positive")
        if (self.burst_on_ms > 0) != (self.burst_off_ms > 0):
            raise ValueError(
                "burst_on_ms and burst_off_ms must both be set (or both zero)"
            )

    def subtree_root(self) -> str:
        return self.subtree or f"/tenants/{self.name}"

    def demand_ops_per_ms(self) -> float:
        """Nominal steady-state demand of this tenant's client fleet."""
        duty = 1.0
        if self.burst_on_ms > 0:
            duty = self.burst_on_ms / (self.burst_on_ms + self.burst_off_ms)
        return duty * self.clients / max(self.think_ms, 1.0)


def default_tenants() -> Tuple[TenantSpec, ...]:
    """The ``repro tenants`` CLI's default four-tenant mix: one
    ML-training pipeline, one bursty analytics scanner, and two
    steady mixed-traffic tenants of different sizes."""
    return (
        TenantSpec("mltrain", workload="mltrain", clients=8, think_ms=15.0,
                   weight=2.0, dataset_files=256),
        TenantSpec("analytics", workload="readstorm", clients=6, think_ms=25.0,
                   burst_on_ms=1_000.0, burst_off_ms=1_500.0),
        TenantSpec("prod", workload="mixed", clients=8, think_ms=30.0,
                   weight=2.0),
        TenantSpec("batch", workload="writeheavy", clients=4, think_ms=50.0),
    )


def chaos_tenants() -> Tuple[TenantSpec, ...]:
    """The noisy-neighbor cast: one prospective hog, three victims."""
    return (
        TenantSpec("hog", workload="readstorm", clients=8, think_ms=30.0),
        TenantSpec("tenant-a", workload="mixed", clients=6, think_ms=30.0),
        TenantSpec("tenant-b", workload="readstorm", clients=6, think_ms=30.0),
        TenantSpec("tenant-c", workload="mixed", clients=6, think_ms=30.0),
    )


def build_tenant_namespaces(
    specs: Sequence[TenantSpec], seed: int = 0
) -> Tuple[GeneratedTree, Dict[str, GeneratedTree]]:
    """Disjoint per-tenant trees plus their merged install list.

    ``mltrain`` tenants get a flat dataset directory (the FalconFS
    million-entry-flat-directory shape, scaled) plus pre-created
    checkpoint directories; everyone else gets a regular generated
    tree rooted at their subtree.
    """
    seen: Dict[str, str] = {}
    merged = GeneratedTree()
    merged.directories.append("/tenants")
    per_tenant: Dict[str, GeneratedTree] = {}
    for spec in specs:
        root = spec.subtree_root()
        if root in seen:
            raise ValueError(
                f"tenants {seen[root]!r} and {spec.name!r} share subtree {root!r}"
            )
        seen[root] = spec.name
        if spec.workload == "mltrain":
            tree = flat_directory(f"{root}/dataset", spec.dataset_files)
            tree.directories.insert(0, root)
            tree.directories.append(f"{root}/ckpt")
        else:
            tree = generate_tree(replace(spec.tree, root=root, seed=seed))
        per_tenant[spec.name] = tree
        merged.directories.extend(tree.directories)
        merged.files.extend(tree.files)
    return merged, per_tenant


class TenantGovernor:
    """Deterministic per-tenant token-bucket rate limiter (QoS).

    Each tenant refills at ``rate`` ops/ms up to a burst allowance of
    ``burst_ms × rate`` tokens; a client that finds the bucket empty
    waits exactly until the next token accrues.  No randomness, no
    events while every tenant stays under its share — so attaching a
    governor to a compliant workload leaves the event sequence
    unchanged.

    ``enabled = False`` turns the governor into a pass-through; the
    ``tenant_flood`` chaos fault's ``disable_isolation`` path flips it
    off *permanently* (a dead QoS layer — the expected-FAIL scenario).
    """

    def __init__(
        self,
        env: Environment,
        rates_ops_per_ms: Mapping[str, float],
        burst_ms: float = 250.0,
    ) -> None:
        for tenant, rate in rates_ops_per_ms.items():
            if rate <= 0:
                raise ValueError(f"rate for tenant {tenant!r} must be positive")
        self.env = env
        self.enabled = True
        self.rates = dict(rates_ops_per_ms)
        self.burst_ms = burst_ms
        self._tokens: Dict[str, float] = {
            tenant: rate * burst_ms for tenant, rate in self.rates.items()
        }
        self._last: Dict[str, float] = {
            tenant: env.now for tenant in self.rates
        }
        self.throttled: Dict[str, int] = {}
        self.throttled_ms: Dict[str, float] = {}

    @classmethod
    def for_tenants(
        cls,
        env: Environment,
        specs: Sequence[TenantSpec],
    ) -> "TenantGovernor":
        """Budget each tenant at ``GOVERNOR_HEADROOM ×`` its nominal demand.

        Compliant tenants never hit their cap; a flooding tenant is
        held near its historical share instead of eating the fleet.
        """
        rates = {
            spec.name: max(GOVERNOR_HEADROOM * spec.demand_ops_per_ms(), 1e-6)
            for spec in specs
        }
        return cls(env, rates)

    def _refill(self, tenant: str) -> None:
        now = self.env.now
        elapsed = now - self._last[tenant]
        if elapsed > 0:
            rate = self.rates[tenant]
            cap = rate * self.burst_ms
            self._tokens[tenant] = min(
                cap, self._tokens[tenant] + elapsed * rate
            )
            self._last[tenant] = now

    def acquire(self, tenant: str) -> Generator:
        """Take one op token, waiting out any deficit.  A generator —
        drive with ``yield from``; returns immediately (no events)
        whenever a token is available or the governor is off."""
        if not self.enabled or tenant not in self.rates:
            return
        while True:
            self._refill(tenant)
            # The 1e-9 slack absorbs refill round-off: without it a
            # bucket refilled to 1.0-ulp computes a ~1e-16 deficit whose
            # wait underflows to zero sim-time at large ``env.now``
            # (now + wait == now), and the loop never advances.
            if self._tokens[tenant] >= 1.0 - 1e-9:
                self._tokens[tenant] = max(0.0, self._tokens[tenant] - 1.0)
                return
            deficit = 1.0 - self._tokens[tenant]
            wait = deficit / self.rates[tenant]
            self.throttled[tenant] = self.throttled.get(tenant, 0) + 1
            self.throttled_ms[tenant] = (
                self.throttled_ms.get(tenant, 0.0) + wait
            )
            yield self.env.timeout(wait)
            if not self.enabled:
                return
