"""Multi-tenant workload driver: N tenants, one shared fleet.

Composes several :class:`~repro.tenants.context.TenantSpec` traffic
shapes against one λFS: each tenant runs its own closed-loop client
fleet over its own disjoint namespace subtree, with a per-archetype
op mix, its own think time, and an optional deterministic on/off
burst cycle (phase-shifted per client so a bursty tenant ramps rather
than steps).  Clients are tagged with ``client.tenant`` so every op
lands in the per-tenant telemetry families
(:mod:`repro.telemetry.sampler`).

Two injection points exist for the chaos layer: a
:class:`~repro.tenants.context.TenantGovernor` (each op acquires a
token first — the QoS isolation under test) and a ``flood_think``
callback consulted before every op (the ``tenant_flood`` fault
returns a near-zero think time for the flooding tenant, turning its
clients into a storm).  Both default to off, leaving the plain
workload untouched.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, Generator, List, Optional, Sequence, Tuple

from repro.core.messages import OpType
from repro.namespace.treegen import GeneratedTree
from repro.sim import AllOf, Environment
from repro.tenants.context import TenantGovernor, TenantSpec, build_tenant_namespaces

#: Default op mixes per workload archetype (relative weights).
WORKLOAD_MIXES: Dict[str, Dict[OpType, float]] = {
    "mixed": {
        OpType.READ_FILE: 0.58, OpType.STAT: 0.17, OpType.LS: 0.09,
        OpType.CREATE_FILE: 0.06, OpType.SET_PERMISSION: 0.06,
        OpType.DELETE: 0.02, OpType.MKDIRS: 0.01, OpType.MV: 0.01,
    },
    "mltrain": {
        OpType.READ_FILE: 0.65, OpType.STAT: 0.30, OpType.CREATE_FILE: 0.05,
    },
    "readstorm": {
        OpType.READ_FILE: 0.85, OpType.STAT: 0.10, OpType.LS: 0.05,
    },
    "writeheavy": {
        OpType.CREATE_FILE: 0.35, OpType.MKDIRS: 0.05,
        OpType.SET_PERMISSION: 0.15, OpType.READ_FILE: 0.30,
        OpType.STAT: 0.15,
    },
}


@dataclass
class TenantCounts:
    """One tenant's issue/outcome tally for a run."""

    issued: int = 0
    ok: int = 0
    failed: int = 0
    errors: Dict[str, int] = field(default_factory=dict)


class MultiTenantWorkload:
    """Drive every tenant's client fleet for a fixed duration."""

    def __init__(
        self,
        env: Environment,
        specs: Sequence[TenantSpec],
        seed: int = 0,
        absorb_errors: Tuple[type, ...] = (),
    ) -> None:
        if not specs:
            raise ValueError("need at least one tenant")
        self.env = env
        self.specs = tuple(specs)
        self.seed = seed
        #: Set by the runner when the run has a tenant governor or a
        #: flood override; a bare workload has neither.
        self.governor: Optional[TenantGovernor] = None
        self.flood_think: Optional[Callable[[str], Optional[float]]] = None
        self.absorb_errors = absorb_errors
        self.merged, self.trees = build_tenant_namespaces(specs, seed=seed)
        self.counts: Dict[str, TenantCounts] = {
            spec.name: TenantCounts() for spec in specs
        }

    def namespace(self) -> GeneratedTree:
        """The merged install list across every tenant subtree."""
        return self.merged

    def total_clients(self) -> int:
        return sum(spec.clients for spec in self.specs)

    def partition_clients(self, clients: Sequence) -> Dict[str, List]:
        """Slice a flat client list into tagged per-tenant fleets."""
        if len(clients) < self.total_clients():
            raise ValueError(
                f"need {self.total_clients()} clients, got {len(clients)}"
            )
        out: Dict[str, List] = {}
        cursor = 0
        for spec in self.specs:
            fleet = list(clients[cursor:cursor + spec.clients])
            cursor += spec.clients
            for client in fleet:
                client.tenant = spec.name
            out[spec.name] = fleet
        return out

    # -- execution -----------------------------------------------------
    def run(
        self, clients_by_tenant: Dict[str, List], duration_ms: float
    ) -> Generator:
        """All tenant loops concurrently until ``duration_ms`` elapses."""
        deadline = self.env.now + duration_ms
        workers = []
        for spec in self.specs:
            fleet = clients_by_tenant[spec.name]
            for index, client in enumerate(fleet):
                workers.append(self.env.process(
                    self._loop(spec, client, index, deadline)
                ))
        yield AllOf(self.env, workers)
        return self.counts

    def _loop(
        self, spec: TenantSpec, client, index: int, deadline: float
    ) -> Generator:
        env = self.env
        rng = random.Random(f"{self.seed}:{spec.name}:{index}:tenant")
        tree = self.trees[spec.name]
        counts = self.counts[spec.name]
        created: List[str] = []
        serial = 0
        start = env.now
        period = spec.burst_on_ms + spec.burst_off_ms
        # Phase-shift each client's burst cycle so a tenant's storm
        # ramps over its fleet instead of arriving as one step edge.
        phase = (index / max(spec.clients, 1)) * period
        while env.now < deadline:
            flood = (
                self.flood_think(spec.name)
                if self.flood_think is not None else None
            )
            if flood is None and period > 0:
                position = (env.now - start + phase) % period
                if position >= spec.burst_on_ms:
                    # Off phase: sleep to the next on-window (capped at
                    # the deadline so the loop always terminates).  The
                    # kernel wakes at ``env.now + wait``; when that
                    # rounds back to ``env.now`` (a residue under half
                    # an ulp of the clock), no later instant precedes
                    # the on-window, so the client is at its edge and
                    # issues the op now.
                    wait = min(period - position, deadline - env.now)
                    if env.now + wait > env.now:
                        yield env.timeout(wait)
                        continue
            if self.governor is not None:
                yield from self.governor.acquire(spec.name)
            serial += 1
            counts.issued += 1
            try:
                ok = yield from self._one_op(
                    client, spec, tree, rng, index, serial, created
                )
                if ok:
                    counts.ok += 1
                else:
                    counts.failed += 1
            except self.absorb_errors as exc:
                counts.failed += 1
                name = type(exc).__name__
                counts.errors[name] = counts.errors.get(name, 0) + 1
            think = flood if flood is not None else spec.think_ms
            if think > 0:
                yield env.timeout(rng.uniform(0.5 * think, 1.5 * think))

    def _one_op(
        self, client, spec: TenantSpec, tree: GeneratedTree,
        rng: random.Random, index: int, serial: int, created: List[str],
    ) -> Generator:
        op = self._draw_op(rng, spec)
        if op is OpType.CREATE_FILE:
            path = f"{rng.choice(tree.directories)}/t{index}_{serial}"
            response = yield from client.create_file(path)
            if response.ok:
                created.append(path)
        elif op is OpType.MKDIRS:
            path = f"{rng.choice(tree.directories)}/td{index}_{serial}"
            response = yield from client.mkdirs(path)
        elif op is OpType.DELETE:
            if created:
                response = yield from client.delete(created.pop())
            else:
                response = yield from client.stat(rng.choice(tree.files))
        elif op is OpType.MV:
            if created:
                src = created.pop()
                dst = f"{src}_mv{serial}"
                response = yield from client.mv(src, dst)
                if response.ok:
                    created.append(dst)
            else:
                response = yield from client.stat(rng.choice(tree.files))
        elif op is OpType.SET_PERMISSION:
            response = yield from client.set_permission(
                rng.choice(tree.files), 0o644
            )
        elif op is OpType.STAT:
            response = yield from client.stat(rng.choice(tree.files))
        elif op is OpType.LS:
            response = yield from client.ls(rng.choice(tree.directories))
        else:  # READ_FILE
            response = yield from client.read_file(rng.choice(tree.files))
        return response.ok

    def _draw_op(self, rng: random.Random, spec: TenantSpec) -> OpType:
        mix = WORKLOAD_MIXES[spec.workload]
        draw = rng.random() * sum(mix.values())
        for op, weight in mix.items():
            draw -= weight
            if draw <= 0:
                return op
        return OpType.READ_FILE
