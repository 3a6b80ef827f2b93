"""The chaos engine: scheduled fault activation + injection queries.

One :class:`ChaosEngine` attaches to ``env.chaos``, a plain attribute
like ``env.tracer`` and ``env.metrics`` (``None`` = chaos off).
:meth:`start` runs a
:class:`~repro.chaos.scenario.Scenario` — a scheduler process walks
the activation/deactivation edges in time order, and while a fault is
active the fabric/store/coordinator hooks consult the engine on every
request.

Determinism: the engine's RNG is derived from ``(seed, "chaos")``
exactly like a :class:`repro.sim.RngStreams` stream, and is only
consulted while a matching fault is active, so

* an attached engine with no scenario (or outside every fault window)
  leaves the run byte-identical to one with no engine at all, and
* two same-seed runs of the same scenario produce identical event
  hashes and identical fault logs (:meth:`log_hash`).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.sim import Environment, Interrupt

from repro.chaos.faults import Fault, derive_rng, make_fault
from repro.chaos.scenario import Scenario


@dataclass(frozen=True)
class FaultEvent:
    """One entry in the engine's fault log.

    ``action`` is ``activate``/``deactivate`` for scheduled edges and
    ``inject`` for individual injections (a dropped message, a kill, a
    severed batch ...).  ``detail`` is a sorted tuple of key/value
    pairs so events hash and compare stably.
    """

    time_ms: float
    kind: str
    action: str
    detail: Tuple[Tuple[str, Any], ...] = ()

    def as_dict(self) -> Dict[str, Any]:
        return {
            "time_ms": self.time_ms,
            "kind": self.kind,
            "action": self.action,
            **dict(self.detail),
        }

    def __str__(self) -> str:
        detail = " ".join(f"{k}={v}" for k, v in self.detail)
        return (f"t={self.time_ms:.3f}ms {self.kind} {self.action}"
                + (f" {detail}" if detail else ""))


class ChaosEngine:
    """Deterministic fault injection over one environment."""

    def __init__(
        self,
        env: Environment,
        platform: Any = None,
        coordinator: Any = None,
        store: Any = None,
        seed: int = 0,
        fleet: Any = None,
    ) -> None:
        self.env = env
        self.platform = platform
        self.coordinator = coordinator
        self.store = store
        self.fleet = fleet
        self.seed = seed
        self.rng = derive_rng(seed, "chaos")
        #: The system's :class:`~repro.resilience.ResilienceManager`
        #: (``disable_shedding``'s latch target); None when detached.
        self.resilience: Any = None
        #: The tenant QoS governor, wired by the runner in tenant mode
        #: (``tenant_flood``'s ``disable_isolation`` kills it).
        self.governor: Any = None
        #: Tenant → flood think-ms latched *past* deactivation by
        #: ``disable_isolation`` (one-way, like a dead repair daemon).
        self.tenant_flood_latch: Dict[str, float] = {}
        self.scenario: Optional[Scenario] = None
        self.epoch: Optional[float] = None
        self.log: List[FaultEvent] = []
        self._active: Dict[str, List[Fault]] = {}
        self._proc = None

    # -- lifecycle -----------------------------------------------------
    def start(self, scenario: Scenario) -> "ChaosEngine":
        """Begin running ``scenario``; its times are relative to now."""
        if self._proc is not None and self._proc.is_alive:
            raise RuntimeError("a scenario is already running")
        faults = [make_fault(spec, self) for spec in scenario.faults]
        self.scenario = scenario
        self.epoch = self.env.now
        edges: List[Tuple[float, int, str, Fault]] = []
        for index, fault in enumerate(faults):
            spec = fault.spec
            edges.append((spec.at_ms, 2 * index, "activate", fault))
            if spec.duration_ms > 0:
                edges.append(
                    (spec.clear_ms, 2 * index + 1, "deactivate", fault)
                )
        edges.sort(key=lambda edge: (edge[0], edge[1]))
        self._proc = self.env.process(self._run(edges))
        return self

    def stop(self) -> None:
        """Cancel the scenario and deactivate everything still active."""
        if self._proc is not None and self._proc.is_alive:
            self._proc.interrupt()
        self._proc = None
        for kind in sorted(self._active):
            for fault in list(self._active.get(kind, ())):
                self._deactivate(fault)

    def _run(self, edges) -> Any:
        try:
            for at_ms, _seq, action, fault in edges:
                delay = self.epoch + at_ms - self.env.now
                if delay > 0:
                    yield self.env.timeout(delay)
                if action == "activate":
                    self._activate(fault)
                else:
                    self._deactivate(fault)
        except Interrupt:
            return

    def _activate(self, fault: Fault) -> None:
        if fault.spec.duration_ms > 0:
            fault.until = self.env.now + fault.spec.duration_ms
        self._active.setdefault(fault.kind, []).append(fault)
        self._log(fault.kind, "activate", **dict(fault.spec.params))
        fault.on_activate()

    def _deactivate(self, fault: Fault) -> None:
        bucket = self._active.get(fault.kind, [])
        if fault not in bucket:
            return
        bucket.remove(fault)
        if not bucket:
            self._active.pop(fault.kind, None)
        fault.on_deactivate()
        self._log(fault.kind, "deactivate")

    # -- introspection -------------------------------------------------
    def active_faults(self, kind: Optional[str] = None) -> List[Fault]:
        if kind is not None:
            return list(self._active.get(kind, ()))
        return [f for bucket in self._active.values() for f in bucket]

    @property
    def first_fault_at_ms(self) -> Optional[float]:
        """Absolute sim-time of the earliest fault activation."""
        if self.scenario is None or self.epoch is None or not self.scenario.faults:
            return None
        return self.epoch + self.scenario.first_fault_ms

    @property
    def faults_clear_at_ms(self) -> Optional[float]:
        """Absolute sim-time after which no scheduled fault is active."""
        if self.scenario is None or self.epoch is None:
            return None
        return self.epoch + self.scenario.clear_ms

    # -- fault log -----------------------------------------------------
    def _log(self, kind: str, action: str, **detail: Any) -> None:
        event = FaultEvent(
            self.env.now, kind, action, tuple(sorted(detail.items()))
        )
        self.log.append(event)
        tracer = self.env.tracer
        if tracer is not None and action != "inject":
            # Scheduled edges land in the trace; per-injection points
            # are emitted by the hook sites themselves where needed.
            tracer.point(f"chaos.{action}", kind, **dict(detail))

    def log_hash(self) -> str:
        """Stable fingerprint of the fault log (seed-reproducibility)."""
        digest = hashlib.blake2b(digest_size=16)
        for event in self.log:
            digest.update(str(event).encode())
            digest.update(b"\n")
        return digest.hexdigest()

    # -- injection queries (called by instrumented sites) --------------
    def tcp_extra_delay_ms(self, deployment: str) -> float:
        """Extra latency to add before a TCP send."""
        extra = 0.0
        for fault in self._active.get("tcp_delay", ()):
            if not fault.matches(deployment):
                continue
            p = fault.p
            if p < 1.0 and self.rng.random() >= p:
                continue
            extra += fault.extra_ms
            jitter = fault.jitter_ms
            if jitter > 0.0:
                extra += self.rng.uniform(0.0, jitter)
        return extra

    def tcp_should_drop(self, deployment: str) -> bool:
        """True when this TCP request is lost in the fabric."""
        for fault in self._active.get("tcp_drop", ()):
            if fault.matches(deployment) and (
                self.rng.random() < fault.p
            ):
                self._log("tcp_drop", "inject", deployment=deployment)
                return True
        return False

    def tcp_should_duplicate(self, deployment: str) -> bool:
        """True when this TCP request is delivered twice."""
        for fault in self._active.get("tcp_duplicate", ()):
            if fault.matches(deployment) and (
                self.rng.random() < fault.p
            ):
                self._log("tcp_duplicate", "inject", deployment=deployment)
                return True
        return False

    def gateway_effects(self) -> Tuple[float, bool]:
        """(extra delay ms, shed?) for one HTTP gateway transit."""
        extra = 0.0
        fail = False
        for fault in self._active.get("http_brownout", ()):
            extra += fault.extra_ms
            jitter = fault.jitter_ms
            if jitter > 0.0:
                extra += self.rng.uniform(0.0, jitter)
            fail_p = fault.fail_p
            if fail_p > 0.0 and self.rng.random() < fail_p:
                fail = True
        if fail:
            self._log("http_brownout", "inject", effect="shed")
        return extra, fail

    def store_hold_ms(self, shard_index: int) -> float:
        """How long a request touching ``shard_index`` must stall."""
        hold = 0.0
        for fault in self._active.get("shard_outage", ()):
            if fault.matches_shard(shard_index) and fault.until is not None:
                hold = max(hold, fault.until - self.env.now)
        return max(0.0, hold)

    def store_factor(self, shard_index: int) -> float:
        """Service-time multiplier for ``shard_index``."""
        factor = 1.0
        for fault in self._active.get("store_slowdown", ()):
            if fault.matches_shard(shard_index):
                factor *= fault.factor
        return factor

    def datanode_disk_factor(
        self, node_id: str, rack: Optional[str] = None
    ) -> float:
        """Disk service-time multiplier for one DataNode.

        Stacks the factors of every active ``disk_slow`` fault whose
        rack/datanode scope matches.  Pure computation — no RNG, no
        logging — so calling it from every disk write perturbs
        nothing.
        """
        factor = 1.0
        for fault in self._active.get("disk_slow", ()):
            if fault.matches_datanode(node_id, rack):
                factor *= fault.factor
        return factor

    def tenant_flood_think_ms(self, tenant: str) -> Optional[float]:
        """Flooded think time for ``tenant``'s client loops, or None.

        Pure computation (no RNG, no logging), consulted by the
        multi-tenant workload loops before every op.  The latch
        (``disable_isolation``) wins over — and outlives — the active
        fault window.
        """
        out = self.tenant_flood_latch.get(tenant)
        for fault in self._active.get("tenant_flood", ()):
            if fault.tenant == tenant:
                think = fault.think_ms
                out = think if out is None else min(out, think)
        return out

    def think_factor(self) -> float:
        """Multiplier for closed-loop client think times.

        Pure computation (no RNG, no logging), consulted by the chaos
        runner's client loops before every sleep.  Factors of
        overlapping ``load_spike`` faults stack multiplicatively;
        outside every window the result is exactly 1.0, so the
        multiply is a bit-exact identity and legacy scenario hashes
        are untouched.
        """
        factor = 1.0
        for fault in self._active.get("load_spike", ()):
            factor *= fault.think_factor
        return factor

    def ack_should_drop(self, deployment: str, member_id: str) -> bool:
        """True when this member's INV ACK is lost."""
        for fault in self._active.get("ack_loss", ()):
            if fault.matches(deployment) and (
                self.rng.random() < fault.p
            ):
                self._log(
                    "ack_loss", "inject",
                    deployment=deployment, member=member_id,
                )
                return True
        return False


def install_chaos(
    env: Environment,
    system: Any = None,
    platform: Any = None,
    coordinator: Any = None,
    store: Any = None,
    seed: int = 0,
    fleet: Any = None,
) -> ChaosEngine:
    """Attach a :class:`ChaosEngine` to ``env.chaos``.

    Pass a built :class:`~repro.core.LambdaFS` as ``system`` to wire
    the platform/coordinator/store targets in one go, or supply them
    individually (any may be None — faults needing an absent target
    become no-ops).
    """
    if system is not None:
        platform = platform if platform is not None else getattr(system, "platform", None)
        coordinator = (
            coordinator if coordinator is not None
            else getattr(system, "coordinator", None)
        )
        store = store if store is not None else getattr(system, "store", None)
        fleet = (
            fleet if fleet is not None
            else getattr(system, "datanode_fleet", None)
        )
    engine = ChaosEngine(
        env, platform=platform, coordinator=coordinator, store=store, seed=seed,
        fleet=fleet,
    )
    if system is not None:
        engine.resilience = getattr(system, "resilience", None)
    env.chaos = engine
    return engine
