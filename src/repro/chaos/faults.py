"""The fault catalog: every injectable fault kind, plus the killer.

Faults are small stateful objects created from a
:class:`~repro.chaos.scenario.FaultSpec` by the engine.  A fault is
*active* between its activation and deactivation edges; while active,
instrumented sites across the stack query the engine
(:meth:`ChaosEngine.tcp_should_drop` etc.), which consults the active
faults of the matching kind.  Faults that change configuration
(lock-timeout storms, cold-start storms, capacity crunches, watch
delays) swap the target's frozen config dataclass on activation and
restore the original on deactivation, so a cleared fault leaves no
residue.

Every stochastic decision draws from the engine's seeded RNG, and
**only while a matching fault is active** — an engine with no active
faults consumes no randomness and injects no events, so its presence
does not perturb the simulation.

The :class:`NameNodeKiller` (§5.6 fault-tolerance experiment) lives
here too, as one fault among the catalog.  Victim selection is a
seeded policy: ``round_robin`` (the paper's — first warm instance of
the next deployment), ``random`` (uniform over warm instances), or
``youngest`` (most recently provisioned).
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, replace
from typing import (
    Any,
    Callable,
    Dict,
    Generator,
    List,
    Optional,
    Type,
)

from repro.sim import Environment, Interrupt

from repro.chaos.scenario import FaultSpec


def derive_rng(seed: int, name: str) -> random.Random:
    """A stream seeded like :class:`repro.sim.RngStreams` streams."""
    digest = hashlib.sha256(f"{seed}:{name}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


# -- NameNode killer ----------------------------------------------------

VICTIM_POLICIES = ("round_robin", "random", "youngest")


def pick_victim(warm: List[Any], policy: str, rng: random.Random) -> Any:
    """Choose one warm instance under a victim-selection policy."""
    if policy == "round_robin":
        return warm[0]
    if policy == "random":
        return warm[rng.randrange(len(warm))]
    if policy == "youngest":
        return max(warm, key=lambda i: (i.provisioned_at_ms, i.id))
    raise ValueError(f"unknown victim policy {policy!r}")


@dataclass
class KillRecord:
    time_ms: float
    instance_id: str
    deployment: str


class NameNodeKiller:
    """Terminates one warm instance per interval, rotating deployments.

    The paper's §5.6 experiment uses the default ``round_robin``
    policy: the rotation picks the next deployment and the first warm
    instance in it dies, drawing no randomness at all.  The ``random``
    and ``youngest`` policies draw victims from a seeded stream so
    kill sequences stay reproducible run to run.
    """

    def __init__(
        self,
        env: Environment,
        platform: Any,
        interval_ms: float,
        deployments: Optional[List[str]] = None,
        policy: str = "round_robin",
        seed: int = 0,
        rng: Optional[random.Random] = None,
        on_kill: Optional[Callable[[KillRecord], None]] = None,
    ) -> None:
        if interval_ms <= 0:
            raise ValueError("interval_ms must be positive")
        if policy not in VICTIM_POLICIES:
            raise ValueError(
                f"unknown policy {policy!r}; expected one of {VICTIM_POLICIES}"
            )
        self.env = env
        self.platform = platform
        self.interval_ms = interval_ms
        self.policy = policy
        self.rng = rng if rng is not None else derive_rng(seed, "namenode-killer")
        self._names = deployments
        self._on_kill = on_kill
        self.kills: List[KillRecord] = []
        self._process = None

    def start(self) -> None:
        if self._process is None or not self._process.is_alive:
            self._process = self.env.process(self._loop())

    def stop(self) -> None:
        if self._process is not None and self._process.is_alive:
            self._process.interrupt()
        self._process = None

    def _targets(self) -> List[str]:
        if self._names is not None:
            return self._names
        return sorted(self.platform.deployments)

    def _loop(self) -> Generator:
        index = 0
        names = self._targets()
        try:
            while True:
                yield self.env.timeout(self.interval_ms)
                # Rotate over deployments; skip ones with no warm
                # instance right now.
                for _ in range(len(names)):
                    deployment = self.platform.deployments[names[index % len(names)]]
                    index += 1
                    warm = [
                        instance
                        for instance in deployment.live_instances()
                        if instance.state == "warm"
                    ]
                    if warm:
                        victim = pick_victim(warm, self.policy, self.rng)
                        record = KillRecord(
                            self.env.now, victim.id, deployment.name
                        )
                        self.kills.append(record)
                        tracer = self.env.tracer
                        if tracer is not None:
                            tracer.point(
                                "chaos.kill", victim.id,
                                deployment=deployment.name,
                            )
                        if self._on_kill is not None:
                            self._on_kill(record)
                        victim.terminate(reason="fault")
                        break
        except Interrupt:
            return


# -- fault base ---------------------------------------------------------

class Fault:
    """One active fault instance (see the subclasses for the catalog)."""

    kind: str = ""
    requires_duration: bool = False
    allowed_params: tuple = ()

    def __init__(self, spec: FaultSpec, engine: Any = None) -> None:
        self.spec = spec
        self.engine = engine
        self.params: Dict[str, Any] = dict(spec.params)
        unknown = set(self.params) - set(self.allowed_params)
        if unknown:
            raise ValueError(
                f"{self.kind}: unknown param(s) {sorted(unknown)}; "
                f"allowed: {sorted(self.allowed_params)}"
            )
        if self.requires_duration and spec.duration_ms <= 0:
            raise ValueError(f"{self.kind}: duration_ms must be > 0")
        #: Absolute sim-time this fault deactivates (set at activation).
        self.until: Optional[float] = None
        self.validate()

    def validate(self) -> None:
        """Subclass hook for parameter checking (raise ValueError)."""

    def matches(self, deployment: Optional[str]) -> bool:
        target = self.params.get("deployment")
        return target is None or target == deployment

    def on_activate(self) -> None:
        """Take effect (config swaps, spawned processes)."""

    def on_deactivate(self) -> None:
        """Undo activation side effects."""

    # -- shared helpers ------------------------------------------------
    def _p(self, name: str = "p", default: float = 0.1) -> float:
        value = float(self.params.get(name, default))
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{self.kind}: {name} must be in [0, 1]")
        return value


# -- RPC fabric ---------------------------------------------------------

class TcpDropFault(Fault):
    """Drop TCP requests with probability ``p`` (message loss).

    The connection itself stays up — the client's retry loop resubmits
    over the same connection, exercising the NameNode result cache's
    duplicate-suppression.
    """

    kind = "tcp_drop"
    requires_duration = True
    allowed_params = ("p", "deployment")

    def validate(self) -> None:
        self._p()


class TcpDelayFault(Fault):
    """Add latency to TCP sends: ``extra_ms`` (+ uniform ``jitter_ms``)."""

    kind = "tcp_delay"
    requires_duration = True
    allowed_params = ("extra_ms", "jitter_ms", "p", "deployment")

    def validate(self) -> None:
        self._p(default=1.0)
        if float(self.params.get("extra_ms", 5.0)) < 0:
            raise ValueError(f"{self.kind}: extra_ms must be >= 0")


class TcpDuplicateFault(Fault):
    """Deliver TCP requests twice with probability ``p``.

    The duplicate is re-served by the same NameNode; its result cache
    (§3.2 resubmission safety) must return the original answer rather
    than re-running the operation.
    """

    kind = "tcp_duplicate"
    requires_duration = True
    allowed_params = ("p", "deployment")

    def validate(self) -> None:
        self._p()


class TcpSeverFault(Fault):
    """Close every live TCP connection (once, or every ``repeat_ms``).

    Models the fabric partitioning clients from the fleet: clients
    fall back to HTTP invocations until NameNodes connect back.
    """

    kind = "tcp_sever"
    allowed_params = ("deployment", "repeat_ms")

    def __init__(self, spec: FaultSpec, engine: Any = None) -> None:
        super().__init__(spec, engine)
        self._proc = None

    def on_activate(self) -> None:
        self._sever()
        repeat = self.params.get("repeat_ms")
        if repeat is not None and self.spec.duration_ms > 0:
            self._proc = self.engine.env.process(self._loop(float(repeat)))

    def on_deactivate(self) -> None:
        if self._proc is not None and self._proc.is_alive:
            self._proc.interrupt()
        self._proc = None

    def _loop(self, repeat_ms: float) -> Generator:
        try:
            while True:
                yield self.engine.env.timeout(repeat_ms)
                self._sever()
        except Interrupt:
            return

    def _sever(self) -> None:
        platform = self.engine.platform
        if platform is None:
            return
        closed = 0
        for name in sorted(platform.deployments):
            if not self.matches(name):
                continue
            for instance in platform.deployments[name].live_instances():
                # _connections is the platform's own bookkeeping of
                # connect-backs; severing is exactly what terminate()
                # does to it, minus killing the instance.
                for connection in list(instance._connections):
                    if connection.alive:
                        connection.close()
                        closed += 1
                instance._connections.clear()
        self.engine._log(self.kind, "inject", closed=closed)


class HttpBrownoutFault(Fault):
    """Degrade the HTTP gateway: extra latency and/or failures.

    ``extra_ms`` (+ uniform ``jitter_ms``) delays every invocation
    passing the gateway; ``fail_p`` times the gateway sheds the
    request entirely (surfacing as a request timeout the client's
    backoff-retry loop handles).
    """

    kind = "http_brownout"
    requires_duration = True
    allowed_params = ("extra_ms", "jitter_ms", "fail_p")

    def validate(self) -> None:
        self._p("fail_p", default=0.0)
        if float(self.params.get("extra_ms", 0.0)) < 0:
            raise ValueError(f"{self.kind}: extra_ms must be >= 0")


# -- metastore ----------------------------------------------------------

class ShardOutageFault(Fault):
    """One store shard (or all) is unavailable for the window.

    Requests touching the shard stall until the window ends — the NDB
    data-node failover gap.  Keep the window shorter than the lock
    timeout unless you *want* an abort storm.
    """

    kind = "shard_outage"
    requires_duration = True
    allowed_params = ("shard",)

    def matches_shard(self, index: int) -> bool:
        shard = self.params.get("shard")
        return shard is None or int(shard) == index


class StoreSlowdownFault(Fault):
    """Multiply store service times by ``factor`` (degraded disks)."""

    kind = "store_slowdown"
    requires_duration = True
    allowed_params = ("factor", "shard")

    def validate(self) -> None:
        if float(self.params.get("factor", 2.0)) <= 0:
            raise ValueError(f"{self.kind}: factor must be > 0")

    def matches_shard(self, index: int) -> bool:
        shard = self.params.get("shard")
        return shard is None or int(shard) == index


class LockStormFault(Fault):
    """Shrink the lock-wait timeout to ``timeout_ms`` for the window.

    Contended transactions abort en masse and retry — the abort storm
    the full-jitter transaction backoff exists to decorrelate.
    """

    kind = "lock_storm"
    requires_duration = True
    allowed_params = ("timeout_ms",)

    def __init__(self, spec: FaultSpec, engine: Any = None) -> None:
        super().__init__(spec, engine)
        self._saved: Optional[float] = None

    def on_activate(self) -> None:
        store = self.engine.store
        if store is None:
            return
        self._saved = store.locks.default_timeout_ms
        store.locks.default_timeout_ms = float(
            self.params.get("timeout_ms", 50.0)
        )

    def on_deactivate(self) -> None:
        if self._saved is not None and self.engine.store is not None:
            self.engine.store.locks.default_timeout_ms = self._saved
        self._saved = None


# -- coordinator --------------------------------------------------------

class AckLossFault(Fault):
    """Drop INV ACKs with probability ``p``.

    The coordinator redelivers after ``ack_retry_ms`` (handlers are
    idempotent), so writers eventually unblock.  With
    ``disable_retry`` the coordinator's redelivery is switched off for
    the window — the deliberately broken recovery path: a dropped ACK
    then strands the writer forever, which the
    :class:`~repro.chaos.verifier.ChaosVerifier` flags as a hung op.
    """

    kind = "ack_loss"
    requires_duration = True
    allowed_params = ("p", "deployment", "disable_retry")

    def __init__(self, spec: FaultSpec, engine: Any = None) -> None:
        super().__init__(spec, engine)
        self._saved: Optional[Dict[str, Any]] = None

    def validate(self) -> None:
        self._p(default=0.5)

    def on_activate(self) -> None:
        coordinator = self.engine.coordinator
        if coordinator is None or not self.params.get("disable_retry", False):
            return
        # Save only the fields this fault touches and restore them into
        # whatever config is current at deactivate time, so overlapping
        # config-swapping faults compose regardless of clear order.
        self._saved = {"ack_max_retries": coordinator.config.ack_max_retries}
        coordinator.config = replace(coordinator.config, ack_max_retries=0)

    def on_deactivate(self) -> None:
        if self._saved is not None and self.engine.coordinator is not None:
            coordinator = self.engine.coordinator
            coordinator.config = replace(coordinator.config, **self._saved)
        self._saved = None


class MembershipFlapFault(Fault):
    """Deregister a live member, then re-register it ``flap_ms`` later.

    Races `watch_death`: watchers fire for a member that is about to
    come back, and INV rounds in flight during the flap must neither
    hang on the absent member nor double-count its ACK.
    """

    kind = "membership_flap"
    allowed_params = ("deployment", "flap_ms")

    def on_activate(self) -> None:
        self.engine.env.process(self._flap())

    def _flap(self) -> Generator:
        engine = self.engine
        coordinator = engine.coordinator
        if coordinator is None:
            return
        target = self.params.get("deployment")
        candidates = []
        for deployment in sorted(coordinator.deployments()):
            if target is not None and deployment != target:
                continue
            for member_id in sorted(coordinator.live_members(deployment)):
                candidates.append((deployment, member_id))
        if not candidates:
            engine._log(self.kind, "inject", member="", note="no-members")
            return
        deployment, member_id = candidates[engine.rng.randrange(len(candidates))]
        handler = coordinator.inv_handler(deployment, member_id)
        coordinator.deregister(deployment, member_id)
        engine._log(self.kind, "inject", member=member_id, phase="down")
        yield engine.env.timeout(float(self.params.get("flap_ms", 500.0)))
        # Only rejoin if the underlying instance is in fact still
        # alive — it may have been killed or reclaimed mid-flap.
        if handler is not None and self._instance_alive(deployment, member_id):
            coordinator.register(deployment, member_id, handler)
            engine._log(self.kind, "inject", member=member_id, phase="up")

    def _instance_alive(self, deployment: str, member_id: str) -> bool:
        platform = self.engine.platform
        if platform is None:
            return True
        bucket = platform.deployments.get(deployment)
        if bucket is None:
            return False
        return any(
            instance.id == member_id and instance.is_alive
            for instance in bucket.live_instances()
        )


class WatchDelayFault(Fault):
    """Multiply (or set) the liveness-notification latency.

    Delayed death notifications widen the window in which the rest of
    the system still believes a dead NameNode is alive.
    """

    kind = "watch_delay"
    requires_duration = True
    allowed_params = ("factor", "watch_ms")

    def __init__(self, spec: FaultSpec, engine: Any = None) -> None:
        super().__init__(spec, engine)
        self._saved: Optional[Dict[str, Any]] = None

    def on_activate(self) -> None:
        coordinator = self.engine.coordinator
        if coordinator is None:
            return
        self._saved = {"watch_ms": coordinator.config.watch_ms}
        watch = self.params.get("watch_ms")
        if watch is None:
            watch = coordinator.config.watch_ms * float(
                self.params.get("factor", 10.0)
            )
        coordinator.config = replace(coordinator.config, watch_ms=float(watch))

    def on_deactivate(self) -> None:
        if self._saved is not None and self.engine.coordinator is not None:
            coordinator = self.engine.coordinator
            coordinator.config = replace(coordinator.config, **self._saved)
        self._saved = None


# -- FaaS ---------------------------------------------------------------

class NameNodeKillFault(Fault):
    """Kill one warm NameNode per ``interval_ms`` while active.

    Wraps :class:`NameNodeKiller` with the engine's RNG; ``policy``
    selects the victim within the rotated deployment.
    """

    kind = "namenode_kill"
    requires_duration = True
    allowed_params = ("interval_ms", "policy", "deployments")

    def __init__(self, spec: FaultSpec, engine: Any = None) -> None:
        super().__init__(spec, engine)
        self._killer: Optional[NameNodeKiller] = None

    def validate(self) -> None:
        if float(self.params.get("interval_ms", 1_000.0)) <= 0:
            raise ValueError(f"{self.kind}: interval_ms must be > 0")
        policy = self.params.get("policy", "round_robin")
        if policy not in VICTIM_POLICIES:
            raise ValueError(f"{self.kind}: unknown policy {policy!r}")

    def on_activate(self) -> None:
        engine = self.engine
        if engine.platform is None:
            return
        deployments = self.params.get("deployments")
        self._killer = NameNodeKiller(
            engine.env,
            engine.platform,
            float(self.params.get("interval_ms", 1_000.0)),
            deployments=list(deployments) if deployments is not None else None,
            policy=self.params.get("policy", "round_robin"),
            rng=engine.rng,
            on_kill=lambda record: engine._log(
                self.kind, "inject",
                instance=record.instance_id, deployment=record.deployment,
            ),
        )
        self._killer.start()

    def on_deactivate(self) -> None:
        if self._killer is not None:
            self._killer.stop()
        self._killer = None

    @property
    def kills(self) -> List[KillRecord]:
        return self._killer.kills if self._killer is not None else []


class ColdStartStormFault(Fault):
    """Multiply cold-start boot times by ``factor`` for the window."""

    kind = "cold_start_storm"
    requires_duration = True
    allowed_params = ("factor", "min_ms", "max_ms")

    def __init__(self, spec: FaultSpec, engine: Any = None) -> None:
        super().__init__(spec, engine)
        self._saved: Optional[Dict[str, Any]] = None

    def on_activate(self) -> None:
        platform = self.engine.platform
        if platform is None:
            return
        self._saved = {
            "cold_start_min_ms": platform.config.cold_start_min_ms,
            "cold_start_max_ms": platform.config.cold_start_max_ms,
        }
        factor = float(self.params.get("factor", 4.0))
        low = float(self.params.get(
            "min_ms", platform.config.cold_start_min_ms * factor
        ))
        high = float(self.params.get(
            "max_ms", platform.config.cold_start_max_ms * factor
        ))
        platform.config = replace(
            platform.config, cold_start_min_ms=low, cold_start_max_ms=high
        )

    def on_deactivate(self) -> None:
        if self._saved is not None and self.engine.platform is not None:
            platform = self.engine.platform
            platform.config = replace(platform.config, **self._saved)
        self._saved = None


class CapacityCrunchFault(Fault):
    """Shrink the cluster vCPU budget for the window.

    New provisioning stalls and a starved deployment forces evictions —
    the container-churn regime of Appendix C.
    """

    kind = "capacity_crunch"
    requires_duration = True
    allowed_params = ("vcpus", "fraction")

    def __init__(self, spec: FaultSpec, engine: Any = None) -> None:
        super().__init__(spec, engine)
        self._saved: Optional[Dict[str, Any]] = None

    def on_activate(self) -> None:
        platform = self.engine.platform
        if platform is None:
            return
        self._saved = {"cluster_vcpus": platform.config.cluster_vcpus}
        vcpus = self.params.get("vcpus")
        if vcpus is None:
            vcpus = platform.config.cluster_vcpus * float(
                self.params.get("fraction", 0.5)
            )
        platform.config = replace(platform.config, cluster_vcpus=float(vcpus))

    def on_deactivate(self) -> None:
        if self._saved is not None and self.engine.platform is not None:
            platform = self.engine.platform
            platform.config = replace(platform.config, **self._saved)
        self._saved = None


# -- data plane ---------------------------------------------------------

class DataNodeKillFault(Fault):
    """Crash ``count`` DataNodes, one per ``interval_ms`` while active.

    Victims are drawn from the currently-alive nodes via the engine's
    seeded RNG, so same-seed runs kill the same nodes at the same
    times.  Killed nodes stay down (their heartbeats stop, the tracker
    declares them dead after the miss threshold, and the
    re-replication scanner restores replication factor) unless
    ``restart_after_ms`` is given, in which case each victim comes
    back that long after its kill — the flapping-node case.

    ``disable_repair`` switches the fleet's background re-replication
    off **permanently** (a dead repair daemon, not a config window):
    restoring it at deactivation would let repairs complete within the
    SLO window and mask the breakage this expected-FAIL path exists to
    surface.
    """

    kind = "datanode_kill"
    requires_duration = True
    allowed_params = ("count", "interval_ms", "disable_repair", "restart_after_ms")

    def __init__(self, spec: FaultSpec, engine: Any = None) -> None:
        super().__init__(spec, engine)
        self._proc = None
        self.killed: List[str] = []

    def validate(self) -> None:
        if int(self.params.get("count", 1)) < 1:
            raise ValueError(f"{self.kind}: count must be >= 1")
        if float(self.params.get("interval_ms", 400.0)) <= 0:
            raise ValueError(f"{self.kind}: interval_ms must be > 0")
        restart = self.params.get("restart_after_ms")
        if restart is not None and float(restart) <= 0:
            raise ValueError(f"{self.kind}: restart_after_ms must be > 0")

    def on_activate(self) -> None:
        engine = self.engine
        fleet = getattr(engine, "fleet", None)
        if fleet is None:
            engine._log(self.kind, "inject", note="no-fleet")
            return
        if self.params.get("disable_repair", False):
            fleet.repair_enabled = False
            engine._log(self.kind, "inject", note="repair-disabled")
        self._proc = engine.env.process(self._loop(fleet))

    def on_deactivate(self) -> None:
        if self._proc is not None and self._proc.is_alive:
            self._proc.interrupt()
        self._proc = None

    def _loop(self, fleet: Any) -> Generator:
        engine = self.engine
        count = int(self.params.get("count", 1))
        interval = float(self.params.get("interval_ms", 400.0))
        restart_after = self.params.get("restart_after_ms")
        try:
            for _ in range(count):
                yield engine.env.timeout(interval)
                victims = fleet.live_node_ids()
                if not victims:
                    engine._log(self.kind, "inject", note="no-live-nodes")
                    return
                victim = victims[engine.rng.randrange(len(victims))]
                fleet.kill(victim)
                self.killed.append(victim)
                engine._log(self.kind, "inject", datanode=victim)
                if restart_after is not None:
                    engine.env.process(
                        self._restart_later(fleet, victim, float(restart_after))
                    )
        except Interrupt:
            return

    def _restart_later(
        self, fleet: Any, victim: str, delay_ms: float
    ) -> Generator:
        yield self.engine.env.timeout(delay_ms)
        fleet.restart(victim)
        self.engine._log(self.kind, "inject", datanode=victim, phase="restart")


class DiskSlowFault(Fault):
    """Multiply DataNode disk service times by ``factor`` while active.

    A pure query fault (no processes, no RNG): instrumented disk
    writes ask :meth:`ChaosEngine.datanode_disk_factor` and stack the
    factors of every matching active fault.  Scope with ``rack`` or
    ``datanode`` to degrade one failure domain — the
    slow-disk-in-one-rack regime that drags pipelined writes whose
    chain crosses that rack.
    """

    kind = "disk_slow"
    requires_duration = True
    allowed_params = ("factor", "rack", "datanode")

    def validate(self) -> None:
        if float(self.params.get("factor", 4.0)) <= 0:
            raise ValueError(f"{self.kind}: factor must be > 0")

    def matches_datanode(self, node_id: str, rack: Optional[str]) -> bool:
        want_node = self.params.get("datanode")
        if want_node is not None and want_node != node_id:
            return False
        want_rack = self.params.get("rack")
        return want_rack is None or want_rack == rack

    @property
    def factor(self) -> float:
        return float(self.params.get("factor", 4.0))


class TenantFloodFault(Fault):
    """One tenant's clients go berserk: a noisy neighbor.

    While active, the flooding tenant's closed-loop client think time
    collapses to ``think_ms`` (default 0 — back-to-back ops); the
    tenant workload loops consult
    :meth:`ChaosEngine.tenant_flood_think_ms` before every op, so the
    fault itself is a pure query — no processes, no RNG, no log spam.
    Whether the victims feel it is the :class:`~repro.tenants.context
    .TenantGovernor`'s problem — exactly what the verifier's fairness
    gate judges.

    ``disable_isolation`` models a *dead QoS layer*, and like
    ``datanode_kill``'s ``disable_repair`` it is **one-way**: the
    governor is switched off permanently and the flood think time is
    latched past deactivation (a runaway job nobody is throttling or
    killing).  Restoring either at the window edge would let fairness
    recover on schedule and mask the breakage this expected-FAIL path
    exists to surface.
    """

    kind = "tenant_flood"
    requires_duration = True
    allowed_params = ("tenant", "think_ms", "disable_isolation")

    def validate(self) -> None:
        if not self.params.get("tenant"):
            raise ValueError(f"{self.kind}: tenant param is required")
        if float(self.params.get("think_ms", 0.0)) < 0:
            raise ValueError(f"{self.kind}: think_ms must be >= 0")

    @property
    def tenant(self) -> str:
        return str(self.params["tenant"])

    @property
    def think_ms(self) -> float:
        return float(self.params.get("think_ms", 0.0))

    def on_activate(self) -> None:
        engine = self.engine
        if self.params.get("disable_isolation", False):
            engine.tenant_flood_latch[self.tenant] = self.think_ms
            governor = getattr(engine, "governor", None)
            if governor is not None:
                governor.enabled = False
            engine._log(self.kind, "inject", note="isolation-disabled",
                        tenant=self.tenant)


# -- resilience ---------------------------------------------------------

class LoadSpikeFault(Fault):
    """Every closed-loop client thinks ``think_factor``× as long.

    A pure query fault: the chaos runner's client loops multiply their
    sampled think time by :meth:`ChaosEngine.think_factor` before each
    sleep, so a factor below 1.0 is a demand surge (the whole client
    population speeds up at once) and the fault itself spawns no
    processes and draws no randomness.  Combined with a store slowdown
    this is the recipe for metastable overload: offered load rises
    exactly as capacity falls, and retries amplify the difference.
    """

    kind = "load_spike"
    requires_duration = True
    allowed_params = ("think_factor",)

    def validate(self) -> None:
        if float(self.params.get("think_factor", 0.25)) <= 0:
            raise ValueError(f"{self.kind}: think_factor must be > 0")

    @property
    def think_factor(self) -> float:
        return float(self.params.get("think_factor", 0.25))


class DisableSheddingFault(Fault):
    """Switch the resilience layer off — **permanently**.

    Like ``datanode_kill``'s ``disable_repair`` and ``tenant_flood``'s
    ``disable_isolation``, this is a one-way latch, not a window: a
    dead resilience control plane (deadlines unstamped, breakers
    never rejecting, shedders never dropping).  The
    ``metastable-brownout-noshed`` expected-FAIL twin uses it to show
    the unprotected system staying collapsed after the fault clears.
    """

    kind = "disable_shedding"
    allowed_params = ()

    def on_activate(self) -> None:
        engine = self.engine
        resilience = getattr(engine, "resilience", None)
        if resilience is None:
            engine._log(self.kind, "inject", note="no-resilience")
            return
        resilience.enabled = False
        engine._log(self.kind, "inject", note="shedding-disabled")


# -- registry -----------------------------------------------------------

FAULT_TYPES: Dict[str, Type[Fault]] = {
    cls.kind: cls
    for cls in (
        TcpDropFault,
        TcpDelayFault,
        TcpDuplicateFault,
        TcpSeverFault,
        HttpBrownoutFault,
        ShardOutageFault,
        StoreSlowdownFault,
        LockStormFault,
        AckLossFault,
        MembershipFlapFault,
        WatchDelayFault,
        NameNodeKillFault,
        ColdStartStormFault,
        CapacityCrunchFault,
        DataNodeKillFault,
        DiskSlowFault,
        TenantFloodFault,
        LoadSpikeFault,
        DisableSheddingFault,
    )
}


def make_fault(spec: FaultSpec, engine: Any = None) -> Fault:
    """Instantiate (and thereby validate) the fault for ``spec``."""
    cls = FAULT_TYPES.get(spec.kind)
    if cls is None:
        raise ValueError(
            f"unknown fault kind {spec.kind!r}; "
            f"known: {sorted(FAULT_TYPES)}"
        )
    return cls(spec, engine)


def validate_scenario(scenario: Any) -> None:
    """Raise ValueError if any fault spec in ``scenario`` is invalid."""
    for spec in scenario.faults:
        make_fault(spec, engine=None)
