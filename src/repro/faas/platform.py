"""The FaaS platform: deployments, instances, invoker, auto-scaling."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Generator, List, Optional

from repro.sim import Environment, Event, Resource


class InstanceTerminated(Exception):
    """The serving instance was reclaimed/killed mid-request."""


@dataclass(frozen=True)
class FaaSConfig:
    """Platform-wide configuration."""

    cluster_vcpus: float = 512.0
    vcpus_per_instance: float = 6.25
    ram_gb_per_instance: float = 30.0
    concurrency_level: int = 4
    cold_start_min_ms: float = 500.0
    cold_start_max_ms: float = 1_000.0
    app_init_ms: float = 120.0
    idle_reclaim_ms: float = 20_000.0
    reclaim_sweep_ms: float = 1_000.0
    eviction_ms: float = 300.0
    allow_eviction: bool = True
    eviction_min_idle_ms: float = 500.0
    """Never evict a container idle for less than this: momentarily
    idle instances under steady load are not reclamation victims
    (otherwise multi-deployment load on a full cluster churns
    containers — the thrashing of Appendix C)."""
    forced_eviction_cooldown_ms: float = 500.0
    """Minimum spacing between forced (busy-victim) evictions: the
    platform cannot churn containers faster than they boot."""
    max_instances_per_deployment: Optional[int] = None
    """Cap used by the Figure 14 "limited auto-scaling" ablation."""


@dataclass
class ScaleEvent:
    """One provision/terminate event, for the NN-count timelines."""

    time_ms: float
    deployment: str
    kind: str  # "provision" | "terminate" | "evict"
    active_after: int


class FunctionInstance:
    """An instantiated, running serverless function (one NameNode)."""

    def __init__(
        self,
        env: Environment,
        platform: "FaaSPlatform",
        deployment: "Deployment",
    ) -> None:
        self.env = env
        self.platform = platform
        self.deployment = deployment
        self.id = f"{deployment.name}#{env.next_id('instance')}"
        self.state = "provisioning"
        self.started = Event(env)
        cpu_slots = max(1, int(round(platform.config.vcpus_per_instance)))
        self.cpu = Resource(env, capacity=cpu_slots)
        self.http_in_flight = 0
        self.active_requests = 0
        self.requests_served = 0
        self.http_requests_served = 0
        """True FaaS invocations — the only ones billed per-request
        (TCP RPCs bypass the platform and carry no request charge)."""
        self.last_active_ms = env.now
        self.provisioned_at_ms = env.now
        self.terminated_at_ms: Optional[float] = None
        self.busy_ms = 0.0
        self._busy_since: Optional[float] = None
        self._connections: List[Any] = []
        # The application (e.g. a λFS NameNode) is created once the
        # container starts; its in-memory state survives invocations
        # for as long as the instance stays warm.
        self.app: Any = None

    def __repr__(self) -> str:
        return f"<Instance {self.id} {self.state}>"

    @property
    def deployment_name(self) -> str:
        return self.deployment.name

    @property
    def is_alive(self) -> bool:
        return self.state in ("provisioning", "warm")

    @property
    def idle_ms(self) -> float:
        if self.active_requests > 0:
            return 0.0
        return self.env.now - self.last_active_ms

    # -- lifecycle -----------------------------------------------------
    def startup(self) -> Generator:
        """Cold start: container boot then application init."""
        rng = self.platform.rng
        boot = rng.uniform(
            self.platform.config.cold_start_min_ms,
            self.platform.config.cold_start_max_ms,
        )
        yield self.env.timeout(boot)
        if self.state != "provisioning":
            return  # evicted while booting
        self.app = self.deployment.app_factory(self)
        if hasattr(self.app, "on_start"):
            started = self.app.on_start()
            if started is not None:
                yield from started
        yield self.env.timeout(self.platform.config.app_init_ms)
        if self.state != "provisioning":
            return
        self.state = "warm"
        self.last_active_ms = self.env.now
        self.started.succeed()
        self.deployment.notify_change()

    def terminate(self, reason: str = "reclaim") -> None:
        """Tear the instance down (scale-in, eviction, or fault test)."""
        if self.state == "terminated":
            return
        metrics = self.env.metrics
        if metrics is not None:
            metrics.inc(
                "faas_terminations_total",
                deployment=self.deployment.name, reason=reason,
            )
        was_provisioning = self.state == "provisioning"
        self.state = "terminated"
        self.terminated_at_ms = self.env.now
        if was_provisioning and not self.started.triggered:
            # Wake requests parked on the cold start so they observe
            # the termination and retry elsewhere.
            self.started.succeed()
        if self._busy_since is not None:
            self.busy_ms += self.env.now - self._busy_since
            self._busy_since = None
        for connection in list(self._connections):
            connection.close()
        self._connections.clear()
        if self.app is not None and hasattr(self.app, "on_terminate"):
            self.app.on_terminate()
        self.deployment.instance_gone(self)
        self.platform._record(ScaleEvent(
            self.env.now, self.deployment.name,
            "evict" if reason == "evict" else "terminate",
            self.deployment.live_count(),
        ))

    # -- serving ---------------------------------------------------------
    def serve(self, request: Any, via: str) -> Generator:
        """Run the application handler for one request."""
        if not self.is_alive:
            raise InstanceTerminated(self.id)
        if self.state == "provisioning":
            tracer = self.env.tracer
            cold_span = None
            if tracer is not None:
                cold_span = tracer.begin(
                    "faas.cold_wait", self.id,
                    parent=getattr(request, "trace_parent", None),
                    deployment=self.deployment_name, via=via,
                )
            yield self.started
            if tracer is not None:
                tracer.end(cold_span, alive=self.is_alive)
            if not self.is_alive:
                raise InstanceTerminated(self.id)
        self._enter()
        if via == "http":
            self.http_requests_served += 1
        try:
            response = yield from self.app.handle(request, via)
        finally:
            self._exit()
        if not self.is_alive:
            raise InstanceTerminated(self.id)
        return response

    def compute(self, cpu_ms: float) -> Generator:
        """Consume one CPU slot for ``cpu_ms`` (applications call this)."""
        if cpu_ms <= 0:
            return
        with self.cpu.request() as slot:
            yield slot
            yield self.env.timeout(cpu_ms)

    def attach_connection(self, connection: Any) -> None:
        """Track a TCP connection so termination can close it."""
        self._connections.append(connection)

    # -- billing/bookkeeping ------------------------------------------------
    def _enter(self) -> None:
        if self.active_requests == 0:
            self._busy_since = self.env.now
        self.active_requests += 1
        self.requests_served += 1
        self.last_active_ms = self.env.now

    def _exit(self) -> None:
        self.active_requests -= 1
        self.last_active_ms = self.env.now
        if self.active_requests == 0 and self._busy_since is not None:
            self.busy_ms += self.env.now - self._busy_since
            self._busy_since = None

    def busy_ms_snapshot(self) -> float:
        """Busy time including the currently open interval."""
        open_interval = (
            self.env.now - self._busy_since if self._busy_since is not None else 0.0
        )
        return self.busy_ms + open_interval

    def provisioned_ms(self) -> float:
        end = self.terminated_at_ms if self.terminated_at_ms is not None else self.env.now
        return end - self.provisioned_at_ms


class Deployment:
    """A registered serverless function (unique name, many instances)."""

    def __init__(self, platform: "FaaSPlatform", name: str, app_factory: Callable) -> None:
        self.platform = platform
        self.name = name
        self.app_factory = app_factory
        self.instances: List[FunctionInstance] = []
        self.all_instances: List[FunctionInstance] = []
        self._change = Event(platform.env)

    def live_count(self) -> int:
        return len(self.instances)

    def live_instances(self) -> List[FunctionInstance]:
        return list(self.instances)

    def pick_available(self) -> Optional[FunctionInstance]:
        """Least-loaded instance below its ConcurrencyLevel, if any."""
        limit = self.platform.config.concurrency_level
        candidates = [i for i in self.instances if i.http_in_flight < limit]
        if not candidates:
            return None
        return min(candidates, key=lambda i: (i.http_in_flight, i.active_requests))

    def least_loaded(self) -> Optional[FunctionInstance]:
        if not self.instances:
            return None
        return min(self.instances, key=lambda i: (i.http_in_flight, i.active_requests))

    def instance_gone(self, instance: FunctionInstance) -> None:
        try:
            self.instances.remove(instance)
        except ValueError:
            pass
        self.notify_change()

    def notify_change(self) -> None:
        """Wake invocations parked waiting for capacity."""
        event, self._change = self._change, Event(self.platform.env)
        event.succeed()

    def change_event(self) -> Event:
        return self._change


class FaaSPlatform:
    """The platform: registry, invoker, and auto-scaling loops."""

    def __init__(
        self,
        env: Environment,
        config: Optional[FaaSConfig] = None,
        rng=None,
    ) -> None:
        import random as _random

        self.env = env
        self.config = config or FaaSConfig()
        self.rng = rng if rng is not None else _random.Random(0)
        self.deployments: Dict[str, Deployment] = {}
        self.scale_events: List[ScaleEvent] = []
        self.cold_starts = 0
        self.evictions = 0
        self._reclaimer_started = False
        self._last_forced_eviction = -float("inf")
        #: Resilience control plane (set by LambdaFS when attached);
        #: None keeps the invoker path byte-identical.
        self.resilience = None

    # -- registry ---------------------------------------------------------
    def register_deployment(self, name: str, app_factory: Callable) -> Deployment:
        """Register a uniquely named serverless function."""
        if name in self.deployments:
            raise ValueError(f"deployment {name!r} already registered")
        deployment = Deployment(self, name, app_factory)
        self.deployments[name] = deployment
        if self.env.metrics is not None:
            self._register_deployment_gauges(deployment)
        return deployment

    def _register_deployment_gauges(self, deployment: Deployment) -> None:
        """Expose fleet state as callback gauges (read at sample time)."""
        metrics = self.env.metrics
        name = deployment.name

        def _count_state(state: str, d: Deployment = deployment) -> int:
            return sum(1 for i in d.instances if i.state == state)

        metrics.register_gauge(
            "faas_instances_live", deployment.live_count,
            help="Live (warm or provisioning) instances per deployment",
            deployment=name,
        )
        for state in ("warm", "provisioning"):
            metrics.register_gauge(
                "faas_instances",
                lambda s=state, d=deployment: _count_state(s, d),
                help="Instances by lifecycle state",
                deployment=name, state=state,
            )
        metrics.register_gauge(
            "faas_http_in_flight",
            lambda d=deployment: sum(i.http_in_flight for i in d.instances),
            help="HTTP invocations currently in flight",
            deployment=name,
        )
        metrics.register_gauge(
            "faas_provisioned_ms_total",
            lambda d=deployment: sum(i.provisioned_ms() for i in d.all_instances),
            help="Cumulative container-provisioned milliseconds (billing)",
            deployment=name,
        )
        metrics.register_gauge(
            "faas_busy_ms_total",
            lambda d=deployment: sum(i.busy_ms_snapshot() for i in d.all_instances),
            help="Cumulative busy milliseconds across all instances ever",
            deployment=name,
        )

    def start(self) -> None:
        """Start background maintenance (idle reclamation)."""
        if not self._reclaimer_started:
            self._reclaimer_started = True
            self.env.process(self._reclaim_loop())

    # -- capacity ------------------------------------------------------------
    def used_vcpus(self) -> float:
        return sum(
            self.config.vcpus_per_instance
            for deployment in self.deployments.values()
            for instance in deployment.instances
        )

    def can_provision(self, deployment: Deployment) -> bool:
        cap = self.config.max_instances_per_deployment
        if cap is not None and deployment.live_count() >= cap:
            return False
        return (
            self.used_vcpus() + self.config.vcpus_per_instance
            <= self.config.cluster_vcpus
        )

    def total_live_instances(self) -> int:
        return sum(d.live_count() for d in self.deployments.values())

    def provision(self, deployment: Deployment) -> FunctionInstance:
        """Create a new instance (cold start runs as its own process)."""
        instance = FunctionInstance(self.env, self, deployment)
        deployment.instances.append(instance)
        deployment.all_instances.append(instance)
        self.cold_starts += 1
        if self.env.metrics is not None:
            self.env.metrics.inc(
                "faas_cold_starts_total", deployment=deployment.name
            )
        self._record(ScaleEvent(
            self.env.now, deployment.name, "provision", deployment.live_count()
        ))
        self.env.process(instance.startup())
        deployment.notify_change()
        return instance

    # -- invocation ---------------------------------------------------------
    def invoke(self, deployment_name: str, request: Any) -> Generator:
        """Route one HTTP invocation to an instance, scaling as needed.

        This is the invoker path of Figure 3 step (2): use an existing
        instance below its concurrency level, otherwise provision a
        new one; under a full cluster, evict an idle container from
        another deployment (Appendix C) or park until capacity frees.
        """
        deployment = self.deployments[deployment_name]
        env = self.env
        metrics = env.metrics
        tracer = env.tracer
        if metrics is not None:
            metrics.inc(
                "faas_invocations_total", deployment=deployment_name
            )
        queue_span = None
        if tracer is not None:
            # Invoker-queue time: from arrival at the invoker until an
            # instance is selected (includes parking on a full cluster).
            queue_span = tracer.begin(
                "faas.queue", deployment_name,
                parent=getattr(request, "trace_parent", None),
                deployment=deployment_name,
            )
        res = self.resilience
        instance: Optional[FunctionInstance] = None
        while instance is None:
            if (
                res is not None
                and res.active
                and getattr(request, "deadline_ms", None) is not None
                and env.now >= request.deadline_ms
            ):
                # The op's budget expired while queued at the invoker
                # (typically an abandoned resubmit): drop it here
                # instead of burning an instance slot on dead work.
                if tracer is not None:
                    tracer.end(queue_span, shed=True)
                return res.shed_response(
                    request, "faas-queue", "deadline", actor=deployment_name
                ), None
            instance = deployment.pick_available()
            if instance is not None:
                break
            if self.can_provision(deployment):
                fresh = self.provision(deployment)
                # Scale-out is for *future* traffic: this request is
                # served by an already-running instance if one exists
                # (briefly exceeding its concurrency) rather than
                # stalling behind the cold start.
                warm_peers = [
                    i for i in deployment.instances
                    if i is not fresh and i.state == "warm"
                ]
                if warm_peers:
                    instance = min(
                        warm_peers,
                        key=lambda i: (i.http_in_flight, i.active_requests),
                    )
                else:
                    instance = fresh
                break
            if self.config.allow_eviction and self._evict_idle(exclude=deployment):
                continue  # capacity freed; loop re-checks
            if (
                self.config.allow_eviction
                and not deployment.instances
                and self._evict_forced(exclude=deployment)
            ):
                # A deployment with zero instances must get one even
                # on a full cluster: the platform reclaims the least
                # recently active container, aborting its in-flight
                # requests (clients resubmit).  Under a too-small cap
                # this is the container churn of Appendix C.
                continue
            # No instance below its concurrency limit and no capacity:
            # overload an existing instance rather than park forever,
            # but only if the deployment has at least one instance.
            instance = deployment.least_loaded()
            if instance is not None:
                break
            # Park until this deployment changes, or briefly — other
            # deployments' instances may age past the eviction guard.
            timer = self.env.timeout(100.0)
            yield deployment.change_event() | timer
            timer.cancel()

        if tracer is not None:
            tracer.end(queue_span, instance=instance.id)
        instance.http_in_flight += 1
        try:
            response = yield from instance.serve(request, via="http")
        finally:
            instance.http_in_flight -= 1
            deployment.notify_change()
        return response, instance

    # -- internals ---------------------------------------------------------------
    def _evict_idle(self, exclude: Deployment) -> bool:
        """Evict the longest-idle instance from another deployment."""
        victims = [
            instance
            for deployment in self.deployments.values()
            if deployment is not exclude
            for instance in deployment.instances
            if instance.active_requests == 0
            and instance.http_in_flight == 0
            and instance.idle_ms >= self.config.eviction_min_idle_ms
        ]
        if not victims:
            return False
        victim = max(victims, key=lambda i: i.idle_ms)
        self.evictions += 1
        victim.terminate(reason="evict")
        return True

    def _evict_forced(self, exclude: Deployment) -> bool:
        """Evict the least-recently-active instance, busy or not."""
        if (
            self.env.now - self._last_forced_eviction
            < self.config.forced_eviction_cooldown_ms
        ):
            return False
        victims = [
            instance
            for deployment in self.deployments.values()
            if deployment is not exclude and len(deployment.instances) > 0
            for instance in deployment.instances
        ]
        # Leave deployments their last instance only if someone has
        # two or more; otherwise take from the largest deployment.
        multi = [
            instance for instance in victims
            if len(instance.deployment.instances) > 1
        ]
        pool = multi if multi else victims
        if not pool:
            return False
        # Prefer warm victims: tearing down a container mid-boot only
        # multiplies cold starts.
        victim = max(
            pool,
            key=lambda i: (i.state == "warm", i.idle_ms, -i.active_requests),
        )
        self.evictions += 1
        self._last_forced_eviction = self.env.now
        victim.terminate(reason="evict")
        return True

    def _reclaim_loop(self) -> Generator:
        while True:
            yield self.env.timeout(self.config.reclaim_sweep_ms)
            cutoff = self.config.idle_reclaim_ms
            for deployment in self.deployments.values():
                for instance in deployment.live_instances():
                    if instance.state == "warm" and instance.idle_ms >= cutoff:
                        instance.terminate(reason="reclaim")

    def _record(self, event: ScaleEvent) -> None:
        self.scale_events.append(event)
