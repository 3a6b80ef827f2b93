"""The λFS client library (§3.2, §3.4, Appendices B & C).

Clients route each metadata RPC to the deployment owning the target
path, preferring direct TCP connections and falling back to HTTP
invocations through the FaaS gateway.  Three client-side mechanisms
from the paper live here:

* **randomized HTTP-TCP replacement** — each TCP-eligible RPC is
  issued over HTTP instead with probability *p* (default ≤ 1 %), the
  fine-grained auto-scaling signal of §3.4;
* **straggler mitigation** (Appendix B) — requests taking longer than
  ``threshold ×`` a moving-window average latency are cancelled and
  resubmitted to another NameNode;
* **anti-thrashing mode** (Appendix C) — when latency spikes past a
  multiple of the moving average, the client stops issuing HTTP
  invocations (suppressing further scale-out) until things recover.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Deque, Generator, Optional

from repro.core.messages import MetadataRequest, OpType
from repro.faas.platform import InstanceTerminated
from repro.resilience.primitives import attempt_timeout_ms
from repro.rpc.connections import ConnectionDropped
from repro.rpc.retry import RetryPolicy

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.fs import LambdaFS
    from repro.rpc.connections import ClientVM, TcpServer


class RequestTimeout(Exception):
    """An RPC did not complete within its budget."""


@dataclass(frozen=True)
class ClientConfig:
    replacement_probability: float = 0.01
    """HTTP-TCP replacement probability (§3.4; best ≤ 1 %)."""
    http_timeout_ms: float = 30_000.0
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    straggler_enabled: bool = True
    straggler_threshold: float = 10.0
    """Resubmit when latency ≥ threshold × moving average (App. B)."""
    straggler_floor_ms: float = 50.0
    """Never flag requests faster than this as stragglers."""
    straggler_reserve: int = 2
    """Final attempts that run without the straggler watchdog: when
    the whole system is saturated, resubmitting forever never
    finishes, so the tail of the attempt budget waits requests out."""
    latency_window: int = 64
    antithrash_enabled: bool = True
    antithrash_threshold: float = 2.5
    """Enter anti-thrashing mode past this multiple of the moving
    average (App. C: T between 2–3 performs best)."""
    antithrash_cooldown_ms: float = 5_000.0

    @property
    def max_attempts(self) -> int:
        """Attempt limit, derived from :class:`RetryPolicy` — the
        single source of truth (there used to be a second, conflicting
        constant here)."""
        return self.retry.max_attempts

    @property
    def straggler_attempt_cutoff(self) -> int:
        """Attempts below this run with the straggler watchdog."""
        return self.retry.max_attempts - self.straggler_reserve


class LambdaFSClient:
    """One DFS client process endpoint."""

    def __init__(self, fs: "LambdaFS", vm: "ClientVM") -> None:
        self.fs = fs
        self.vm = vm
        self.server: "TcpServer" = vm.assign_server()
        self.config = fs.config.client
        self.id = f"client{fs.env.next_id('client')}"
        #: Tenant this client issues ops for (multi-tenant mode).
        #: None (the default) leaves spans and metrics exactly as in
        #: single-tenant runs — no extra attrs, no extra series.
        self.tenant: Optional[str] = None
        self._rng = fs.rngs.stream(f"client:{self.id}")
        #: Resilience control plane, or None (byte-identical hot path).
        self._res = fs.resilience
        self._latencies: Deque[float] = deque(maxlen=self.config.latency_window)
        self._antithrash_until = -float("inf")
        self.stats_stragglers = 0
        self.stats_http_rpcs = 0
        self.stats_tcp_rpcs = 0
        self.stats_retries = 0
        self.stats_antithrash_entries = 0

    # -- public API ------------------------------------------------------
    def create_file(self, path: str) -> Generator:
        return (yield from self.execute(OpType.CREATE_FILE, path))

    def mkdirs(self, path: str) -> Generator:
        return (yield from self.execute(OpType.MKDIRS, path))

    def read_file(self, path: str) -> Generator:
        return (yield from self.execute(OpType.READ_FILE, path))

    def stat(self, path: str) -> Generator:
        return (yield from self.execute(OpType.STAT, path))

    def ls(self, path: str) -> Generator:
        return (yield from self.execute(OpType.LS, path))

    def delete(self, path: str, recursive: bool = False) -> Generator:
        return (yield from self.execute(OpType.DELETE, path, recursive=recursive))

    def mv(self, src: str, dst: str) -> Generator:
        return (yield from self.execute(OpType.MV, src, dst_path=dst))

    def set_permission(self, path: str, mode: int) -> Generator:
        return (yield from self.execute(OpType.SET_PERMISSION, path, payload=mode))

    def write_block(self, path: str) -> Generator:
        """HDFS-style data write: resolve metadata, then pipeline chunks.

        The metadata op (a READ_FILE resolving the inode and block
        ids) goes through the normal RPC path; the data then streams
        through the attached DataNode fleet's replica pipelines, one
        per block.  With no fleet attached this degrades to the plain
        metadata read — byte-identical to the pre-data-plane path.
        """
        response = yield from self.read_file(path)
        fleet = self.fs.datanode_fleet
        if fleet is None or not response.ok:
            return response
        view = response.value or {}
        inode = view.get("inode") if isinstance(view, dict) else None
        for block_id in getattr(inode, "block_ids", ()) or ():
            yield from fleet.client_write(block_id, actor=self.id)
        return response

    def execute(
        self,
        op: OpType,
        path: str,
        dst_path: Optional[str] = None,
        recursive: bool = False,
        payload=None,
    ) -> Generator:
        """Issue one metadata operation; returns the response."""
        env = self.fs.env
        start = env.now
        request = MetadataRequest(
            op=op,
            path=path,
            dst_path=dst_path,
            recursive=recursive,
            request_id=env.next_id("request"),
            client_id=self.id,
            tcp_servers=tuple(self.vm.servers),
            payload=payload,
        )
        res = self._res
        if res is not None:
            # Stamping is observational (a float riding the request) and
            # stays on even when the ``disable_shedding`` latch stands
            # the *enforcement* down — that is how the noshed twin's
            # deadline violations remain detectable.
            res.stamp(request)
        deployment = self.fs.partitioner.deployment_for(path)
        tracer = env.tracer
        op_span = None
        if tracer is not None:
            if self.tenant is None:
                op_span = tracer.begin(
                    "client.op", self.id, op=op.value, path=path,
                    request_id=request.request_id,
                )
            else:
                op_span = tracer.begin(
                    "client.op", self.id, op=op.value, path=path,
                    request_id=request.request_id, tenant=self.tenant,
                )
        try:
            response, via, cache_hit = yield from self._submit(
                request, deployment, op_span
            )
        except BaseException:
            if tracer is not None:
                tracer.end(op_span, ok=False)
            raise
        if tracer is not None:
            tracer.end(op_span, ok=response.ok, via=via, cache_hit=cache_hit)
        latency = env.now - start
        self._observe(latency)
        metrics = env.metrics
        if metrics is not None:
            metrics.inc("ops_total", op=op.value)
            if not response.ok:
                metrics.inc("ops_failed_total", op=op.value)
            metrics.observe("op_latency_ms", latency, op=op.value)
            tenant = self.tenant
            if tenant is not None:
                # Separate tenant_* families (not tenant labels on the
                # fleet-global ones): the chaos verifier sums every
                # series in a family, so labelled duplicates would
                # double-count each op in the recovery-SLO gate.
                metrics.inc("tenant_ops_total", op=op.value, tenant=tenant)
                if not response.ok:
                    metrics.inc("tenant_ops_failed_total", tenant=tenant)
                metrics.observe("tenant_op_latency_ms", latency, tenant=tenant)
                if cache_hit:
                    metrics.inc("tenant_cache_hits_total", tenant=tenant)
                else:
                    metrics.inc("tenant_cache_misses_total", tenant=tenant)
        self.fs.metrics.record(
            op=op.value, start_ms=start, end_ms=env.now,
            ok=response.ok, via=via, cache_hit=cache_hit,
        )
        return response

    # -- submission ------------------------------------------------------
    def _submit(
        self, request: MetadataRequest, deployment: str, op_span=None
    ) -> Generator:
        env = self.fs.env
        tracer = env.tracer
        metrics = env.metrics
        attempt = 0
        resubmit_of = None
        while True:
            attempt += 1
            request.attempt = attempt
            res = self._res
            res_on = res is not None and res.active
            breaker = None
            if res_on:
                if res.expired(request):
                    # The op's end-to-end budget is gone: give up at
                    # the source rather than feeding dead work in.
                    res.note_deadline_expired(request, "client", self.id)
                    raise RequestTimeout(
                        f"deadline exceeded after {attempt - 1} attempts"
                    )
                breaker = res.breaker("client", deployment)
                if not breaker.allow(env.now):
                    res.breaker_rejected("client")
                    if attempt >= self.config.max_attempts:
                        raise RequestTimeout(
                            f"breaker open for {deployment}"
                        )
                    wait = breaker.retry_after_ms(env.now)
                    if wait <= 0.0:
                        wait = self.config.retry.full_jitter_delay(
                            attempt, self._rng
                        )
                    deadline = request.deadline_ms
                    if deadline is not None:
                        wait = min(wait, max(0.0, deadline - env.now))
                    yield env.timeout(wait)
                    continue
            connection = yield from self.vm.find_shared(
                deployment, self.server, trace_parent=op_span
            )
            use_tcp = connection is not None and (
                self._antithrash_active()
                or self._rng.random() >= self.config.replacement_probability
            )
            rpc_span = None
            if tracer is not None:
                link = {} if resubmit_of is None else {"resubmit_of": resubmit_of}
                rpc_span = tracer.begin(
                    "rpc.tcp" if use_tcp else "rpc.http", self.id,
                    parent=op_span, attempt=attempt, deployment=deployment,
                    **link,
                )
                request.trace_parent = rpc_span.span_id
            try:
                if metrics is not None:
                    metrics.inc(
                        "rpc_requests_total",
                        transport="tcp" if use_tcp else "http",
                    )
                if use_tcp:
                    self.stats_tcp_rpcs += 1
                    response = yield from self._tcp_call(connection, request)
                else:
                    self.stats_http_rpcs += 1
                    response = yield from self._http_call(request, deployment)
                if res_on and response.shed:
                    # Explicit pushback from a downstream hop: a
                    # breaker failure signal, and a budgeted retry if
                    # the op is still alive.
                    breaker.record_failure(env.now)
                    if tracer is not None:
                        tracer.end(rpc_span, ok=False, error="Shed")
                        resubmit_of = rpc_span.span_id
                    retry = (
                        attempt < self.config.max_attempts
                        and not res.expired(request)
                    )
                    if retry and not res.budget(self.id).try_spend():
                        res.budget_exhausted()
                        retry = False
                    if retry:
                        self.stats_retries += 1
                        if metrics is not None:
                            metrics.inc("rpc_retries_total", error="Shed")
                        yield from self._backoff(request, attempt, op_span)
                        continue
                    return response, "tcp" if use_tcp else "http", False
                if res_on:
                    breaker.record_success(env.now)
                    res.budget(self.id).refill()
                if tracer is not None:
                    tracer.end(rpc_span, ok=response.ok)
                return response, "tcp" if use_tcp else "http", response.cache_hit
            except (ConnectionDropped, InstanceTerminated, RequestTimeout) as exc:
                self.stats_retries += 1
                if res_on:
                    breaker.record_failure(env.now)
                if metrics is not None:
                    metrics.inc("rpc_retries_total", error=type(exc).__name__)
                if tracer is not None:
                    tracer.end(rpc_span, ok=False, error=type(exc).__name__)
                    # Resubmission linkage: the next attempt's span
                    # carries this failed span's id as resubmit_of.
                    resubmit_of = rpc_span.span_id
                    tracer.point(
                        "rpc.retry", self.id, parent=op_span,
                        attempt=attempt, error=type(exc).__name__,
                        resubmit_of=resubmit_of,
                    )
                if attempt >= self.config.max_attempts:
                    raise
                if res_on:
                    if res.expired(request):
                        # No budget left for another attempt — let the
                        # deadline check at the loop top account it.
                        continue
                    if not res.budget(self.id).try_spend():
                        res.budget_exhausted()
                        raise
                if not use_tcp:
                    # HTTP resubmission storms are dangerous (§3.2):
                    # back off exponentially with jitter.
                    yield from self._backoff(request, attempt, op_span)
                # A dropped TCP connection retries immediately: the
                # next find_shared scans sibling servers, and the HTTP
                # fallback kicks in if nothing is connected.

    def _backoff(self, request: MetadataRequest, attempt: int, op_span) -> Generator:
        """Full-jitter backoff before retry ``attempt + 1``.

        Full jitter (uniform over [0, capped exponential]) rather than
        the legacy centred jitter: decorrelating a fleet of retriers
        is exactly what §3.2's backoff exists for.  With a deadline,
        the sleep never extends past the op's remaining budget.
        """
        env = self.fs.env
        backoff = self.config.retry.full_jitter_delay(attempt, self._rng)
        res = self._res
        if res is not None and res.active and request.deadline_ms is not None:
            backoff = min(backoff, max(0.0, request.deadline_ms - env.now))
        if env.metrics is not None:
            env.metrics.inc("rpc_backoff_ms_total", backoff)
        backoff_span = None
        tracer = env.tracer
        if tracer is not None:
            backoff_span = tracer.begin(
                "client.backoff", self.id, parent=op_span,
                attempt=attempt, backoff_ms=backoff,
                **self.config.retry.as_attrs(),
            )
        yield env.timeout(backoff)
        if tracer is not None:
            tracer.end(backoff_span)

    def _tcp_call(self, connection, request: MetadataRequest) -> Generator:
        """Direct TCP RPC with straggler mitigation (Appendix B).

        The watchdog is dropped for the last retry attempts: when the
        whole system is saturated (not just one NameNode), resubmitting
        forever would never finish, so the client eventually waits the
        request out.
        """
        env = self.fs.env
        call = env.process(connection.call(request))
        watchdog = (
            self.config.straggler_enabled
            and request.attempt < self.config.straggler_attempt_cutoff
        )
        if not watchdog:
            response = yield call
            return response
        threshold = max(
            self.config.straggler_floor_ms,
            self.config.straggler_threshold * self._moving_average(),
        )
        timer = env.timeout(threshold)
        outcome = yield call | timer
        if call in outcome:
            timer.cancel()
            return outcome[call]
        # Straggler: abandon this request and resubmit elsewhere.
        self.stats_stragglers += 1
        if env.metrics is not None:
            env.metrics.inc("client_stragglers_total")
        call.defused()
        raise RequestTimeout(f"straggler after {threshold:.1f} ms")

    def _http_call(self, request: MetadataRequest, deployment: str) -> Generator:
        """HTTP invocation through the FaaS API gateway."""
        env = self.fs.env
        latency = self.fs.latency
        yield env.timeout(latency.http_oneway() + latency.gateway())
        chaos = env.chaos
        if chaos is not None:
            extra, shed = chaos.gateway_effects()
            if extra > 0.0:
                yield env.timeout(extra)
            if shed:
                # Gateway brownout: the request never reaches the
                # invoker; the caller's backoff-retry loop handles it.
                if env.tracer is not None:
                    env.tracer.point(
                        "chaos.gateway_shed", self.id,
                        parent=request.trace_parent, deployment=deployment,
                    )
                raise RequestTimeout(f"gateway shed invoke of {deployment}")
        timeout_ms = self.config.http_timeout_ms
        res = self._res
        if res is not None and res.active and request.deadline_ms is not None:
            # Budget-sized attempt timeout instead of the fixed 30 s:
            # a dying op stops waiting long before its transport does.
            timeout_ms = attempt_timeout_ms(
                res.config, request.deadline_ms, env.now, timeout_ms
            )
            if timeout_ms <= 0.0:
                raise RequestTimeout("deadline exhausted before invoke")
        invoke = env.process(self.fs.platform.invoke(deployment, request))
        timer = env.timeout(timeout_ms)
        outcome = yield invoke | timer
        if invoke not in outcome:
            invoke.defused()
            raise RequestTimeout(f"HTTP invoke of {deployment} timed out")
        timer.cancel()
        response, _instance = outcome[invoke]
        yield env.timeout(latency.http_oneway())
        return response

    # -- adaptive state -------------------------------------------------------
    def _moving_average(self) -> float:
        if not self._latencies:
            return 0.0
        return sum(self._latencies) / len(self._latencies)

    def _observe(self, latency_ms: float) -> None:
        average = self._moving_average()
        self._latencies.append(latency_ms)
        if (
            self.config.antithrash_enabled
            and average > 0
            and latency_ms >= self.config.antithrash_threshold * average
        ):
            if not self._antithrash_active():
                # Count entries (not extensions): a spike during an
                # active cooldown merely prolongs it.
                self.stats_antithrash_entries += 1
                if self.fs.env.metrics is not None:
                    self.fs.env.metrics.inc("client_antithrash_entries_total")
            self._antithrash_until = (
                self.fs.env.now + self.config.antithrash_cooldown_ms
            )

    def _antithrash_active(self) -> bool:
        return self.config.antithrash_enabled and (
            self.fs.env.now < self._antithrash_until
        )
