"""Root-cause attribution: rank suspects for one incident window.

Given an incident (a window of temporally-overlapping alerts) and the
run's evidence — the chaos fault log, the critical-path profile, and
the telemetry series — :func:`rank_suspects` produces a scored suspect
list.  Injected faults found in the chaos log carry a 0.5 prior (the
log is ground truth that *something* was injected) topped up by how
well the fault's time window, alert signature, and critical-path
footprint match the incident; circumstantial suspects (a stage-share
shift, an autoscaler gap, coordinator ACK latency, tenant
interference) are capped below 0.5 so that when an injected fault
plausibly explains the incident it always out-ranks the circumstantial
evidence — which is exactly the detection gate's contract.

Everything here is post-hoc and read-only: no events, no RNG, no
mutation of the run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.telemetry.registry import parse_series_key

#: How far (sim-ms) before an incident opens a fault may lie and still
#: count as temporally linked — detection necessarily lags injection
#: by sampling interval + sustain windows.
LEAD_MS = 1_500.0

#: How long a fault's effects may linger after deactivation (queues
#: drain, retries settle) and still count as linked.
TAIL_MS = 1_500.0

#: Fault kind → the alert rules and critical-path stages it
#: characteristically lights up.  Used to corroborate (never to gate):
#: a fault with zero signature overlap still scores its 0.5 prior plus
#: the time term.
FAULT_SIGNATURES: Dict[str, Dict[str, Tuple[str, ...]]] = {
    "namenode_kill": {
        "rules": ("instance-terminations", "latency-anomaly",
                  "error-burn-fast", "error-burn-slow", "cold-start-spike",
                  "reconnect-spike", "retry-spike", "connection-churn",
                  "fleet-gap"),
        "stages": ("cold_start", "invoker_queue", "resubmit", "client_queue"),
    },
    "tcp_sever": {
        "rules": ("connection-churn", "reconnect-spike", "retry-spike",
                  "latency-anomaly"),
        "stages": ("client_queue", "http_gateway", "resubmit"),
    },
    "tcp_drop": {
        "rules": ("retry-spike", "latency-anomaly", "error-burn-fast",
                  "error-burn-slow"),
        "stages": ("resubmit", "client_queue"),
    },
    "tcp_duplicate": {
        "rules": ("retry-spike",),
        "stages": (),
    },
    "tcp_delay": {
        "rules": ("latency-anomaly",),
        "stages": ("tcp_transit",),
    },
    "http_brownout": {
        "rules": ("latency-anomaly", "error-burn-fast", "error-burn-slow",
                  "retry-spike"),
        "stages": ("http_gateway", "resubmit"),
    },
    "shard_outage": {
        "rules": ("store-queue-depth", "latency-anomaly",
                  "error-burn-fast", "error-burn-slow"),
        "stages": ("store", "lock_wait"),
    },
    "store_slowdown": {
        "rules": ("store-queue-depth", "latency-anomaly"),
        "stages": ("store", "lock_wait"),
    },
    "ack_loss": {
        "rules": ("ack-latency-anomaly", "latency-anomaly"),
        "stages": ("coherence",),
    },
    "watch_delay": {
        "rules": ("latency-anomaly", "reconnect-spike"),
        "stages": ("client_queue", "resubmit"),
    },
    "membership_flap": {
        "rules": ("reconnect-spike", "latency-anomaly"),
        "stages": ("client_queue", "resubmit"),
    },
    "cold_start_storm": {
        "rules": ("cold-start-spike", "latency-anomaly", "fleet-gap"),
        "stages": ("cold_start", "invoker_queue"),
    },
    "capacity_crunch": {
        "rules": ("fleet-gap", "latency-anomaly", "cold-start-spike",
                  "instance-terminations"),
        "stages": ("invoker_queue", "cold_start"),
    },
    "datanode_kill": {
        "rules": ("datanode-deaths", "underreplicated-blocks"),
        "stages": (),
    },
    "disk_slow": {
        "rules": ("latency-anomaly",),
        "stages": (),
    },
    "tenant_flood": {
        "rules": ("fairness-dip", "latency-anomaly"),
        "stages": ("namenode", "invoker_queue", "store"),
    },
    "load_spike": {
        "rules": ("latency-anomaly", "retry-spike", "shed-spike",
                  "deadline-give-ups", "breaker-open",
                  "error-burn-fast", "error-burn-slow"),
        "stages": ("namenode", "invoker_queue", "store", "lock_wait"),
    },
    "disable_shedding": {
        # Latching the resilience layer off has no symptom of its own —
        # it makes the *other* active faults' symptoms worse — so its
        # signature borrows the overload vocabulary minus the shed
        # rules that can no longer fire.
        "rules": ("latency-anomaly", "retry-spike",
                  "error-burn-fast", "error-burn-slow"),
        "stages": ("store", "lock_wait"),
    },
}


@dataclass
class Suspect:
    """One ranked root-cause candidate."""

    kind: str
    """``fault:<kind>`` for chaos-log suspects; ``stage:<name>``,
    ``autoscaler_gap``, ``coordinator_ack``, ``tenant_interference``
    for circumstantial ones."""
    score: float
    label: str
    evidence: List[str] = field(default_factory=list)

    @property
    def is_fault(self) -> bool:
        return self.kind.startswith("fault:")

    @property
    def fault_kind(self) -> Optional[str]:
        return self.kind[len("fault:"):] if self.is_fault else None

    def as_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "score": round(self.score, 4),
            "label": self.label,
            "evidence": list(self.evidence),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Suspect":
        return cls(
            kind=str(data["kind"]),
            score=float(data["score"]),
            label=str(data.get("label", data["kind"])),
            evidence=list(data.get("evidence", ())),
        )

    def __str__(self) -> str:
        return f"{self.kind} ({self.score:.2f}): {self.label}"


@dataclass
class Evidence:
    """The run-level evidence the correlator joins against.

    Every field is optional — the correlator degrades gracefully to
    whatever was recorded (``repro incidents analyze`` on a bare
    telemetry export has only the timeseries).
    """

    fault_log: Sequence[Any] = ()
    """:class:`~repro.chaos.engine.FaultEvent` entries (or their
    ``as_dict`` forms) with absolute sim-times."""
    profile: Any = None
    """A :class:`repro.profile.Profile`, for stage-share shifts."""
    timeseries: Any = None
    """The run's :class:`~repro.telemetry.sampler.TimeSeries`."""

    @property
    def fault_windows(self) -> List[Tuple[str, float, float]]:
        """(kind, activate_ms, deactivate_ms) per activation edge.

        A zero-duration (one-shot) fault yields a point window; an
        activation that never deactivated extends to +inf.
        """
        out: List[Tuple[str, float, float]] = []
        open_at: Dict[str, List[float]] = {}
        for event in self.fault_log:
            if not isinstance(event, Mapping):
                event = event.as_dict()
            kind = str(event["kind"])
            action = str(event["action"])
            t = float(event["time_ms"])
            if action == "activate":
                open_at.setdefault(kind, []).append(t)
            elif action == "deactivate" and open_at.get(kind):
                start = open_at[kind].pop(0)
                out.append((kind, start, t))
        for kind, starts in open_at.items():
            for start in starts:
                out.append((kind, start, float("inf")))
        # One-shots (activate with no deactivate edge and zero
        # duration) were just given infinite windows above; that is
        # fine for overlap math — their *effects* persist (a severed
        # connection stays severed until re-dialed).
        out.sort(key=lambda w: (w[1], w[0]))
        return out


# -- scoring terms -----------------------------------------------------

def _time_score(
    window: Tuple[float, float], incident: Tuple[float, float]
) -> float:
    """1.0 when the fault window overlaps the (lead/tail-extended)
    incident window; decays linearly with the gap otherwise."""
    f0, f1 = window
    i0, i1 = incident[0] - LEAD_MS, incident[1] + TAIL_MS
    if f0 <= i1 and f1 >= i0:
        return 1.0
    gap = (f0 - i1) if f0 > i1 else (i0 - f1)
    return max(0.0, 1.0 - gap / max(LEAD_MS, 1.0))


def _alert_score(incident_rules: Sequence[str], kind: str) -> float:
    """Fraction of the incident's firing rules the fault explains."""
    signature = FAULT_SIGNATURES.get(kind)
    if signature is None or not incident_rules:
        return 0.0
    expected = set(signature["rules"])
    hits = sum(1 for rule in incident_rules if rule in expected)
    return hits / len(set(incident_rules))


def stage_shift(
    profile: Any, t0_ms: float, t1_ms: float
) -> Dict[str, float]:
    """Per-stage share delta: ops inside [t0, t1] vs ops outside.

    Positive means the stage ate a larger share of end-to-end latency
    during the window — the critical path moved *into* that stage.
    Empty dict when either population is empty.
    """
    inside: Dict[str, float] = {}
    outside: Dict[str, float] = {}
    for op in profile.ops:
        bucket = (
            inside if (op.start_ms <= t1_ms and op.end_ms >= t0_ms)
            else outside
        )
        for stage, value in op.stages.items():
            bucket[stage] = bucket.get(stage, 0.0) + value
    total_in = sum(inside.values())
    total_out = sum(outside.values())
    if total_in <= 0 or total_out <= 0:
        return {}
    stages = set(inside) | set(outside)
    return {
        stage: inside.get(stage, 0.0) / total_in
        - outside.get(stage, 0.0) / total_out
        for stage in stages
    }


def _stage_score(shift: Mapping[str, float], kind: str) -> float:
    """How much the critical path moved into the fault's stages."""
    signature = FAULT_SIGNATURES.get(kind)
    if not signature or not shift:
        return 0.0
    gain = sum(max(0.0, shift.get(stage, 0.0)) for stage in signature["stages"])
    return min(1.0, gain / 0.10)


# -- timeseries evidence (circumstantial suspects) ---------------------

def _family_totals_at(values: Mapping[str, float], family: str) -> float:
    return sum(
        value for key, value in values.items()
        if parse_series_key(key)[0] == family
    )


def _autoscaler_gap(timeseries: Any, t0_ms: float, t1_ms: float) -> float:
    """Largest desired-minus-actual NameNode gap inside the window."""
    gap = 0.0
    for _, values in timeseries.window(t0_ms, t1_ms).samples:
        desired = _family_totals_at(values, "fleet_desired_namenodes")
        actual = _family_totals_at(values, "fleet_actual_namenodes")
        gap = max(gap, desired - actual)
    return gap


def _ack_latency_lift(timeseries: Any, t0_ms: float, t1_ms: float) -> float:
    """Window mean INV/ACK latency minus the whole-run mean (ms)."""
    def mean(samples) -> Optional[float]:
        if len(samples) < 2:
            return None
        count = (_family_totals_at(samples[-1][1], "coord_ack_latency_ms_count")
                 - _family_totals_at(samples[0][1], "coord_ack_latency_ms_count"))
        total = (_family_totals_at(samples[-1][1], "coord_ack_latency_ms_sum")
                 - _family_totals_at(samples[0][1], "coord_ack_latency_ms_sum"))
        if count <= 0:
            return None
        return total / count

    window_mean = mean(timeseries.window(t0_ms, t1_ms).samples)
    run_mean = mean(timeseries.samples)
    if window_mean is None or run_mean is None:
        return 0.0
    return max(0.0, window_mean - run_mean)


def _fairness_floor(
    timeseries: Any, t0_ms: float, t1_ms: float
) -> Optional[float]:
    """Jain index of per-tenant op throughput across the window."""
    samples = timeseries.window(t0_ms, t1_ms).samples
    if len(samples) < 2:
        return None

    def per_tenant(values: Mapping[str, float]) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for key, value in values.items():
            name, labels = parse_series_key(key)
            if name == "tenant_ops_total" and "tenant" in labels:
                tenant = labels["tenant"]
                out[tenant] = out.get(tenant, 0.0) + value
        return out

    first = per_tenant(samples[0][1])
    last = per_tenant(samples[-1][1])
    tenants = sorted(set(first) | set(last))
    if len(tenants) < 2:
        return None
    shares = [
        max(0.0, last.get(t, 0.0) - first.get(t, 0.0)) for t in tenants
    ]
    total = sum(shares)
    if total <= 0:
        return None
    square_sum = sum(share * share for share in shares)
    return (total * total) / (len(shares) * square_sum)


# -- the ranker --------------------------------------------------------

def rank_suspects(incident: Any, evidence: Evidence) -> List[Suspect]:
    """Score every candidate cause for one incident, best first.

    ``incident`` needs ``started_ms``, ``ended_ms`` and ``rules``
    (the firing rule names) — duck-typed so the report layer owns the
    Incident class without a circular import.
    """
    window = (float(incident.started_ms), float(incident.ended_ms))
    rules = sorted(set(incident.rules))
    suspects: List[Suspect] = []

    shift: Dict[str, float] = {}
    if evidence.profile is not None:
        shift = stage_shift(evidence.profile, window[0], window[1])

    # Chaos-log suspects: one per fault kind (best window wins).
    best: Dict[str, Tuple[float, Tuple[float, float]]] = {}
    for kind, f0, f1 in evidence.fault_windows:
        score = _time_score((f0, f1), window)
        if kind not in best or score > best[kind][0]:
            best[kind] = (score, (f0, f1))
    for kind, (time_score, (f0, f1)) in sorted(best.items()):
        alert_score = _alert_score(rules, kind)
        stage_score = _stage_score(shift, kind)
        score = (0.5 + 0.25 * time_score + 0.15 * alert_score
                 + 0.10 * stage_score)
        ev = [
            f"injected {kind} active "
            f"{f0:.0f}..{'∞' if f1 == float('inf') else f'{f1:.0f}'} ms "
            f"(time match {time_score:.2f})",
        ]
        if alert_score > 0:
            matched = [
                r for r in rules
                if r in FAULT_SIGNATURES.get(kind, {}).get("rules", ())
            ]
            ev.append(
                f"alert signature match {alert_score:.2f} "
                f"({', '.join(matched)})"
            )
        if stage_score > 0:
            stages = FAULT_SIGNATURES.get(kind, {}).get("stages", ())
            moved = {
                stage: shift.get(stage, 0.0)
                for stage in stages if shift.get(stage, 0.0) > 0
            }
            ev.append(
                "critical path moved into "
                + ", ".join(f"{s} (+{d:.1%})" for s, d in sorted(moved.items()))
            )
        suspects.append(Suspect(
            kind=f"fault:{kind}", score=score,
            label=f"injected fault '{kind}'", evidence=ev,
        ))

    # Circumstantial suspects — capped below the fault prior (0.5).
    if shift:
        stage, delta = max(shift.items(), key=lambda item: item[1])
        if delta > 0.02:
            suspects.append(Suspect(
                kind=f"stage:{stage}",
                score=min(0.45, 0.45 * min(1.0, delta / 0.20)),
                label=f"critical-path share shifted into '{stage}'",
                evidence=[f"'{stage}' stage share +{delta:.1%} vs outside "
                          "the incident window"],
            ))

    if evidence.timeseries is not None:
        gap = _autoscaler_gap(evidence.timeseries, window[0], window[1])
        if gap > 0.5:
            suspects.append(Suspect(
                kind="autoscaler_gap",
                score=min(0.45, 0.45 * min(1.0, gap / 4.0)),
                label="autoscaler behind demand",
                evidence=[f"desired-vs-actual NameNode gap peaked at "
                          f"{gap:.1f} in the incident window"],
            ))
        lift = _ack_latency_lift(evidence.timeseries, window[0], window[1])
        if lift > 1.0:
            suspects.append(Suspect(
                kind="coordinator_ack",
                score=min(0.45, 0.45 * min(1.0, lift / 50.0)),
                label="coordinator INV/ACK latency elevated",
                evidence=[f"window mean ACK latency +{lift:.1f} ms over "
                          "the run mean"],
            ))
        jain = _fairness_floor(evidence.timeseries, window[0], window[1])
        if jain is not None and jain < 0.9:
            suspects.append(Suspect(
                kind="tenant_interference",
                score=min(0.45, 0.45 * min(1.0, (0.9 - jain) / 0.4)),
                label="tenant throughput fairness dipped",
                evidence=[f"Jain index {jain:.3f} across the incident "
                          "window"],
            ))

    suspects.sort(key=lambda s: (-s.score, s.kind))
    return suspects
