"""The alerting rule DSL: signals, rules, and the default catalog.

A rule binds a :class:`Signal` — a recipe for reducing one sample of
the telemetry :class:`~repro.telemetry.sampler.TimeSeries` to a single
scalar — to a firing condition.  Three rule families cover the SRE
toolbox:

* :class:`ThresholdRule` — static comparison, optionally sustained
  (``for_ms``) before it fires;
* :class:`AnomalyRule` — EWMA mean/variance z-score detector with a
  warm-up period, an absolute-deviation guard (so near-constant
  signals don't z-explode), and a baseline that freezes while firing
  (the anomaly must not drag its own baseline after it);
* :class:`BurnRateRule` — Google-SRE-style multi-window burn rate on
  a bad/total counter pair: fires only when both the long window
  (budget actually burning) and the short window (still burning *now*)
  exceed the factor.

Rules are plain data: they round-trip through JSON
(:func:`rule_to_dict` / :func:`rule_from_dict` / :func:`load_rules`)
and carry no evaluation state — the per-run state lives in the
:class:`~repro.incidents.detect.AlertEngine`.

Everything here is pure arithmetic over sampled values: no simulated
time, no randomness, so detection cannot change a run's event hash.
:meth:`Signal.values` is the one reducer of a signal over a series;
the alert engine, the chaos verifier and the correlator all read it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Union

from repro.tenants.fairness import jain_index

#: Signal reduction modes (see :meth:`Signal.validate`).
SIGNAL_MODES = (
    "gauge",    # per-sample sum of the family's series
    "delta",    # per-interval increase of a cumulative family
    "rate",     # per-interval increase per second
    "mean",     # delta(<metric>_sum) / delta(<metric>_count)
    "ratio",    # delta(metric) / (delta(metric) + delta(divisor))
    "frac",     # delta(metric) / delta(divisor)
    "gap",      # gauge(metric) - gauge(divisor)
    "jain",     # Jain index over per-tenant interval deltas of metric
)

SEVERITIES = ("info", "warn", "page")


@dataclass(frozen=True)
class Signal:
    """How to reduce one telemetry sample to a scalar.

    ``metric`` names a family; every series belonging to it is summed
    (after the optional ``{"label": "value"}`` filter in ``labels``).
    ``divisor`` names the second family for the two-family modes.
    Evaluation yields ``None`` for intervals with no data (no ops, no
    observations) — detectors treat that as a gap, not a zero.
    """

    metric: str
    mode: str = "rate"
    divisor: str = ""
    labels: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.mode not in SIGNAL_MODES:
            raise ValueError(
                f"unknown signal mode {self.mode!r}; one of {SIGNAL_MODES}"
            )
        if self.mode in ("ratio", "frac", "gap") and not self.divisor:
            raise ValueError(f"signal mode {self.mode!r} needs a divisor")
        if not self.metric:
            raise ValueError("signal needs a metric family")

    def describe(self) -> str:
        if self.mode == "gauge":
            return self.metric
        if self.mode == "mean":
            return f"mean({self.metric})"
        if self.mode == "ratio":
            return f"{self.metric}/({self.metric}+{self.divisor})"
        if self.mode == "frac":
            return f"{self.metric}/{self.divisor}"
        if self.mode == "gap":
            return f"{self.metric}-{self.divisor}"
        if self.mode == "jain":
            return f"jain({self.metric})"
        return f"{self.mode}({self.metric})"

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"metric": self.metric, "mode": self.mode}
        if self.divisor:
            out["divisor"] = self.divisor
        if self.labels:
            out["labels"] = dict(self.labels)
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Signal":
        unknown = set(data) - {"metric", "mode", "divisor", "labels"}
        if unknown:
            raise ValueError(f"unknown Signal field(s): {sorted(unknown)}")
        return cls(
            metric=str(data["metric"]),
            mode=str(data.get("mode", "rate")),
            divisor=str(data.get("divisor", "")),
            labels=dict(data.get("labels", {})),
        )

    def values(self, timeseries: Any) -> List[Optional[float]]:
        """This signal at every sample of ``timeseries``; None is a gap.

        A family reads as absent until the first sample that holds one
        of its series; deltas count the first interval from zero and
        clamp a decrease to 0.0, and the first sample has no ``dt``.
        """
        mode = self.mode
        if mode == "jain":
            return _jain_values(timeseries, self.metric)
        if mode == "mean":
            num = _family(timeseries, f"{self.metric}_sum", self.labels)
            den = _family(timeseries, f"{self.metric}_count", self.labels)
        else:
            num = _family(timeseries, self.metric, self.labels)
            den = (
                _family(timeseries, self.divisor, self.labels)
                if mode in ("ratio", "frac", "gap") else num
            )
        times = timeseries.times()
        out: List[Optional[float]] = []
        for index, t_ms in enumerate(times):
            n, d = num[index], den[index]
            n_delta = _delta(num, index)
            d_delta = _delta(den, index)
            value: Optional[float] = None
            if mode == "gauge":
                value = n
            elif mode == "delta":
                value = None if n is None else n_delta
            elif mode == "rate":
                dt_ms = t_ms - times[index - 1] if index else 0.0
                if n is not None and dt_ms > 0:
                    value = n_delta / (dt_ms / 1_000.0)
            elif mode == "mean":
                if d_delta > 0:
                    value = n_delta / d_delta
            elif mode == "ratio":
                if n_delta + d_delta > 0:
                    value = n_delta / (n_delta + d_delta)
            elif mode == "frac":
                if d_delta > 0:
                    value = n_delta / d_delta
            elif n is not None or d is not None:  # gap
                value = (n or 0.0) - (d or 0.0)
            out.append(value)
        return out


def _family(
    timeseries: Any, family: str, labels: Mapping[str, str]
) -> List[Optional[float]]:
    """Per-sample total of ``family``; None until its first series."""
    sums = timeseries.sums(family, labels=labels).get(())
    out: List[Optional[float]] = []
    seen = False
    for total in sums or [None] * len(timeseries):
        seen = seen or total is not None
        out.append((total or 0.0) if seen else None)
    return out


def _delta(totals: List[Optional[float]], index: int) -> float:
    previous = totals[index - 1] if index else None
    return max(0.0, (totals[index] or 0.0) - (previous or 0.0))


def _jain_values(timeseries: Any, family: str) -> List[Optional[float]]:
    """Jain index over per-tenant interval deltas of ``family``.

    A tenant counts from its first series on; a sample holding none of
    its series carries its last cumulative value forward.
    """
    by_tenant = sorted(timeseries.sums(family, by=("tenant",)).items())
    out: List[Optional[float]] = []
    last: Dict[str, float] = {}
    for index in range(len(timeseries)):
        shares = []
        for (tenant,), sums in by_tenant:
            total = sums[index]
            if total is None:
                total = last.get(tenant)
                if total is None:
                    continue
            shares.append(max(0.0, total - last.get(tenant, 0.0)))
            last[tenant] = total
        out.append(
            jain_index(shares) if len(shares) >= 2 and sum(shares) > 0
            else None
        )
    return out


def _validate_common(name: str, severity: str, for_ms: float) -> None:
    if not name:
        raise ValueError("rule needs a name")
    if severity not in SEVERITIES:
        raise ValueError(
            f"{name}: unknown severity {severity!r}; one of {SEVERITIES}"
        )
    if for_ms < 0:
        raise ValueError(f"{name}: for_ms must be >= 0")


@dataclass(frozen=True)
class ThresholdRule:
    """Fire while ``signal <op> threshold``, sustained ``for_ms``."""

    name: str
    signal: Signal
    threshold: float
    op: str = ">"
    for_ms: float = 0.0
    severity: str = "page"
    description: str = ""

    kind = "threshold"

    def __post_init__(self) -> None:
        _validate_common(self.name, self.severity, self.for_ms)
        if self.op not in (">", "<"):
            raise ValueError(f"{self.name}: op must be '>' or '<'")

    def condition(self) -> str:
        return f"{self.signal.describe()} {self.op} {self.threshold:g}"


@dataclass(frozen=True)
class AnomalyRule:
    """Fire when the signal leaves its EWMA band by ``z`` deviations.

    ``alpha`` is the EWMA smoothing factor for both the mean and the
    variance estimate; ``warmup`` samples must be seen before the rule
    may fire; ``min_delta`` is an absolute floor on the deviation (a
    flat-lined signal has near-zero variance, so a trivial wiggle
    would otherwise z-explode).  While firing, the baseline freezes —
    recovery is judged against the pre-anomaly band.
    """

    name: str
    signal: Signal
    z: float = 4.0
    alpha: float = 0.3
    warmup: int = 5
    min_delta: float = 0.0
    direction: str = "above"
    for_ms: float = 0.0
    severity: str = "page"
    description: str = ""

    kind = "anomaly"

    def __post_init__(self) -> None:
        _validate_common(self.name, self.severity, self.for_ms)
        if self.z <= 0:
            raise ValueError(f"{self.name}: z must be > 0")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"{self.name}: alpha must be in (0, 1]")
        if self.warmup < 2:
            raise ValueError(f"{self.name}: warmup must be >= 2")
        if self.direction not in ("above", "below", "both"):
            raise ValueError(
                f"{self.name}: direction must be above/below/both"
            )

    def condition(self) -> str:
        sign = {"above": "+", "below": "-", "both": "±"}[self.direction]
        return f"{self.signal.describe()} {sign}{self.z:g}σ off EWMA"


@dataclass(frozen=True)
class BurnRateRule:
    """Multi-window, multi-burn-rate SLO rule (Google SRE workbook).

    Burn rate over a window = (bad events / total events) divided by
    the error budget.  The rule fires when **both** the long window
    and the short window burn above ``factor`` — the long window
    proves budget is actually being consumed, the short window proves
    it is still being consumed right now (so recovered incidents stop
    paging the moment the short window drains).
    """

    name: str
    bad: Signal
    total: Signal
    error_budget: float = 0.01
    long_ms: float = 4_000.0
    short_ms: float = 1_000.0
    factor: float = 8.0
    severity: str = "page"
    description: str = ""

    kind = "burn_rate"

    def __post_init__(self) -> None:
        _validate_common(self.name, self.severity, 0.0)
        if not 0.0 < self.error_budget < 1.0:
            raise ValueError(
                f"{self.name}: error_budget must be in (0, 1)"
            )
        if self.short_ms <= 0 or self.long_ms <= 0:
            raise ValueError(f"{self.name}: windows must be positive")
        if self.short_ms > self.long_ms:
            raise ValueError(
                f"{self.name}: short window must not exceed the long one"
            )
        if self.factor <= 0:
            raise ValueError(f"{self.name}: factor must be > 0")

    def condition(self) -> str:
        return (
            f"burn({self.bad.describe()}/{self.total.describe()})"
            f" > {self.factor:g}x over {self.long_ms:g}ms"
            f" AND {self.short_ms:g}ms"
        )


Rule = Union[ThresholdRule, AnomalyRule, BurnRateRule]

_RULE_TYPES: Dict[str, type] = {
    "threshold": ThresholdRule,
    "anomaly": AnomalyRule,
    "burn_rate": BurnRateRule,
}


def rule_to_dict(rule: Rule) -> Dict[str, Any]:
    """JSON form of one rule (inverse of :func:`rule_from_dict`)."""
    out: Dict[str, Any] = {"type": rule.kind, "name": rule.name}
    if rule.severity != "page":
        out["severity"] = rule.severity
    if rule.description:
        out["description"] = rule.description
    if isinstance(rule, ThresholdRule):
        out.update({
            "signal": rule.signal.to_dict(),
            "threshold": rule.threshold,
            "op": rule.op,
        })
        if rule.for_ms:
            out["for_ms"] = rule.for_ms
    elif isinstance(rule, AnomalyRule):
        out.update({
            "signal": rule.signal.to_dict(),
            "z": rule.z,
            "alpha": rule.alpha,
            "warmup": rule.warmup,
            "min_delta": rule.min_delta,
            "direction": rule.direction,
        })
        if rule.for_ms:
            out["for_ms"] = rule.for_ms
    else:
        out.update({
            "bad": rule.bad.to_dict(),
            "total": rule.total.to_dict(),
            "error_budget": rule.error_budget,
            "long_ms": rule.long_ms,
            "short_ms": rule.short_ms,
            "factor": rule.factor,
        })
    return out


def rule_from_dict(data: Mapping[str, Any]) -> Rule:
    kind = data.get("type")
    if kind not in _RULE_TYPES:
        raise ValueError(
            f"unknown rule type {kind!r}; one of {sorted(_RULE_TYPES)}"
        )
    fields = dict(data)
    fields.pop("type")
    try:
        if kind == "burn_rate":
            fields["bad"] = Signal.from_dict(fields["bad"])
            fields["total"] = Signal.from_dict(fields["total"])
        else:
            fields["signal"] = Signal.from_dict(fields["signal"])
    except KeyError as exc:
        raise ValueError(f"rule {data.get('name')!r} missing {exc}") from exc
    try:
        return _RULE_TYPES[kind](**fields)
    except TypeError as exc:
        raise ValueError(f"rule {data.get('name')!r}: {exc}") from exc


def load_rules(source: Union[str, Mapping[str, Any]]) -> List[Rule]:
    """Load a rule list from a JSON file path or a parsed document."""
    if isinstance(source, str):
        with open(source) as handle:
            data = json.load(handle)
    else:
        data = source
    entries = data.get("rules", []) if isinstance(data, Mapping) else data
    rules = [rule_from_dict(entry) for entry in entries]
    names = [rule.name for rule in rules]
    duplicates = sorted({n for n in names if names.count(n) > 1})
    if duplicates:
        raise ValueError(f"duplicate rule name(s): {duplicates}")
    return rules


# -- the default catalog ------------------------------------------------

def default_rules() -> List[Rule]:
    """The built-in rule catalog for λFS chaos/workload runs.

    One rule per failure symptom the fault catalog can produce, so the
    root-cause signatures in :mod:`repro.incidents.correlate` have a
    vocabulary to point at.  Returns fresh instances every call —
    rules are frozen, but callers may extend the list.
    """
    return [
        AnomalyRule(
            name="latency-anomaly",
            signal=Signal("op_latency_ms", mode="mean"),
            z=3.5, alpha=0.3, warmup=6, min_delta=2.0,
            description="per-interval mean op latency left its EWMA band",
        ),
        BurnRateRule(
            name="error-burn-fast",
            bad=Signal("ops_failed_total", mode="delta"),
            total=Signal("ops_total", mode="delta"),
            error_budget=0.02, long_ms=3_000.0, short_ms=1_000.0,
            factor=8.0,
            description="availability SLO burning at page speed "
                        "(both windows hot)",
        ),
        BurnRateRule(
            name="error-burn-slow",
            bad=Signal("ops_failed_total", mode="delta"),
            total=Signal("ops_total", mode="delta"),
            error_budget=0.02, long_ms=8_000.0, short_ms=2_000.0,
            factor=2.0, severity="warn",
            description="availability SLO burning at ticket speed",
        ),
        AnomalyRule(
            name="ack-latency-anomaly",
            signal=Signal("coord_ack_latency_ms", mode="mean"),
            z=3.5, alpha=0.3, warmup=4, min_delta=1.0,
            description="coordinator INV/ACK round latency anomalous",
        ),
        AnomalyRule(
            name="cache-hit-drop",
            signal=Signal(
                "cache_hits_total", mode="ratio",
                divisor="cache_misses_total",
            ),
            z=3.5, alpha=0.3, warmup=6, min_delta=0.15,
            direction="below", severity="warn",
            description="fleet cache hit-rate fell out of its band",
        ),
        AnomalyRule(
            name="retry-spike",
            signal=Signal("rpc_retries_total", mode="rate"),
            z=4.0, alpha=0.3, warmup=4, min_delta=8.0,
            description="RPC retry rate spiked",
        ),
        AnomalyRule(
            name="reconnect-spike",
            signal=Signal("tcp_connections_opened_total", mode="rate"),
            z=4.0, alpha=0.3, warmup=4, min_delta=4.0,
            description="TCP reconnect storm (fabric churn)",
        ),
        ThresholdRule(
            name="instance-terminations",
            signal=Signal("faas_terminations_total", mode="delta"),
            threshold=0.5, op=">",
            description="serving instance(s) terminated this interval "
                        "(the kubelet-NotReady of this stack)",
        ),
        ThresholdRule(
            name="connection-churn",
            signal=Signal("tcp_connections_closed_total", mode="delta"),
            threshold=2.5, op=">", severity="warn",
            description="a burst of TCP connections torn down in one "
                        "interval (partition or mass instance loss)",
        ),
        AnomalyRule(
            name="cold-start-spike",
            signal=Signal("faas_cold_starts_total", mode="rate"),
            z=4.0, alpha=0.3, warmup=4, min_delta=2.0,
            description="cold-start rate spiked (instances dying or "
                        "fleet churning)",
        ),
        ThresholdRule(
            name="fleet-gap",
            signal=Signal(
                "fleet_desired_namenodes", mode="gap",
                divisor="fleet_actual_namenodes",
            ),
            threshold=1.5, op=">", for_ms=500.0, severity="warn",
            description="autoscaler wants >1.5 more NameNodes than "
                        "are live (scale-out lagging)",
        ),
        AnomalyRule(
            name="store-queue-depth",
            signal=Signal("store_shard_queue_depth", mode="gauge"),
            z=4.0, alpha=0.3, warmup=4, min_delta=4.0,
            description="metastore shard queues building",
        ),
        ThresholdRule(
            name="fairness-dip",
            signal=Signal("tenant_ops_total", mode="jain"),
            threshold=0.6, op="<", for_ms=500.0,
            description="cross-tenant Jain throughput index collapsed",
        ),
        ThresholdRule(
            name="datanode-deaths",
            signal=Signal("dn_deaths_total", mode="delta"),
            threshold=0.5, op=">",
            description="DataNode(s) declared dead this interval",
        ),
        ThresholdRule(
            name="underreplicated-blocks",
            signal=Signal("dn_underreplicated_seen_total", mode="delta"),
            threshold=0.5, op=">", severity="warn",
            description="replication scanner found under-replicated "
                        "blocks",
        ),
        ThresholdRule(
            name="breaker-open",
            signal=Signal(
                "resilience_breaker_transitions_total", mode="delta",
                labels={"to": "open"},
            ),
            threshold=0.5, op=">",
            description="circuit breaker(s) tripped open this interval "
                        "(a destination is failing or slow)",
        ),
        ThresholdRule(
            name="shed-spike",
            signal=Signal("resilience_sheds_total", mode="delta"),
            threshold=2.5, op=">", severity="warn",
            description="admission control shedding load (overload or "
                        "expired deadlines at the door)",
        ),
        ThresholdRule(
            name="deadline-give-ups",
            signal=Signal("resilience_deadline_expired_total", mode="delta"),
            threshold=2.5, op=">", severity="warn",
            description="ops abandoning work mid-flight as end-to-end "
                        "deadlines expire (system slower than its SLO)",
        ),
    ]
