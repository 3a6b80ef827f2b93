"""The alert engine: rule evaluation over a finished telemetry series.

An :class:`AlertEngine` judges a run after it ends, like the
critical-path profiler: :meth:`AlertEngine.replay` evaluates its rule
list sample by sample over the run's
:class:`~repro.telemetry.sampler.TimeSeries` (or one loaded back from
a JSONL export), on the simulation clock the samples carry.  Each
rule's :class:`~repro.incidents.rules.Signal` reduces the series with
:meth:`~repro.incidents.rules.Signal.values`, the one evaluator the
chaos verifier and the correlator share.

The engine reads only the series, so a run with detection on has the
same event hash as one without, and ``repro incidents analyze`` on a
run's export gives the run's own alert list.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.incidents.rules import (
    AnomalyRule,
    BurnRateRule,
    Rule,
    ThresholdRule,
    default_rules,
)

#: Severity ordering for incident roll-ups.
SEVERITY_RANK = {"info": 0, "warn": 1, "page": 2}


@dataclass
class Alert:
    """One contiguous firing window of one rule."""

    rule: str
    severity: str
    condition: str
    started_ms: float
    ended_ms: Optional[float] = None
    value: float = 0.0
    """Signal value at the instant the alert opened."""
    peak_value: float = 0.0
    """Most extreme value observed while firing."""
    resolved: bool = True
    """False when the run ended with the alert still firing."""

    def as_dict(self) -> Dict[str, Any]:
        return {
            "rule": self.rule,
            "severity": self.severity,
            "condition": self.condition,
            "started_ms": self.started_ms,
            "ended_ms": self.ended_ms,
            "value": self.value,
            "peak_value": self.peak_value,
            "resolved": self.resolved,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Alert":
        return cls(
            rule=str(data["rule"]),
            severity=str(data.get("severity", "page")),
            condition=str(data.get("condition", "")),
            started_ms=float(data["started_ms"]),
            ended_ms=(
                None if data.get("ended_ms") is None
                else float(data["ended_ms"])
            ),
            value=float(data.get("value", 0.0)),
            peak_value=float(data.get("peak_value", 0.0)),
            resolved=bool(data.get("resolved", True)),
        )

    def __str__(self) -> str:
        end = "firing" if self.ended_ms is None else f"{self.ended_ms:.0f}"
        return (f"[{self.severity}] {self.rule} "
                f"{self.started_ms:.0f}..{end} ms")


class _RuleRuntime:
    """Per-rule firing state machine (shared sustain/alert logic)."""

    def __init__(self, rule: Rule, timeseries: Any, alerts: List[Alert]) -> None:
        self.rule = rule
        self.alerts = alerts
        """The engine's alert list; an alert joins it when it opens."""
        self.pending_since: Optional[float] = None
        self.alert: Optional[Alert] = None
        if isinstance(rule, BurnRateRule):
            self._bad = rule.bad.values(timeseries)
            self._total = rule.total.values(timeseries)
            self._window: deque = deque()
        else:
            self._signal = rule.signal.values(timeseries)
        if isinstance(rule, AnomalyRule):
            self._mean = 0.0
            self._var = 0.0
            self._seen = 0

    # -- per-kind condition evaluation ---------------------------------
    def _condition(
        self, index: int, t_ms: float
    ) -> Tuple[Optional[bool], float]:
        rule = self.rule
        if isinstance(rule, ThresholdRule):
            value = self._signal[index]
            if value is None or not math.isfinite(value):
                return None, 0.0
            met = value > rule.threshold if rule.op == ">" else value < rule.threshold
            return met, value

        if isinstance(rule, AnomalyRule):
            value = self._signal[index]
            if value is None or not math.isfinite(value):
                return None, 0.0
            if self._seen < rule.warmup:
                self._ewma(value, rule.alpha)
                self._seen += 1
                return False, value
            deviation = value - self._mean
            sigma = math.sqrt(max(self._var, 1e-12))
            above = (
                deviation > rule.z * sigma and deviation > rule.min_delta
            )
            below = (
                -deviation > rule.z * sigma and -deviation > rule.min_delta
            )
            if rule.direction == "above":
                met = above
            elif rule.direction == "below":
                met = below
            else:
                met = above or below
            if not met and self.alert is None:
                # Baseline freezes while firing (and while a sustain
                # window is pending): the anomaly must not teach the
                # detector that anomalous is normal.
                self._ewma(value, rule.alpha)
            return met, value

        # burn rate
        bad = self._bad[index]
        total = self._total[index]
        self._window.append((t_ms, bad or 0.0, total or 0.0))
        horizon = t_ms - rule.long_ms
        while self._window and self._window[0][0] <= horizon:
            self._window.popleft()
        burn_long = self._burn(t_ms - rule.long_ms, rule)
        burn_short = self._burn(t_ms - rule.short_ms, rule)
        if burn_long is None or burn_short is None:
            return None, 0.0
        met = burn_long >= rule.factor and burn_short >= rule.factor
        return met, burn_long

    def _burn(self, since_ms: float, rule: BurnRateRule) -> Optional[float]:
        bad = total = 0.0
        for t, b, n in self._window:
            if t > since_ms:
                bad += b
                total += n
        if total <= 0:
            return None
        return (bad / total) / rule.error_budget

    def _ewma(self, value: float, alpha: float) -> None:
        if self._seen == 0:
            self._mean = value
            self._var = 0.0
            return
        deviation = value - self._mean
        self._mean += alpha * deviation
        self._var = (1.0 - alpha) * (self._var + alpha * deviation * deviation)

    # -- lifecycle -----------------------------------------------------
    def step(self, index: int, t_ms: float) -> None:
        met, value = self._condition(index, t_ms)
        if met is None:
            # Data gap: keep state; an open alert stays open rather
            # than flapping shut because nobody completed an op.
            return
        rule = self.rule
        for_ms = getattr(rule, "for_ms", 0.0)
        if met:
            if self.pending_since is None:
                self.pending_since = t_ms
            if self.alert is None and t_ms - self.pending_since >= for_ms:
                self.alert = Alert(
                    rule=rule.name,
                    severity=rule.severity,
                    condition=rule.condition(),
                    started_ms=self.pending_since,
                    value=value,
                    peak_value=value,
                )
                self.alerts.append(self.alert)
            elif self.alert is not None:
                if abs(value) > abs(self.alert.peak_value):
                    self.alert.peak_value = value
        else:
            self.pending_since = None
            if self.alert is not None:
                self.alert.ended_ms = t_ms
                self.alert = None

    def finish(self, end_ms: float) -> None:
        if self.alert is not None:
            self.alert.ended_ms = end_ms
            self.alert.resolved = False
            self.alert = None


class AlertEngine:
    """Evaluates a rule list over a finished :class:`TimeSeries`.

    :meth:`replay` steps every rule through the series sample by
    sample and closes the alerts still firing at its last sample;
    :attr:`alerts` then holds every firing window in opening order.
    """

    def __init__(self, rules: Optional[Sequence[Rule]] = None) -> None:
        self.rules: List[Rule] = list(rules) if rules is not None else default_rules()
        names = [rule.name for rule in self.rules]
        duplicates = sorted({n for n in names if names.count(n) > 1})
        if duplicates:
            raise ValueError(f"duplicate rule name(s): {duplicates}")
        self.alerts: List[Alert] = []

    def replay(self, timeseries: Any) -> List[Alert]:
        """Evaluate every rule over ``timeseries``; returns the alerts."""
        self.alerts = []
        runtimes = [
            _RuleRuntime(rule, timeseries, self.alerts) for rule in self.rules
        ]
        times = timeseries.times()
        for index, t_ms in enumerate(times):
            for runtime in runtimes:
                runtime.step(index, t_ms)
        end_ms = times[-1] if times else 0.0
        for runtime in runtimes:
            runtime.finish(end_ms)
        return self.alerts
