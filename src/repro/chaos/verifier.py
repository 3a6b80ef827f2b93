"""Recovery verification: did the system survive the scenario?

A chaos run passes three gates:

1. **Invariants** — the tracer's online checkers (ACK-INV coherence,
   lock discipline) recorded zero violations *under fault*;
2. **Liveness** — every client operation terminated by the end of the
   run, either successfully or with a clean typed error: no
   ``client.op`` span is still open (a hung writer blocked on an ACK
   that will never come shows up exactly here);
3. **Recovery SLOs** — from the telemetry time-series: within
   ``window_ms`` after the last fault clears, per-interval mean op
   latency returns to within ``LATENCY_FACTOR`` × the pre-fault
   baseline, and the cache hit-rate recovers to at least
   ``HIT_RATE_BAND`` × its baseline.

The verifier is read-only: it consumes the tracer and the sampled
:class:`~repro.telemetry.sampler.TimeSeries` after the run.  Each gate
degrades gracefully — with no tracer the first two are skipped, with
no telemetry (or no pre-fault samples) the SLO gate is skipped — so
unit tests can exercise gates in isolation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Tuple

from repro.incidents.rules import Signal


#: Gate 3: recovered hit-rate ≥ band × baseline hit-rate.
HIT_RATE_BAND = 0.5

#: Pre-fault intervals (with ops) needed to form a baseline.
MIN_BASELINE_SAMPLES = 2

#: Gate 5 (fairness): within the window, the per-interval Jain index
#: over tenant throughput must return to at least this.
JAIN_FLOOR = 0.8

#: Gate 5: victim tenants' per-interval p99 must return to within this
#: factor of its pre-fault baseline.
VICTIM_P99_FACTOR = 5.0

#: Floor on the victim-p99 recovery bound — interval quantiles are
#: bucket upper bounds, so a sub-ms baseline would otherwise make the
#: bound finer than the histogram can resolve.
VICTIM_P99_MIN_BOUND_MS = 10.0

#: Gate 7 (resilience): mean goodput over the second half of the
#: recovery window must be at least this fraction of the pre-fault
#: baseline — the metastable-collapse detector (a system stuck in the
#: bad equilibrium stays near zero long after the fault clears).
GOODPUT_FLOOR = 0.8
#: Recovered per-interval mean latency ≤ factor × baseline.
LATENCY_FACTOR = 3.0
#: Gate 6 (detection): an incident blaming the injected fault must
#: open within this long of the first fault activating (MTTD bound).
#: Generous relative to the sampling interval + rule sustain windows,
#: tight relative to the fault windows themselves.
DETECTION_WINDOW_MS = 4_000.0


@dataclass(frozen=True)
class RecoverySLO:
    """Bands the post-fault system must return to."""

    window_ms: float = 10_000.0
    """How long after the last fault clears recovery must happen (the
    replication factor too, gate 4)."""


@dataclass
class VerifierReport:
    """Everything the verifier concluded about one run."""

    passed: bool = True
    checks: List[str] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)
    violations: List[str] = field(default_factory=list)
    hung_ops: List[str] = field(default_factory=list)
    baseline_latency_ms: Optional[float] = None
    recovered_latency_ms: Optional[float] = None
    baseline_hit_rate: Optional[float] = None
    recovered_hit_rate: Optional[float] = None
    recovery_time_ms: Optional[float] = None
    """Last-fault-clear → first interval back inside the band."""
    lost_blocks: List[int] = field(default_factory=list)
    """Blocks with zero live replicas at verification time."""
    replication_recovery_ms: Optional[float] = None
    """Last-fault-clear → last re-replication repair completing."""
    baseline_victim_p99_ms: Optional[float] = None
    recovered_victim_p99_ms: Optional[float] = None
    jain_min: Optional[float] = None
    """Worst per-interval Jain index anywhere in the run."""
    jain_recovered: Optional[float] = None
    fairness_recovery_ms: Optional[float] = None
    """Last-fault-clear → first interval back inside both fairness
    bands (Jain floor and victim-p99 bound)."""
    incidents_detected: Optional[int] = None
    """Incident count from the detection gate (None = gate not run)."""
    detection_ms: Optional[float] = None
    """First-fault-activation → matching incident opening (MTTD)."""
    top_suspect: Optional[str] = None
    """The matching incident's top-ranked suspect kind."""
    baseline_goodput: Optional[float] = None
    """Gate 7: pre-fault mean successful ops per telemetry interval."""
    recovered_goodput: Optional[float] = None
    """Gate 7: mean goodput over the second half of the window."""
    deadline_violations: Optional[int] = None
    """Gate 7: ops that executed past their deadline (must be 0)."""
    breaker_transitions: Optional[int] = None
    """Gate 7: breaker FSM transitions audited (None = gate not run)."""

    def _ok(self, message: str) -> None:
        self.checks.append(f"PASS {message}")

    def _fail(self, message: str) -> None:
        self.passed = False
        self.checks.append(f"FAIL {message}")
        self.failures.append(message)

    def _skip(self, message: str) -> None:
        self.checks.append(f"skip {message}")

    def render(self) -> str:
        lines = [f"verifier: {'PASS' if self.passed else 'FAIL'}"]
        lines.extend(f"  {check}" for check in self.checks)
        for hung in self.hung_ops:
            lines.append(f"  hung: {hung}")
        for violation in self.violations:
            lines.append(f"  violation: {violation}")
        return "\n".join(lines)


class ChaosVerifier:
    """Post-run verdict over tracer + telemetry for one chaos run."""

    def __init__(
        self,
        tracer: Any = None,
        timeseries: Any = None,
        engine: Any = None,
        slo: Optional[RecoverySLO] = None,
        fleet: Any = None,
        tenants: Any = None,
        incidents: Any = None,
        resilience: Any = None,
    ) -> None:
        self.tracer = tracer
        self.timeseries = timeseries
        self.engine = engine
        self.slo = slo or RecoverySLO()
        self.fleet = fleet
        self.tenants = tenants
        """Tenant specs of a multi-tenant run (for fair-share weights
        and SLO targets); None outside tenant mode."""
        self.incidents = incidents
        """An :class:`repro.incidents.IncidentReport` from a
        ``--detect`` run; None keeps gate 6 out of the verdict
        entirely (detector-off runs are judged as before)."""
        self.resilience = resilience
        """The run's :class:`~repro.resilience.ResilienceManager`;
        None keeps gate 7 out of the verdict entirely."""

    def verify(self) -> VerifierReport:
        report = VerifierReport()
        self._check_invariants(report)
        self._check_liveness(report)
        self._check_slos(report)
        self._check_replication(report)
        self._check_fairness(report)
        self._check_detection(report)
        self._check_resilience(report)
        return report

    # -- gate 1: invariants --------------------------------------------
    def _check_invariants(self, report: VerifierReport) -> None:
        if self.tracer is None:
            report._skip("invariants (no tracer)")
            return
        violations = self.tracer.violations()
        if violations:
            report.violations = [str(v) for v in violations]
            report._fail(f"invariants: {len(violations)} violation(s)")
        else:
            report._ok("invariants: 0 violations")

    # -- gate 2: liveness ----------------------------------------------
    def _check_liveness(self, report: VerifierReport) -> None:
        if self.tracer is None:
            report._skip("liveness (no tracer)")
            return
        hung = [
            span for span in self.tracer.open_spans()
            if span.kind == "client.op"
        ]
        if hung:
            report.hung_ops = [
                f"{span.actor} {span.attrs.get('op')} "
                f"{span.attrs.get('path')} (since t={span.start_ms:.1f}ms)"
                for span in hung
            ]
            report._fail(f"liveness: {len(hung)} client op(s) never terminated")
        else:
            report._ok("liveness: every client op terminated")

    # -- gate 4: replication factor ------------------------------------
    def _check_replication(self, report: VerifierReport) -> None:
        """Replication factor restored within the SLO window.

        Three ways to fail, checked from the fleet's current state and
        the scanner's repair records:

        * **lost blocks** — any block whose every replica sits on a
          dead node is unrecoverable data loss, a hard FAIL (never a
          silent empty placement);
        * **standing deficit** — blocks still below target RF when the
          run ends (the dead-repair-daemon case);
        * **late repairs** — every repair must complete by
          ``clear + window_ms``.
        """
        if self.fleet is None:
            report._skip("replication (no DataNode fleet)")
            return
        scanner = self.fleet.scanner
        deficits = scanner.under_replicated()
        lost = sorted(bid for bid, holders in deficits.items() if not holders)
        if lost:
            report.lost_blocks = lost
            report._fail(
                f"replication: {len(lost)} block(s) lost "
                f"(zero live replicas): {lost[:8]}"
            )
            return
        if deficits:
            report._fail(
                f"replication: {len(deficits)} block(s) still "
                "under-replicated at end of run"
            )
            return
        _first, clear = self._fault_window()
        repairs = scanner.records
        if clear is not None and repairs is not None and repairs:
            window = self.slo.window_ms
            deadline = clear + window
            late = [r for r in repairs if r.restored_ms > deadline]
            last_restore = max(r.restored_ms for r in repairs)
            report.replication_recovery_ms = max(0.0, last_restore - clear)
            if late:
                report._fail(
                    f"replication: {len(late)} repair(s) finished after the "
                    f"{window:.0f} ms window (last at "
                    f"{last_restore - clear:+.0f} ms past clear)"
                )
                return
            report._ok(
                f"replication: RF restored, {len(repairs)} repair(s) done "
                f"{report.replication_recovery_ms:.0f} ms after faults cleared"
            )
            return
        report._ok("replication: no under-replicated blocks")

    # -- gate 3: recovery SLOs -----------------------------------------
    def _fault_window(self) -> Tuple[Optional[float], Optional[float]]:
        if self.engine is None:
            return None, None
        return self.engine.first_fault_at_ms, self.engine.faults_clear_at_ms

    def _check_slos(self, report: VerifierReport) -> None:
        first_fault, clear = self._fault_window()
        if self.timeseries is None or first_fault is None or clear is None:
            report._skip("recovery SLO (no telemetry or no fault window)")
            return
        self._check_latency_slo(report, first_fault, clear)
        self._check_hit_rate_slo(report, first_fault, clear)

    def _signal(
        self, metric: str, mode: str, divisor: str = ""
    ) -> List[Optional[float]]:
        """Per-sample values of an alert-rule signal over the series."""
        return Signal(metric, mode=mode, divisor=divisor).values(
            self.timeseries
        )

    def _intervals(
        self, metric: str, mode: str, divisor: str = ""
    ) -> List[Tuple[float, float]]:
        """(t, signal value) for the intervals that have data."""
        return [
            (t_ms, value)
            for t_ms, value in zip(
                self.timeseries.times(), self._signal(metric, mode, divisor)
            )
            if value is not None
        ]

    def _latency_intervals(self) -> List[Tuple[float, float]]:
        """(t, mean per-interval op latency) for intervals with ops."""
        return self._intervals("op_latency_ms", "mean")

    def _hit_rate_intervals(self) -> List[Tuple[float, float]]:
        return self._intervals(
            "cache_hits_total", "ratio", divisor="cache_misses_total"
        )

    def _baseline(
        self, intervals: List[Tuple[float, float]], first_fault: float
    ) -> Optional[float]:
        # Baseline = steady-state intervals between the scenario epoch
        # (excluding prewarm/prelude traffic before it, whose cold
        # starts would inflate the band) and the first activation.
        epoch = self.engine.epoch if self.engine is not None else None
        window = [
            v for t, v in intervals
            if t < first_fault and (epoch is None or t > epoch)
        ]
        if len(window) < MIN_BASELINE_SAMPLES:
            return None
        return sum(window) / len(window)

    def _recovery(
        self, rows: List[tuple], clear: float, in_band: Callable[..., bool]
    ) -> Tuple[Optional[tuple], bool]:
        """(the first ``(t, *values)`` row in (clear, clear + window]
        whose values are ``in_band``, True), else (the window's last
        row or None, False)."""
        deadline = clear + self.slo.window_ms
        post = [row for row in rows if clear < row[0] <= deadline]
        for row in post:
            if in_band(*row[1:]):
                return row, True
        return (post[-1] if post else None), False

    def _check_latency_slo(
        self, report: VerifierReport, first_fault: float, clear: float
    ) -> None:
        intervals = self._latency_intervals()
        baseline = self._baseline(intervals, first_fault)
        if baseline is None:
            report._skip("latency SLO (not enough pre-fault samples)")
            return
        report.baseline_latency_ms = baseline
        bound = LATENCY_FACTOR * baseline
        row, recovered = self._recovery(
            intervals, clear, lambda value: value <= bound
        )
        if row is None:
            report._fail(
                "latency SLO: no completed ops observed in the "
                f"{self.slo.window_ms:.0f} ms recovery window"
            )
            return
        t_ms, value = row
        report.recovered_latency_ms = value
        if recovered:
            report.recovery_time_ms = max(0.0, t_ms - clear)
            report._ok(
                f"latency SLO: {value:.2f} ms <= "
                f"{LATENCY_FACTOR:g}x baseline "
                f"({baseline:.2f} ms) after {t_ms - clear:.0f} ms"
            )
            return
        report._fail(
            f"latency SLO: still {value:.2f} ms "
            f"(> {LATENCY_FACTOR:g}x baseline {baseline:.2f} ms) "
            f"{self.slo.window_ms:.0f} ms after faults cleared"
        )

    def _check_hit_rate_slo(
        self, report: VerifierReport, first_fault: float, clear: float
    ) -> None:
        intervals = self._hit_rate_intervals()
        baseline = self._baseline(intervals, first_fault)
        if baseline is None or baseline <= 0.0:
            report._skip("hit-rate SLO (no pre-fault cache baseline)")
            return
        report.baseline_hit_rate = baseline
        floor = HIT_RATE_BAND * baseline
        row, recovered = self._recovery(
            intervals, clear, lambda value: value >= floor
        )
        if row is None:
            report._skip("hit-rate SLO (no cache traffic after faults cleared)")
            return
        t_ms, value = row
        report.recovered_hit_rate = value
        if recovered:
            report._ok(
                f"hit-rate SLO: {value:.2f} >= "
                f"{HIT_RATE_BAND:g}x baseline ({baseline:.2f}) "
                f"after {t_ms - clear:.0f} ms"
            )
            return
        report._fail(
            f"hit-rate SLO: still {value:.2f} "
            f"(< {HIT_RATE_BAND:g}x baseline {baseline:.2f}) "
            f"{self.slo.window_ms:.0f} ms after faults cleared"
        )

    # -- gate 5: tenant fairness ---------------------------------------
    def _faults(self) -> tuple:
        """The scenario's fault specs (none without engine or scenario)."""
        scenario = getattr(self.engine, "scenario", None)
        return scenario.faults if scenario is not None else ()

    def _noisy_tenants(self) -> List[str]:
        """Tenants the scenario floods (``tenant_flood`` targets)."""
        return sorted({
            str(spec.params.get("tenant"))
            for spec in self._faults()
            if spec.kind == "tenant_flood" and spec.params.get("tenant")
        })

    def _check_fairness(self, report: VerifierReport) -> None:
        """Victims' p99 and the Jain index recover within the window.

        Only engages when the scenario floods a tenant; judged from
        the per-tenant telemetry (:mod:`repro.tenants.fairness`): the
        per-interval Jain index over tenant throughput must return to
        ≥ ``JAIN_FLOOR`` **and** the victim tenants' per-interval p99
        (merged bucket deltas) to ≤ ``VICTIM_P99_FACTOR`` × its
        pre-fault baseline, in the same interval, within ``window_ms``
        of the last fault clearing.  The isolation-disabled flood
        latches past its window, so this gate is exactly what the
        ``noisy-neighbor-runaway`` expected-FAIL trips.
        """
        noisy = self._noisy_tenants()
        if not noisy:
            return
        if self.timeseries is None:
            report._skip("fairness (no telemetry)")
            return
        from repro.tenants import fairness

        names = list(
            fairness.tenant_totals(self.timeseries, "tenant_ops_total")
        )
        victims = [name for name in names if name not in noisy]
        if not victims:
            report._skip("fairness (no victim-tenant telemetry)")
            return
        first_fault, clear = self._fault_window()
        if first_fault is None or clear is None:
            report._skip("fairness (no fault window)")
            return
        weights = None
        if self.tenants:
            weights = {
                spec.name: getattr(spec, "weight", 1.0)
                for spec in self.tenants
            }
        jain = fairness.jain_timeline(self.timeseries, names, weights=weights)
        p99 = fairness.p99_timeline(self.timeseries, victims)
        if jain:
            report.jain_min = min(value for _t, value in jain)
        baseline = self._baseline(
            [(t, value) for t, value in p99 if value != float("inf")],
            first_fault,
        )
        if baseline is None:
            report._skip("fairness (not enough pre-fault samples)")
            return
        report.baseline_victim_p99_ms = baseline
        bound = max(
            VICTIM_P99_FACTOR * baseline,
            VICTIM_P99_MIN_BOUND_MS,
        )
        jain_at = dict(jain)
        p99_at = dict(p99)
        rows = [
            (t, jain_at[t], p99_at[t])
            for t in sorted(set(jain_at) & set(p99_at))
        ]
        row, recovered = self._recovery(
            rows, clear,
            lambda jain_value, p99_value:
                jain_value >= JAIN_FLOOR and p99_value <= bound,
        )
        if row is None:
            report._fail(
                "fairness: no tenant ops observed in the "
                f"{self.slo.window_ms:.0f} ms recovery window"
            )
            return
        t_ms, jain_value, p99_value = row
        report.jain_recovered = jain_value
        report.recovered_victim_p99_ms = p99_value
        if recovered:
            report.fairness_recovery_ms = max(0.0, t_ms - clear)
            report._ok(
                f"fairness: Jain {jain_value:.3f} >= "
                f"{JAIN_FLOOR:g} and victim p99 "
                f"{p99_value:.1f} ms <= {bound:.1f} ms "
                f"after {t_ms - clear:.0f} ms"
            )
            return
        report._fail(
            f"fairness: still Jain {jain_value:.3f} "
            f"(floor {JAIN_FLOOR:g}) / victim p99 "
            f"{p99_value:.1f} ms (bound {bound:.1f} ms) "
            f"{self.slo.window_ms:.0f} ms after faults cleared"
        )

    # -- gate 6: detection ---------------------------------------------
    def _injected_kinds(self) -> List[str]:
        return sorted({spec.kind for spec in self._faults()})

    def _check_detection(self, report: VerifierReport) -> None:
        """The detector caught the fault — and blamed the right thing.

        Only engages when an incident report was handed in (a
        ``--detect`` run); detector-off runs keep their five-gate
        verdict untouched.  Two contracts:

        * **fault scenarios** — at least one incident must open within
          ``DETECTION_WINDOW_MS`` of the first activation *and* its
          top-ranked suspect must be one of the injected fault kinds
          (a detected-but-misattributed incident is a FAIL: an on-call
          chasing the wrong suspect is as bad as no page);
        * **no-fault control** — zero incidents: any page in a clean
          run is a false positive and fails the gate.
        """
        if self.incidents is None:
            return
        incidents = self.incidents.incidents
        report.incidents_detected = len(incidents)
        kinds = self._injected_kinds()
        if not kinds:
            if incidents:
                report._fail(
                    f"detection: {len(incidents)} incident(s) paged in a "
                    "no-fault run (false positive)"
                )
            else:
                report._ok("detection: no faults, no incidents")
            return
        if not incidents:
            report._fail(
                f"detection: injected {', '.join(kinds)} but no incident "
                "was detected"
            )
            return
        window = DETECTION_WINDOW_MS
        matched = None
        for incident in incidents:
            top = incident.top_suspect
            if top is None or getattr(top, "fault_kind", None) not in kinds:
                continue
            if incident.mttd_ms is not None and incident.mttd_ms > window:
                continue
            matched = incident
            break
        if matched is None:
            first = incidents[0]
            top = first.top_suspect
            blamed = top.kind if top is not None else "nothing"
            mttd = (
                f"{first.mttd_ms:.0f} ms" if first.mttd_ms is not None
                else "n/a"
            )
            report.top_suspect = top.kind if top is not None else None
            report.detection_ms = first.mttd_ms
            report._fail(
                f"detection: no incident blamed an injected fault "
                f"({', '.join(kinds)}) within {window:.0f} ms "
                f"(first incident blamed {blamed}, MTTD {mttd})"
            )
            return
        report.detection_ms = matched.mttd_ms
        report.top_suspect = matched.top_suspect.kind
        mttd = (
            f"{matched.mttd_ms:.0f} ms" if matched.mttd_ms is not None
            else "n/a"
        )
        report._ok(
            f"detection: incident #{matched.index} blamed "
            f"{matched.top_suspect.kind} (MTTD {mttd}, "
            f"score {matched.top_suspect.score:.2f})"
        )

    # -- gate 7: resilience --------------------------------------------
    def _goodput_intervals(self) -> List[Tuple[float, float]]:
        """(t, successful ops this interval) across the fleet."""
        ops = self._signal("ops_total", "delta")
        failed = self._signal("ops_failed_total", "delta")
        return [
            (t_ms, max(0.0, n - (f or 0.0)))
            for t_ms, n, f in zip(self.timeseries.times(), ops, failed)
            if n is not None
        ]

    def _audit_breakers(self, report: VerifierReport) -> bool:
        """Every breaker's transition log walks the FSM legally."""
        from repro.resilience.primitives import CLOSED, VALID_TRANSITIONS

        transitions = self.resilience.transitions
        report.breaker_transitions = len(transitions)
        by_breaker: dict = {}
        last_t = None
        for event in transitions:
            if (event.from_state, event.to_state) not in VALID_TRANSITIONS:
                report._fail(
                    f"resilience: illegal breaker transition "
                    f"{event.from_state}->{event.to_state} on {event.name}"
                )
                return False
            if last_t is not None and event.t_ms < last_t:
                report._fail(
                    "resilience: breaker transition log is not "
                    f"time-ordered at t={event.t_ms:.1f} ms"
                )
                return False
            last_t = event.t_ms
            expected = by_breaker.get(event.name, CLOSED)
            if event.from_state != expected:
                report._fail(
                    f"resilience: {event.name} jumped from {expected} to "
                    f"{event.from_state} without a logged transition"
                )
                return False
            by_breaker[event.name] = event.to_state
        return True

    def _check_resilience(self, report: VerifierReport) -> None:
        """Shedding broke the metastable loop (and did no hidden harm).

        Only engages when the run carried a resilience layer.  Three
        contracts:

        * **goodput recovery** — mean per-interval goodput
          (successful ops) over the *second half* of the recovery
          window is ≥ ``GOODPUT_FLOOR`` × the pre-fault baseline.
          Judging the late window (not first-recovered-interval)
          is deliberate: a metastable collapse shows exactly as
          goodput pinned near zero long after the fault cleared, and
          one lucky interval must not mask it;
        * **deadline honesty** — zero ops executed past their
          deadline (the shed path must refuse them instead);
        * **breaker audit** — the transition log walks the
          closed/open/half-open FSM legally, in time order.
        """
        if self.resilience is None:
            return
        report.deadline_violations = self.resilience.deadline_violations
        if not self._audit_breakers(report):
            return
        if self.resilience.deadline_violations > 0:
            report._fail(
                f"resilience: {self.resilience.deadline_violations} op(s) "
                "executed past their deadline"
            )
            return
        first_fault, clear = self._fault_window()
        if self.timeseries is None or first_fault is None or clear is None:
            report._skip("resilience goodput (no telemetry or fault window)")
            return
        intervals = self._goodput_intervals()
        # The first post-epoch interval straddles the epoch: its delta
        # includes tail-end prelude ops issued back-to-back before the
        # scenario started, which would inflate an ops-per-interval
        # baseline (unlike the ratio baselines of gates 3/5).  Drop it.
        epoch = self.engine.epoch if self.engine is not None else None
        if epoch is not None:
            post_epoch = [t for t, _v in intervals if t > epoch]
            if post_epoch:
                first_interval = post_epoch[0]
                intervals = [
                    (t, v) for t, v in intervals if t != first_interval
                ]
        baseline = self._baseline(intervals, first_fault)
        if baseline is None or baseline <= 0.0:
            report._skip("resilience goodput (no pre-fault baseline)")
            return
        report.baseline_goodput = baseline
        deadline = clear + self.slo.window_ms
        half = clear + self.slo.window_ms / 2.0
        late = [v for t, v in intervals if half < t <= deadline]
        if not late:
            report._fail(
                "resilience: no telemetry in the second half of the "
                f"{self.slo.window_ms:.0f} ms recovery window"
            )
            return
        recovered = sum(late) / len(late)
        report.recovered_goodput = recovered
        floor = GOODPUT_FLOOR * baseline
        if recovered < floor:
            report._fail(
                f"resilience: goodput still {recovered:.1f} ops/interval "
                f"(< {GOODPUT_FLOOR:g}x baseline {baseline:.1f}) "
                "in the late recovery window — metastable collapse"
            )
            return
        report._ok(
            f"resilience: goodput {recovered:.1f} >= "
            f"{GOODPUT_FLOOR:g}x baseline ({baseline:.1f}), "
            f"0 deadline violations, "
            f"{report.breaker_transitions} breaker transition(s) legal"
        )
