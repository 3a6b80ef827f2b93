"""Incidents: grouped alert windows with attribution and a timeline.

An **incident** is a maximal group of temporally-overlapping (or
near-adjacent) alert firing windows — the unit an on-call human would
page on, as opposed to the individual rule firings that compose it.
:func:`group_alerts` does the grouping, :func:`build_report` runs the
root-cause correlator over each incident and assembles an
:class:`IncidentReport` carrying MTTD/MTTR, the ranked suspect lists,
and JSON/markdown renderings (``incidents.json`` round-trips through
:func:`load_report`).

MTTD (mean time to detect) is measured from the first injected
fault's activation to the moment the incident's earliest alert
*opened* (the sustain-window start, not when it fired) — i.e. how far
behind ground truth the detector ran.  MTTR here is the incident's
open duration: detection-to-all-clear on the simulation clock.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.incidents.correlate import Evidence, Suspect, rank_suspects
from repro.incidents.detect import SEVERITY_RANK, Alert

#: Alerts whose windows are within this many sim-ms of each other are
#: folded into one incident — detection flaps around a single fault
#: should not page twice.
GROUP_GAP_MS = 1_000.0


@dataclass
class Incident:
    """One maximal group of overlapping alerts."""

    index: int
    started_ms: float
    ended_ms: float
    alerts: List[Alert] = field(default_factory=list)
    suspects: List[Suspect] = field(default_factory=list)
    mttd_ms: Optional[float] = None
    """Delay from first injected fault to detection; None when the run
    had no injected faults (nothing to measure against)."""

    @property
    def rules(self) -> List[str]:
        """Sorted unique rule names that fired in this incident."""
        return sorted({alert.rule for alert in self.alerts})

    @property
    def severity(self) -> str:
        """The worst severity among the member alerts."""
        worst = "info"
        for alert in self.alerts:
            if SEVERITY_RANK.get(alert.severity, 0) > SEVERITY_RANK[worst]:
                worst = alert.severity
        return worst

    @property
    def mttr_ms(self) -> float:
        """Detection-to-all-clear duration on the sim clock."""
        return max(0.0, self.ended_ms - self.started_ms)

    @property
    def resolved(self) -> bool:
        return all(alert.resolved for alert in self.alerts)

    @property
    def top_suspect(self) -> Optional[Suspect]:
        return self.suspects[0] if self.suspects else None

    def as_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "started_ms": self.started_ms,
            "ended_ms": self.ended_ms,
            "severity": self.severity,
            "mttd_ms": self.mttd_ms,
            "mttr_ms": self.mttr_ms,
            "resolved": self.resolved,
            "rules": self.rules,
            "alerts": [alert.as_dict() for alert in self.alerts],
            "suspects": [suspect.as_dict() for suspect in self.suspects],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Incident":
        return cls(
            index=int(data.get("index", 0)),
            started_ms=float(data["started_ms"]),
            ended_ms=float(data["ended_ms"]),
            alerts=[Alert.from_dict(a) for a in data.get("alerts", ())],
            suspects=[Suspect.from_dict(s) for s in data.get("suspects", ())],
            mttd_ms=(
                None if data.get("mttd_ms") is None
                else float(data["mttd_ms"])
            ),
        )


def group_alerts(
    alerts: Sequence[Alert],
    end_ms: Optional[float] = None,
) -> List[Incident]:
    """Fold alert windows into incidents by temporal overlap.

    Alerts are swept in start order; an alert joins the open incident
    when it starts within :data:`GROUP_GAP_MS` of the incident's
    current end, else it opens a new one.  A still-firing alert
    (``ended_ms`` None) extends its incident to ``end_ms`` (or its own
    start when no run end is known).
    """
    def end_of(alert: Alert) -> float:
        if alert.ended_ms is not None:
            return alert.ended_ms
        return end_ms if end_ms is not None else alert.started_ms

    incidents: List[Incident] = []
    for alert in sorted(alerts, key=lambda a: (a.started_ms, a.rule)):
        if incidents and alert.started_ms <= incidents[-1].ended_ms + GROUP_GAP_MS:
            incident = incidents[-1]
            incident.alerts.append(alert)
            incident.ended_ms = max(incident.ended_ms, end_of(alert))
        else:
            incidents.append(Incident(
                index=len(incidents),
                started_ms=alert.started_ms,
                ended_ms=end_of(alert),
                alerts=[alert],
            ))
    return incidents


@dataclass
class IncidentReport:
    """A run's detection outcome: incidents + run-level context."""

    scenario: str = ""
    seed: int = 0
    incidents: List[Incident] = field(default_factory=list)
    first_fault_at_ms: Optional[float] = None
    end_ms: float = 0.0
    alerts_total: int = 0
    """Every firing window evaluated, incl. ones folded into incidents."""

    @property
    def mttd_ms(self) -> Optional[float]:
        """Earliest incident's detection delay (the headline MTTD)."""
        delays = [
            i.mttd_ms for i in self.incidents if i.mttd_ms is not None
        ]
        return min(delays) if delays else None

    def as_dict(self) -> Dict[str, Any]:
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "first_fault_at_ms": self.first_fault_at_ms,
            "end_ms": self.end_ms,
            "alerts_total": self.alerts_total,
            "mttd_ms": self.mttd_ms,
            "incidents": [incident.as_dict() for incident in self.incidents],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "IncidentReport":
        return cls(
            scenario=str(data.get("scenario", "")),
            seed=int(data.get("seed", 0)),
            incidents=[
                Incident.from_dict(entry)
                for entry in data.get("incidents", ())
            ],
            first_fault_at_ms=(
                None if data.get("first_fault_at_ms") is None
                else float(data["first_fault_at_ms"])
            ),
            end_ms=float(data.get("end_ms", 0.0)),
            alerts_total=int(data.get("alerts_total", 0)),
        )

    def save(self, path: str) -> str:
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        with open(path, "w") as handle:
            json.dump(self.as_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        return path

    # -- renderings ----------------------------------------------------
    def render(self) -> str:
        """Terminal incident timeline (what ``repro incidents`` prints)."""
        lines: List[str] = []
        title = f"incident report · scenario={self.scenario or '-'}"
        lines.append(title)
        lines.append("=" * len(title))
        if self.first_fault_at_ms is not None:
            lines.append(f"first fault injected at {self.first_fault_at_ms:.0f} ms")
        if not self.incidents:
            lines.append("no incidents detected")
            return "\n".join(lines)
        for incident in self.incidents:
            mttd = (
                f"{incident.mttd_ms:.0f} ms" if incident.mttd_ms is not None
                else "n/a"
            )
            lines.append("")
            lines.append(
                f"incident #{incident.index} [{incident.severity}] "
                f"{incident.started_ms:.0f}..{incident.ended_ms:.0f} ms "
                f"(MTTD {mttd}, MTTR {incident.mttr_ms:.0f} ms"
                + ("" if incident.resolved else ", UNRESOLVED at run end")
                + ")"
            )
            for alert in incident.alerts:
                end = (
                    f"{alert.ended_ms:.0f}" if alert.ended_ms is not None
                    else "…"
                )
                lines.append(
                    f"  alert {alert.rule} [{alert.severity}] "
                    f"{alert.started_ms:.0f}..{end} ms  ({alert.condition})"
                )
            for rank, suspect in enumerate(incident.suspects[:5], start=1):
                lines.append(
                    f"  suspect {rank}. {suspect.label} "
                    f"(score {suspect.score:.2f})"
                )
                for item in suspect.evidence:
                    lines.append(f"       - {item}")
        return "\n".join(lines)

    def render_markdown(self) -> str:
        """Markdown incident timeline (for artifacts / PR comments)."""
        lines: List[str] = []
        lines.append(f"# Incident report — `{self.scenario or 'run'}`")
        lines.append("")
        if self.first_fault_at_ms is not None:
            lines.append(
                f"First fault injected at **{self.first_fault_at_ms:.0f} ms**."
            )
        if not self.incidents:
            lines.append("No incidents detected.")
            return "\n".join(lines) + "\n"
        lines.append(
            f"{len(self.incidents)} incident(s), "
            f"{self.alerts_total} alert firing window(s)."
        )
        for incident in self.incidents:
            mttd = (
                f"{incident.mttd_ms:.0f} ms" if incident.mttd_ms is not None
                else "n/a"
            )
            lines.append("")
            lines.append(
                f"## Incident {incident.index} — {incident.severity} — "
                f"{incident.started_ms:.0f}–{incident.ended_ms:.0f} ms"
            )
            lines.append("")
            lines.append(f"- **MTTD**: {mttd}")
            lines.append(f"- **MTTR**: {incident.mttr_ms:.0f} ms"
                         + ("" if incident.resolved
                            else " (unresolved at run end)"))
            lines.append("")
            lines.append("| alert | severity | window (ms) | condition |")
            lines.append("|---|---|---|---|")
            for alert in incident.alerts:
                end = (
                    f"{alert.ended_ms:.0f}" if alert.ended_ms is not None
                    else "…"
                )
                lines.append(
                    f"| `{alert.rule}` | {alert.severity} "
                    f"| {alert.started_ms:.0f}–{end} "
                    f"| `{alert.condition}` |"
                )
            if incident.suspects:
                lines.append("")
                lines.append("| rank | suspect | score | evidence |")
                lines.append("|---|---|---|---|")
                for rank, suspect in enumerate(incident.suspects[:5], 1):
                    evidence = "; ".join(suspect.evidence)
                    lines.append(
                        f"| {rank} | {suspect.label} "
                        f"| {suspect.score:.2f} | {evidence} |"
                    )
        return "\n".join(lines) + "\n"


def build_report(
    alerts: Sequence[Alert],
    evidence: Optional[Evidence] = None,
    *,
    scenario: str = "",
    seed: int = 0,
    first_fault_at_ms: Optional[float] = None,
    end_ms: float = 0.0,
) -> IncidentReport:
    """Group alerts, attribute each incident, assemble the report."""
    if evidence is None:
        evidence = Evidence()
    incidents = group_alerts(alerts, end_ms=end_ms or None)
    for incident in incidents:
        incident.suspects = rank_suspects(incident, evidence)
        if first_fault_at_ms is not None:
            incident.mttd_ms = max(
                0.0, incident.started_ms - first_fault_at_ms
            )
    return IncidentReport(
        scenario=scenario,
        seed=seed,
        incidents=incidents,
        first_fault_at_ms=first_fault_at_ms,
        end_ms=end_ms,
        alerts_total=len(alerts),
    )


def load_report(path: str) -> IncidentReport:
    """Read an ``incidents.json`` written by :meth:`IncidentReport.save`."""
    with open(path) as handle:
        data = json.load(handle)
    return IncidentReport.from_dict(data)
