"""SLO alerting, anomaly detection, and root-cause attribution.

The sixth observability layer (trace → telemetry → profile → chaos →
tenants → **incidents**): where the first five *record* what the
simulated λFS deployment did, this one *detects and explains* it from
the finished run's telemetry, the way an SRE stack would.

Three stages, three modules:

:mod:`repro.incidents.rules`
    The declarative rule DSL — static thresholds, EWMA z-score
    anomaly detectors, and Google-SRE multi-window/multi-burn-rate
    SLO rules — plus the :func:`default_rules` catalog covering every
    metric family the stack emits.
:mod:`repro.incidents.detect`
    The :class:`AlertEngine`: sim-clock evaluation of a rule list
    over a finished telemetry ``TimeSeries``, the same call for a live
    run and a loaded JSONL export.  It reads only the series, so a
    detection-on run keeps the event hash byte-identical to a
    detection-off run.
:mod:`repro.incidents.correlate` / :mod:`repro.incidents.report`
    Temporal grouping of firing alerts into incidents, root-cause
    ranking against the chaos fault log / critical-path stage shifts /
    autoscaler + coordinator + fairness signals, and the JSON +
    markdown incident timeline with MTTD/MTTR.

Wiring: ``repro incidents analyze|rules`` on the CLI, ``--detect`` on
``repro chaos run`` (the ``chaos`` scenario family runs with detection
on), and the verifier's detection gate
(every fault-injecting PASS scenario must yield an incident whose top
suspect names the injected fault within the detection SLO).  See
``docs/incidents.md``.
"""

from repro.incidents.rules import (
    SEVERITIES,
    SIGNAL_MODES,
    AnomalyRule,
    BurnRateRule,
    Rule,
    Signal,
    ThresholdRule,
    default_rules,
    load_rules,
    rule_from_dict,
    rule_to_dict,
)
from repro.incidents.detect import Alert, AlertEngine, SEVERITY_RANK
from repro.incidents.correlate import (
    FAULT_SIGNATURES,
    Evidence,
    Suspect,
    rank_suspects,
    stage_shift,
)
from repro.incidents.report import (
    GROUP_GAP_MS,
    Incident,
    IncidentReport,
    build_report,
    group_alerts,
    load_report,
)

__all__ = [
    "Alert",
    "AlertEngine",
    "AnomalyRule",
    "BurnRateRule",
    "Evidence",
    "FAULT_SIGNATURES",
    "GROUP_GAP_MS",
    "Incident",
    "IncidentReport",
    "Rule",
    "SEVERITIES",
    "SEVERITY_RANK",
    "SIGNAL_MODES",
    "Signal",
    "Suspect",
    "ThresholdRule",
    "build_report",
    "default_rules",
    "group_alerts",
    "load_report",
    "load_rules",
    "rank_suspects",
    "rule_from_dict",
    "rule_to_dict",
    "stage_shift",
]
