"""Per-tenant ascii dashboard (``repro tenants``).

One sparkline block per tenant — interval throughput, interval p99 —
plus the cross-tenant fairness section: the Jain-index timeline and
the summary table from :func:`repro.tenants.fairness.summarize`.
Read-only over the sampled time-series, like the fleet dashboard in
:mod:`repro.telemetry.dashboard`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.telemetry.dashboard import _spark_row
from repro.tenants.fairness import (
    FairnessReport,
    interval_ops,
    p99_timeline,
    summarize,
)


def render_tenant_dashboard(
    timeseries,
    specs: Optional[Sequence] = None,
    width: int = 48,
    report: Optional[FairnessReport] = None,
) -> str:
    """The multi-tenant run at a glance."""
    rows = interval_ops(timeseries)
    names = list(rows[0][1]) if rows else []
    if not names:
        return "tenant dashboard: no tenant-labelled series sampled"
    if report is None:
        report = summarize(timeseries, specs)
    interval_ms = 0.0
    times = timeseries.times()
    if len(times) >= 2:
        interval_ms = (times[-1] - times[0]) / (len(times) - 1)
    lines: List[str] = [
        f"tenants ({len(names)}), {len(timeseries.samples)} samples "
        f"@ ~{interval_ms:.0f} ms"
    ]
    for name in names:
        lines.append(f"  {name}")
        per_interval = [(t, row[name]) for t, row in rows]
        lines.append(_spark_row("  ops/interval", per_interval, width))
        p99 = p99_timeline(timeseries, [name])
        finite = [(t, v) for t, v in p99 if v != float("inf")]
        if finite:
            lines.append(
                _spark_row("  p99 ms", finite, width, fmt="{:,.1f}")
            )
    lines.append("  fairness (Jain index per interval)")
    lines.append(
        _spark_row("  jain", report.timeline, width, fmt="{:.3f}")
    )
    lines.append("")
    lines.append(report.render())
    return "\n".join(lines)
