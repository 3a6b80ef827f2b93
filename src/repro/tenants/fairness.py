"""Fairness and QoS analysis over per-tenant telemetry.

Pure read-side math over a sampled
:class:`~repro.telemetry.sampler.TimeSeries`: Jain's fairness index
over per-tenant interval throughput, per-interval tenant latency
quantiles reconstructed from the cumulative bucket-count series
(:mod:`repro.tenants.telemetry`), and SLO burn rates.  The chaos
verifier's fairness gate and the ``repro tenants`` dashboard both
consume these helpers; nothing here touches the simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.tenants.telemetry import INF_LABEL
from repro.telemetry.registry import bucket_quantile
from repro.telemetry.sampler import interval_deltas


def jain_index(values: Sequence[float]) -> float:
    """Jain's fairness index: ``(Σx)² / (n·Σx²)``, in ``(0, 1]``.

    1.0 means perfectly even shares; a single tenant hogging
    everything among *n* drives it to ``1/n``.  An empty or all-zero
    allocation is vacuously fair (1.0).  Negative shares are invalid.
    """
    if any(v < 0 for v in values):
        raise ValueError("shares must be non-negative")
    largest = max(values, default=0.0)
    if not values or largest == 0:
        return 1.0
    # Normalise by the largest share first: squaring raw denormals
    # underflows to 0 (and huge shares overflow to inf), which would
    # poison the ratio even though the index is scale-invariant.
    scaled = [v / largest for v in values]
    total = sum(scaled)
    squares = sum(v * v for v in scaled)
    return (total * total) / (len(scaled) * squares)


def tenant_totals(
    timeseries, family: str
) -> Dict[str, List[Tuple[float, float]]]:
    """Tenant → (t, summed ``family`` value) points, tenants sorted."""
    grouped = timeseries.totals(family, by=("tenant",))
    return {tenant: grouped[(tenant,)] for (tenant,) in sorted(grouped)}


def interval_ops(
    timeseries, tenants: Optional[Sequence[str]] = None
) -> List[Tuple[float, Dict[str, float]]]:
    """(sample time, {tenant: ops completed that interval})."""
    ops = {
        tenant: interval_deltas(points)
        for tenant, points in tenant_totals(
            timeseries, "tenant_ops_total"
        ).items()
    }
    if tenants is None:
        tenants = list(ops)
    return [
        (t_ms, {
            tenant: ops[tenant][index][1] if tenant in ops else 0.0
            for tenant in tenants
        })
        for index, t_ms in enumerate(timeseries.times())
    ]


def jain_timeline(
    timeseries,
    tenants: Optional[Sequence[str]] = None,
    weights: Optional[Mapping[str, float]] = None,
) -> List[Tuple[float, float]]:
    """Per-interval Jain index over tenant throughput.

    Intervals where nobody completed an op are skipped.  With
    ``weights``, each tenant's share is normalized by its fair-share
    weight first, so a 2×-weight tenant doing 2× the ops still scores
    1.0.
    """
    out: List[Tuple[float, float]] = []
    for t_ms, row in interval_ops(timeseries, tenants):
        if sum(row.values()) <= 0:
            continue
        shares = [
            ops / (weights.get(tenant, 1.0) if weights else 1.0)
            for tenant, ops in sorted(row.items())
        ]
        out.append((t_ms, jain_index(shares)))
    return out


# -- interval latency quantiles from bucket series ----------------------

def bucket_delta_rows(
    timeseries, tenants: Sequence[str]
) -> Tuple[List[str], List[Tuple[float, List[float]]]]:
    """Merged per-interval bucket-count deltas for ``tenants``.

    Returns the sorted ``le`` labels and, per sample, the
    *non-cumulative* per-bucket observation counts summed over the
    given tenants — a per-interval latency distribution.
    """
    if not tenants:
        return [], []
    series = timeseries.totals("tenant_latency_bucket", by=("tenant", "le"))
    bounds = sorted(
        {le for tenant, le in series if tenant == tenants[0]},
        key=lambda le: float("inf") if le == INF_LABEL else float(le),
    )
    if not bounds:
        return [], []
    rows: List[Tuple[float, List[float]]] = []
    previous = [0.0] * len(bounds)
    for index, (t_ms, _values) in enumerate(timeseries.samples):
        cumulative = []
        for le in bounds:
            total = 0.0
            for tenant in tenants:
                points = series.get((tenant, le))
                if points is not None:
                    total += points[index][1]
            cumulative.append(total)
        # Cumulative-over-buckets and cumulative-over-time: diff over
        # time first, then de-cumulate over the bucket axis.
        interval = [c - p for c, p in zip(cumulative, previous)]
        previous = cumulative
        counts = [interval[0]] + [
            interval[i] - interval[i - 1] for i in range(1, len(interval))
        ]
        rows.append((t_ms, [max(0.0, c) for c in counts]))
    return bounds, rows


def quantile_from_counts(
    bounds: Sequence[str], counts: Sequence[float], q: float
) -> float:
    """Upper bucket bound containing the q-quantile (0..1), over
    ``le`` labels (``float`` parses the ``+Inf`` label too)."""
    return bucket_quantile([float(le) for le in bounds], counts, q)


def p99_timeline(
    timeseries, tenants: Sequence[str], q: float = 0.99
) -> List[Tuple[float, float]]:
    """(sample time, interval q-quantile latency) over ``tenants``.

    Intervals with no completed ops are skipped; quantiles are upper
    bucket bounds (the histogram's resolution).
    """
    bounds, rows = bucket_delta_rows(timeseries, tenants)
    out: List[Tuple[float, float]] = []
    for t_ms, counts in rows:
        if sum(counts) > 0:
            out.append((t_ms, quantile_from_counts(bounds, counts, q)))
    return out


def slo_violation_fraction(
    bounds: Sequence[str], counts: Sequence[float], slo_ms: float
) -> float:
    """Fraction of observations above ``slo_ms`` (bucket resolution:
    an op counts as compliant when its bucket bound is ≤ the SLO)."""
    total = sum(counts)
    if total <= 0:
        return 0.0
    within = sum(
        count for le, count in zip(bounds, counts)
        if le != INF_LABEL and float(le) <= slo_ms
    )
    return max(0.0, 1.0 - within / total)


def burn_rate(
    timeseries, tenant: str, slo_ms: float, error_budget: float = 0.05
) -> float:
    """SLO burn rate over the whole run: violation fraction divided
    by the error budget (1.0 = exactly consuming the budget)."""
    bounds, rows = bucket_delta_rows(timeseries, [tenant])
    totals = [0.0] * len(bounds)
    for _t, counts in rows:
        for index, count in enumerate(counts):
            totals[index] += count
    fraction = slo_violation_fraction(bounds, totals, slo_ms)
    return fraction / max(error_budget, 1e-9)


# -- the per-run fairness report ----------------------------------------

@dataclass
class TenantStats:
    """One tenant's run summary."""

    name: str
    ops: float = 0.0
    failed: float = 0.0
    mean_ops_per_s: float = 0.0
    p50_ms: float = 0.0
    p99_ms: float = 0.0
    hit_rate: Optional[float] = None
    burn_rate: float = 0.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "ops": self.ops,
            "failed": self.failed,
            "mean_ops_per_s": self.mean_ops_per_s,
            "p50_ms": self.p50_ms,
            "p99_ms": self.p99_ms,
            "hit_rate": self.hit_rate,
            "burn_rate": self.burn_rate,
        }


@dataclass
class FairnessReport:
    """Fairness/QoS summary of one multi-tenant run."""

    tenants: List[TenantStats] = field(default_factory=list)
    jain_overall: float = 1.0
    jain_min: float = 1.0
    jain_mean: float = 1.0
    timeline: List[Tuple[float, float]] = field(default_factory=list)

    def as_dict(self) -> Dict[str, object]:
        return {
            "tenants": [stats.as_dict() for stats in self.tenants],
            "jain_overall": self.jain_overall,
            "jain_min": self.jain_min,
            "jain_mean": self.jain_mean,
            "timeline": self.timeline,
        }

    def render(self) -> str:
        lines = [
            "fairness: Jain overall "
            f"{self.jain_overall:.3f}  interval min {self.jain_min:.3f}  "
            f"mean {self.jain_mean:.3f}"
        ]
        header = (
            f"  {'tenant':<12s} {'ops':>8s} {'fail':>6s} {'ops/s':>8s} "
            f"{'p50 ms':>8s} {'p99 ms':>8s} {'hit%':>6s} {'burn':>6s}"
        )
        lines.append(header)
        for stats in self.tenants:
            hit = (
                f"{100.0 * stats.hit_rate:5.1f}"
                if stats.hit_rate is not None else "    -"
            )
            p99 = (
                "inf" if stats.p99_ms == float("inf")
                else f"{stats.p99_ms:8.1f}"
            )
            lines.append(
                f"  {stats.name:<12s} {stats.ops:8.0f} {stats.failed:6.0f} "
                f"{stats.mean_ops_per_s:8.1f} {stats.p50_ms:8.1f} "
                f"{p99:>8s} {hit:>6s} {stats.burn_rate:6.2f}"
            )
        return "\n".join(lines)


def summarize(
    timeseries,
    specs: Optional[Sequence] = None,
    weights: Optional[Mapping[str, float]] = None,
) -> FairnessReport:
    """Build the :class:`FairnessReport` for one sampled run.

    ``specs`` (``TenantSpec``-like, needing ``name`` / ``p99_slo_ms``
    / ``error_budget``) supply per-tenant SLO targets and fair-share
    weights; without them, defaults apply (50 ms SLO, 5% budget,
    equal weights).
    """
    by_name = {spec.name: spec for spec in (specs or [])}
    if weights is None and specs:
        weights = {
            spec.name: getattr(spec, "weight", 1.0) for spec in specs
        }
    ops_by_tenant = tenant_totals(timeseries, "tenant_ops_total")
    names = list(ops_by_tenant)
    ends = {
        family: {
            tenant: points[-1][1]
            for tenant, points in tenant_totals(timeseries, family).items()
        }
        for family in ("tenant_ops_failed_total", "tenant_cache_hits_total",
                       "tenant_cache_misses_total")
    }
    report = FairnessReport()
    duration_ms = 0.0
    if timeseries.samples:
        duration_ms = timeseries.samples[-1][0] - timeseries.samples[0][0]
    totals: List[float] = []
    for name in names:
        spec = by_name.get(name)
        slo_ms = getattr(spec, "p99_slo_ms", 50.0)
        budget = getattr(spec, "error_budget", 0.05)
        bounds, rows = bucket_delta_rows(timeseries, [name])
        merged = [0.0] * len(bounds)
        for _t, counts in rows:
            for index, count in enumerate(counts):
                merged[index] += count
        ops = ops_by_tenant[name][-1][1]
        hits = ends["tenant_cache_hits_total"].get(name, 0.0)
        misses = ends["tenant_cache_misses_total"].get(name, 0.0)
        stats = TenantStats(
            name=name,
            ops=ops,
            failed=ends["tenant_ops_failed_total"].get(name, 0.0),
            mean_ops_per_s=(
                1_000.0 * ops / duration_ms if duration_ms > 0 else 0.0
            ),
            p50_ms=quantile_from_counts(bounds, merged, 0.5),
            p99_ms=quantile_from_counts(bounds, merged, 0.99),
            hit_rate=(
                hits / (hits + misses) if hits + misses > 0 else None
            ),
            burn_rate=(
                slo_violation_fraction(bounds, merged, slo_ms)
                / max(budget, 1e-9)
            ),
        )
        report.tenants.append(stats)
        totals.append(
            ops / (weights.get(name, 1.0) if weights else 1.0)
        )
    report.jain_overall = jain_index(totals)
    report.timeline = jain_timeline(timeseries, names, weights=weights)
    if report.timeline:
        values = [v for _t, v in report.timeline]
        report.jain_min = min(values)
        report.jain_mean = sum(values) / len(values)
    return report
