"""The ascii telemetry dashboard (``repro telemetry``).

Renders the sampled time-series as labelled sparkline timelines —
the terminal analogue of the paper's Figures 6–15 panels:

* fleet — per-deployment live-instance counts, desired vs actual;
* rpc — TCP vs HTTP request mix per sampling interval;
* cache — per-deployment hit ratio and trie size;
* a closing table of end-of-run counters.

Anything the well-known sections don't cover is listed generically,
so the dashboard stays useful for registries with custom metrics.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

from repro.metrics.ascii_plot import sparkline
from repro.telemetry.registry import (
    MetricsRegistry,
    label_key,
    parse_series_key,
    series_key,
)
from repro.telemetry.sampler import TimeSeries

#: Families the named sections consume (the generic tail skips these).
_SECTION_FAMILIES = {
    "faas_instances_live", "fleet_desired_namenodes", "fleet_actual_namenodes",
    "rpc_requests_total", "cache_hit_ratio", "cache_trie_size",
    "cache_hits_total", "cache_misses_total",
}
#: Sparkline columns per dashboard row.
WIDTH = 56
#: Series the "other series" section draws before it elides the rest.
OTHER_SERIES_SHOWN = 12


def _resample(values: Sequence[float], width: int) -> List[float]:
    """At most ``width`` points, evenly spaced over the series."""
    if len(values) <= width:
        return list(values)
    step = len(values) / width
    return [values[int(index * step)] for index in range(width)]


def _spark_row(label: str, points: Sequence[Tuple[float, float]],
               width: int, fmt: str = "{:,.0f}") -> str:
    values = [v for _, v in points]
    spark = sparkline(_resample(values, width))
    # min/max over finite samples only — one NaN in a ratio series
    # must not poison the whole row's summary stats.
    finite = [v for v in values if math.isfinite(v)]
    low = min(finite) if finite else 0.0
    high = max(finite) if finite else 0.0
    last = values[-1] if values else 0.0
    last_text = fmt.format(last) if math.isfinite(last) else str(last)
    return (f"  {label:<26s} {spark}  "
            f"min {fmt.format(low)}  max {fmt.format(high)}  "
            f"last {last_text}")


def _label_of(key: str, label: str) -> str:
    name, labels = parse_series_key(key)
    return labels.get(label, name)


def _fleet_section(ts: TimeSeries, width: int) -> List[str]:
    lines: List[str] = []
    per_deployment = ts.series_matching("faas_instances_live")
    for key in sorted(per_deployment):
        lines.append(_spark_row(
            _label_of(key, "deployment"), per_deployment[key], width
        ))
    if per_deployment:
        totals = [
            (t, sum(points[index][1] for points in per_deployment.values()))
            for index, (t, _) in enumerate(next(iter(per_deployment.values())))
        ]
        lines.append(_spark_row("fleet total", totals, width))
    for family, label in (
        ("fleet_desired_namenodes", "desired (Fig 6 model)"),
        ("fleet_actual_namenodes", "actual"),
    ):
        for key, points in sorted(ts.series_matching(family).items()):
            lines.append(_spark_row(label, points, width, fmt="{:,.1f}"))
    if lines:
        lines.insert(0, "== fleet (NameNodes per deployment) ==")
    return lines


def _rpc_section(ts: TimeSeries, width: int) -> List[str]:
    lines: List[str] = []
    for key in sorted(ts.series_matching("rpc_requests_total")):
        transport = _label_of(key, "transport")
        lines.append(_spark_row(
            f"{transport} req/interval", ts.deltas(key), width
        ))
    if lines:
        lines.insert(0, "== rpc mix (per sampling interval) ==")
    return lines


def _interval_hit_rate(ts: TimeSeries, hits_key: str,
                       misses_key: str) -> List[Tuple[float, float]]:
    """Per-interval hit %, from deltas of the cumulative counters.

    Unlike the cumulative ratio, this dips sharply when an
    invalidation storm empties the caches mid-run.
    """
    hits = ts.deltas(hits_key)
    misses = dict(ts.deltas(misses_key))
    out: List[Tuple[float, float]] = []
    for t, hit_delta in hits:
        lookups = hit_delta + misses.get(t, 0.0)
        out.append((t, 100.0 * hit_delta / lookups if lookups else 0.0))
    return out


def _cache_section(ts: TimeSeries, width: int) -> List[str]:
    lines: List[str] = []
    for hits_key in sorted(ts.series_matching("cache_hits_total")):
        name, labels = parse_series_key(hits_key)
        misses_key = series_key("cache_misses_total", label_key(labels))
        lines.append(_spark_row(
            f"hit%/intvl {labels.get('deployment', name)}",
            _interval_hit_rate(ts, hits_key, misses_key),
            width, fmt="{:.1f}",
        ))
    for key in sorted(ts.series_matching("cache_hit_ratio")):
        lines.append(_spark_row(
            f"hit% {_label_of(key, 'deployment')}",
            [(t, v * 100.0) for t, v in ts.series(key)],
            width, fmt="{:.1f}",
        ))
    trie = ts.series_matching("cache_trie_size")
    if trie:
        totals = [
            (t, sum(points[index][1] for points in trie.values()))
            for index, (t, _) in enumerate(next(iter(trie.values())))
        ]
        lines.append(_spark_row("trie entries (fleet)", totals, width))
    if lines:
        lines.insert(0, "== namespace cache ==")
    return lines


def _generic_section(ts: TimeSeries, width: int) -> List[str]:
    leftovers = [
        key for key in ts.keys()
        if parse_series_key(key)[0] not in _SECTION_FAMILIES
        and not key.endswith("_sum")
    ]
    if not leftovers:
        return []
    lines = ["== other series =="]
    for key in leftovers[:OTHER_SERIES_SHOWN]:
        lines.append(_spark_row(key, ts.series(key), width, fmt="{:,.1f}"))
    if len(leftovers) > OTHER_SERIES_SHOWN:
        lines.append(f"  … {len(leftovers) - OTHER_SERIES_SHOWN} more series "
                     f"(see the CSV/JSONL exports)")
    return lines


def _counters_table(registry: MetricsRegistry) -> List[str]:
    # Imported here: repro.bench pulls in the harness, which imports
    # this package — a module-level import would be circular.
    from repro.bench.report import format_cell, tabulate

    rows = []
    for name in sorted(registry.names()):
        metric = registry.get(name)
        if metric.kind == "counter":
            rows.append([name, metric.total()])
        elif metric.kind == "histogram":
            total = sum(sum(counts) for counts in metric._counts.values())
            # One aggregate row per histogram family (children merged).
            rows.append([f"{name} (n, ≤p99)",
                         f"{total:,.0f}, {format_cell(metric.aggregate_quantile(0.99))}"])
    if not rows:
        return []
    return ["== end-of-run counters ==",
            tabulate(["metric", "value"], rows)]


def render_dashboard(
    timeseries: TimeSeries,
    registry: Optional[MetricsRegistry] = None,
) -> str:
    """Render the full dashboard; returns a printable string."""
    if not timeseries.samples:
        return "telemetry: no samples recorded"
    t0 = timeseries.samples[0][0]
    t1 = timeseries.samples[-1][0]
    header = (f"telemetry: {len(timeseries.samples)} samples over "
              f"{(t1 - t0) / 1_000.0:.2f} s simulated "
              f"({len(timeseries.keys())} series)")
    sections: List[List[str]] = [
        _fleet_section(timeseries, WIDTH),
        _rpc_section(timeseries, WIDTH),
        _cache_section(timeseries, WIDTH),
        _generic_section(timeseries, WIDTH),
    ]
    if registry is not None:
        sections.append(_counters_table(registry))
    body = "\n\n".join("\n".join(s) for s in sections if s)
    return f"{header}\n\n{body}" if body else header
