"""Sim-time sampling of a registry into an in-memory time-series.

The :class:`Sampler` is a simulation process: every ``interval_ms``
of *simulated* time it snapshots every series in the registry
(counters cumulatively, gauges instantaneously with callbacks
evaluated, histograms as ``_count``/``_sum``) into a
:class:`TimeSeries`.  Sampling is driven purely by the simulation
clock — never the wall clock — so runs are deterministic: the same
seed yields byte-identical sample streams.

The sampler only reads state; it never mutates the system under
measurement, consumes no RNG, and its timeout events interleave with
the workload without reordering it — enabling telemetry cannot change
simulation results (it does change the kernel event-sequence hash,
since the sample timeouts are themselves events).

The client's op families (:data:`OP_FAMILIES`) are not sampled live.
Each client op is one row of the system's
:class:`~repro.metrics.MetricsRecorder`, and :meth:`Sampler.stop`
replays, per sample, exactly the rows the recorder held when that
sample was taken through the registry's own counters and histograms
(:func:`fold_ops`).  So an op that ends at a sample's instant but after
it counts from the next sample on, and each ``_sum`` adds in completion
order, as live counting did.  The ``tenant_*`` families are separate
from the fleet-global ones because the chaos verifier sums whole
families; ``tenant_latency_bucket{tenant=,le=}`` holds the tenant
histogram's cumulative bucket counts, whose interval deltas give
per-interval quantiles (:func:`repro.tenants.fairness.p99_timeline`).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.telemetry.registry import MetricsRegistry, label_key, parse_series_key

#: Every family :func:`fold_ops` writes.
OP_FAMILIES = (
    "ops_total",
    "ops_failed_total",
    "op_latency_ms",
    "tenant_ops_total",
    "tenant_ops_failed_total",
    "tenant_op_latency_ms",
    "tenant_cache_hits_total",
    "tenant_cache_misses_total",
    "tenant_latency_bucket",
)

TENANT_LATENCY_HELP = "per-tenant client op latency"


class TimeSeries:
    """An append-only sequence of (sim-time, {series: value}) samples."""

    def __init__(self) -> None:
        self.samples: List[Tuple[float, Dict[str, float]]] = []

    def __len__(self) -> int:
        return len(self.samples)

    def append(self, t_ms: float, values: Dict[str, float]) -> None:
        self.samples.append((t_ms, values))

    def times(self) -> List[float]:
        return [t for t, _ in self.samples]

    def keys(self) -> List[str]:
        """Sorted union of every series name seen in any sample."""
        seen = set()
        for _, values in self.samples:
            seen.update(values)
        return sorted(seen)

    def series(self, key: str, default: float = 0.0) -> List[Tuple[float, float]]:
        """(t, value) pairs for one series over the whole run."""
        return [(t, values.get(key, default)) for t, values in self.samples]

    def series_matching(self, name: str) -> Dict[str, List[Tuple[float, float]]]:
        """Every series belonging to metric family ``name``.

        Keys are the full series ids (with labels); use
        :func:`~repro.telemetry.registry.parse_series_key` on them to
        recover label values.
        """
        out: Dict[str, List[Tuple[float, float]]] = {}
        for key in self.keys():
            if parse_series_key(key)[0] == name:
                out[key] = self.series(key)
        return out

    def sums(
        self,
        family: str,
        by: Tuple[str, ...] = (),
        labels: Optional[Mapping[str, str]] = None,
    ) -> Dict[Tuple[str, ...], List[Optional[float]]]:
        """Per-sample sums of the series in metric family ``family``.

        Series are grouped by the values of the ``by`` labels; the
        result maps each group's value tuple to one sum per sample, so
        ``by=()`` yields at most the one group ``()``.  Series that
        lack one of the ``by`` labels, or differ from one of the
        ``labels`` values, are left out.  A sample holding none of a
        group's series reads None.  Each group sums its series in
        sorted-key order, so the floats are the same on every run.
        """
        where = labels or {}
        groups: Dict[Tuple[str, ...], List[str]] = {}
        for key in self.keys():
            name, key_labels = parse_series_key(key)
            if (name == family
                    and all(label in key_labels for label in by)
                    and all(key_labels.get(k) == v for k, v in where.items())):
                group = tuple(key_labels[label] for label in by)
                groups.setdefault(group, []).append(key)
        out: Dict[Tuple[str, ...], List[Optional[float]]] = {}
        for group, keys in groups.items():
            points: List[Optional[float]] = []
            for _, values in self.samples:
                total = None
                for key in keys:
                    if key in values:
                        total = (total or 0.0) + values[key]
                points.append(total)
            out[group] = points
        return out

    def totals(
        self, family: str, by: Tuple[str, ...] = ()
    ) -> Dict[Tuple[str, ...], List[Tuple[float, float]]]:
        """:meth:`sums` as (t, total) points, a missing series as 0.0."""
        times = self.times()
        return {
            group: [
                (t_ms, 0.0 if total is None else total)
                for t_ms, total in zip(times, points)
            ]
            for group, points in self.sums(family, by).items()
        }

    def deltas(self, key: str) -> List[Tuple[float, float]]:
        """Per-interval increases of a cumulative series (for rates)."""
        return interval_deltas(self.series(key))

    def window(self, t0_ms: float, t1_ms: float) -> "TimeSeries":
        """Samples with ``t0_ms <= t <= t1_ms`` (both ends inclusive).

        Inclusive on both sides so a window whose bounds land exactly
        on sample instants keeps those samples — detector windows are
        built from sample times, and a half-open window would silently
        drop the very sample that triggered the query.  The returned
        series shares the sample dicts (read-only by convention).
        """
        out = TimeSeries()
        for t_ms, values in self.samples:
            if t0_ms <= t_ms <= t1_ms:
                out.samples.append((t_ms, values))
        return out


def interval_deltas(
    points: List[Tuple[float, float]]
) -> List[Tuple[float, float]]:
    """Per-interval increases of cumulative (t, value) points.

    The first interval counts from zero; a decrease (a counter reset)
    clamps to 0.0.
    """
    out: List[Tuple[float, float]] = []
    previous = 0.0
    for t_ms, value in points:
        out.append((t_ms, max(0.0, value - previous)))
        previous = value
    return out


class Sampler:
    """The sampling sim-process feeding a :class:`TimeSeries`."""

    def __init__(
        self,
        env,
        registry: MetricsRegistry,
        interval_ms: float = 500.0,
    ) -> None:
        if interval_ms <= 0:
            raise ValueError("interval_ms must be positive")
        self.env = env
        self.registry = registry
        self.interval_ms = interval_ms
        self.timeseries = TimeSeries()
        #: The op records (a :class:`~repro.metrics.MetricsRecorder`)
        #: the op families are folded from; :attr:`op_counts` notes how
        #: many they held at each sample.
        self.ops = None
        self.op_counts: List[int] = []
        #: Samples the op families are folded into.
        self._folded = 0
        self._stopped = False
        self._proc = None

    def start(self) -> "Sampler":
        """Begin sampling at the current sim-time (idempotent)."""
        if self._proc is None:
            self._proc = self.env.process(self._run())
        return self

    def stop(self) -> None:
        """Stop sampling, take one last snapshot now, and fold the op
        families into every sample since the last stop.

        The loop exits on its next wake-up; no events are injected, so
        stopping is safe even after the run loop has drained.
        """
        self._stopped = True
        self.sample_now(force=True)
        folded = self._folded
        if self.ops is not None:
            fold_ops(
                self.registry, self.timeseries.samples[folded:],
                self.op_counts[folded:], self.ops,
                self.op_counts[folded - 1] if folded else 0,
            )
        self._folded = len(self.timeseries)

    def sample_now(self, force: bool = False) -> None:
        """Take one snapshot immediately.

        Consecutive snapshots at the same sim-instant are identical,
        so duplicates are skipped unless ``force`` is set.
        """
        now = self.env.now
        samples = self.timeseries.samples
        if not force and samples and samples[-1][0] == now:
            return
        self.timeseries.append(now, self.registry.collect())
        self.op_counts.append(0 if self.ops is None else len(self.ops))

    def _run(self):
        while not self._stopped:
            self.sample_now()
            yield self.env.timeout(self.interval_ms)


def fold_ops(
    registry: MetricsRegistry,
    samples: Sequence[Tuple[float, Dict[str, float]]],
    counts: Sequence[int],
    recorder,
    done: int,
) -> None:
    """Add ``recorder``'s ops ``done:counts[-1]`` to ``registry``'s op
    families and write the families into ``samples``, whose ``i``-th
    sample was taken when ``recorder`` held ``counts[i]`` ops."""
    records = recorder.records
    tenants = recorder.tenants()
    for (_, values), count in zip(samples, counts):
        _replay(registry, records[done:count])
        done = count
        if tenants:
            histogram = registry.histogram(
                "tenant_op_latency_ms", help=TENANT_LATENCY_HELP
            )
            buckets = registry.gauge("tenant_latency_bucket")
            for tenant in tenants:
                key = label_key({"tenant": tenant})
                for le, cumulative in histogram.cumulative_buckets(key):
                    buckets.set(cumulative, tenant=tenant, le=le)
        for name in OP_FAMILIES:
            family = registry.get(name)
            if family is not None:
                values.update(family.collect())


def _replay(registry: MetricsRegistry, records) -> None:
    """Count ``records`` into the op families, as each op's end would."""
    tally: Dict[tuple, int] = {}
    for record in records:
        op, tenant, latency = record.op, record.tenant, record.latency_ms
        key = (op, record.ok, tenant, record.cache_hit)
        tally[key] = tally.get(key, 0) + 1
        registry.histogram("op_latency_ms").observe(latency, op=op)
        if tenant is not None:
            registry.histogram(
                "tenant_op_latency_ms", help=TENANT_LATENCY_HELP
            ).observe(latency, tenant=tenant)
    for (op, ok, tenant, cache_hit), count in tally.items():
        registry.counter("ops_total").inc(count, op=op)
        if not ok:
            registry.counter("ops_failed_total").inc(count, op=op)
        if tenant is None:
            continue
        registry.counter("tenant_ops_total").inc(count, op=op, tenant=tenant)
        if not ok:
            registry.counter("tenant_ops_failed_total").inc(count, tenant=tenant)
        hits = "tenant_cache_hits_total" if cache_hit else "tenant_cache_misses_total"
        registry.counter(hits).inc(count, tenant=tenant)
