"""Sim-time metric primitives: counters, gauges, histograms.

A :class:`MetricsRegistry` attaches to an
:class:`~repro.sim.Environment` (``env.metrics``) exactly like the
tracer does: instrumentation sites across the stack do one attribute
check (``env.metrics is None``) and pay nothing when telemetry is off.

Each metric is a *family* keyed by name; label sets select children::

    m = MetricsRegistry(env)
    m.inc("rpc_requests_total", transport="tcp")
    m.register_gauge("faas_instances_live", deployment.live_count,
                     deployment="NameNode0")
    m.observe("coord_ack_latency_ms", 3.2)

Counters only go up; gauges are set directly or backed by a callback
evaluated at collection time (the cheap way to expose live structures
— fleet sizes, queue depths, trie sizes — without touching hot
paths); histograms count observations into fixed buckets.

The registry never consumes simulated time and uses no randomness, so
a same-seed run produces byte-identical collections.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: Default histogram buckets (milliseconds): spans sub-ms lock waits
#: through multi-second cold starts.
DEFAULT_BUCKETS_MS = (
    0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0,
    250.0, 500.0, 1_000.0, 2_500.0, 5_000.0, 10_000.0,
)

LabelKey = Tuple[Tuple[str, str], ...]

#: The ``le`` label of a histogram's last, unbounded bucket.
INF_LABEL = "+Inf"


def bucket_quantile(
    bounds: Sequence[float], counts: Sequence[float], q: float
) -> float:
    """Upper bucket bound containing the ``q``-quantile (0..1).

    ``counts[i]`` counts the bucket bounded by ``bounds[i]``; a count
    past the last bound is the +Inf bucket.  No observations reads 0.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must be in [0, 1]")
    total = sum(counts)
    if total <= 0:
        return 0.0
    target = q * total
    running = 0
    for index, count in enumerate(counts):
        running += count
        if running >= target:
            return bounds[index] if index < len(bounds) else float("inf")
    return float("inf")


def label_key(labels: Dict[str, Any]) -> LabelKey:
    """Canonical (sorted, stringified) form of a label set."""
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def series_key(name: str, key: LabelKey) -> str:
    """Prometheus-style series id: ``name{k="v",...}``."""
    if not key:
        return name
    inner = ",".join(f'{k}="{_escape(v)}"' for k, v in key)
    return f"{name}{{{inner}}}"


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


_SERIES_RE = re.compile(r'^(?P<name>[^{]+)(?:\{(?P<labels>.*)\})?$')
_LABEL_RE = re.compile(r'(\w+)="((?:[^"\\]|\\.)*)"')


def parse_series_key(key: str) -> Tuple[str, Dict[str, str]]:
    """Inverse of :func:`series_key` (used by the dashboard)."""
    match = _SERIES_RE.match(key)
    if match is None:
        return key, {}
    labels = {
        k: v.replace('\\"', '"').replace("\\n", "\n").replace("\\\\", "\\")
        for k, v in _LABEL_RE.findall(match.group("labels") or "")
    }
    return match.group("name"), labels


class Counter:
    """A monotonically increasing family of values."""

    __slots__ = ("name", "help", "_values")

    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._values: Dict[LabelKey, float] = {}

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        key = label_key(labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: Any) -> float:
        return self._values.get(label_key(labels), 0.0)

    def total(self) -> float:
        """Sum over every labeled child."""
        return sum(self._values.values())

    def collect(self) -> Dict[str, float]:
        return {
            series_key(self.name, key): value
            for key, value in self._values.items()
        }


class Gauge:
    """A family of instantaneous values, set directly or via callback."""

    __slots__ = ("name", "help", "_values", "_callbacks")

    kind = "gauge"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._values: Dict[LabelKey, float] = {}
        self._callbacks: Dict[LabelKey, Callable[[], float]] = {}

    def set(self, value: float, **labels: Any) -> None:
        self._values[label_key(labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        key = label_key(labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def set_fn(self, fn: Callable[[], float], **labels: Any) -> None:
        """Back this child with ``fn``, evaluated at collection time."""
        self._callbacks[label_key(labels)] = fn

    def value(self, **labels: Any) -> float:
        key = label_key(labels)
        fn = self._callbacks.get(key)
        if fn is not None:
            return float(fn())
        return self._values.get(key, 0.0)

    def collect(self) -> Dict[str, float]:
        out = {
            series_key(self.name, key): value
            for key, value in self._values.items()
        }
        for key, fn in self._callbacks.items():
            out[series_key(self.name, key)] = float(fn())
        return out


class Histogram:
    """Fixed-bucket distribution; exposes ``_count``/``_sum`` series.

    Per-sample time series keep only count and sum (rates and means
    are derivable); the full cumulative bucket vector appears in the
    Prometheus text dump.
    """

    __slots__ = ("name", "help", "buckets", "_counts", "_sums")

    kind = "histogram"

    def __init__(
        self,
        name: str,
        buckets: Iterable[float] = DEFAULT_BUCKETS_MS,
        help: str = "",
    ) -> None:
        self.name = name
        self.help = help
        self.buckets: Tuple[float, ...] = tuple(sorted(buckets))
        if not self.buckets:
            raise ValueError("histogram needs at least one bucket bound")
        # child -> [per-bucket counts..., +inf count]
        self._counts: Dict[LabelKey, List[int]] = {}
        self._sums: Dict[LabelKey, float] = {}

    def observe(self, value: float, **labels: Any) -> None:
        key = label_key(labels)
        counts = self._counts.get(key)
        if counts is None:
            counts = [0] * (len(self.buckets) + 1)
            self._counts[key] = counts
            self._sums[key] = 0.0
        counts[bisect_left(self.buckets, value)] += 1
        self._sums[key] += value

    def count(self, **labels: Any) -> int:
        return sum(self._counts.get(label_key(labels), ()))

    def aggregate_quantile(self, q: float) -> float:
        """Quantile over the merged buckets of every labeled child."""
        merged = [0] * (len(self.buckets) + 1)
        for counts in self._counts.values():
            for index, bucket_count in enumerate(counts):
                merged[index] += bucket_count
        return bucket_quantile(self.buckets, merged, q)

    def collect(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for key in self._counts:
            out[series_key(f"{self.name}_count", key)] = float(sum(self._counts[key]))
            out[series_key(f"{self.name}_sum", key)] = self._sums[key]
        return out

    def cumulative_buckets(self, key: LabelKey) -> List[Tuple[str, int]]:
        """(le, cumulative count) pairs, every bucket's (all 0 for a
        child with no observations)."""
        counts = self._counts.get(key) or [0] * (len(self.buckets) + 1)
        out: List[Tuple[str, int]] = []
        running = 0
        for bound, bucket_count in zip(self.buckets, counts):
            running += bucket_count
            out.append((repr(bound), running))
        out.append((INF_LABEL, running + counts[-1]))
        return out


class MetricsRegistry:
    """The per-environment metric namespace.

    Families are created lazily by the ``inc``/``set``/``observe``
    helpers so instrumentation sites stay one-liners, or declared up
    front with :meth:`gauge`/:meth:`histogram` to attach help text.
    """

    def __init__(self, env: Optional[Any] = None) -> None:
        self.env = env
        #: Set by :class:`repro.telemetry.Telemetry` so code holding
        #: only ``env.metrics`` can reach the sampler/exporter bundle.
        self.bundle: Optional[Any] = None
        self._metrics: Dict[str, Any] = {}
        if env is not None:
            env.metrics = self

    # -- declaration -----------------------------------------------------
    def _declare(self, cls, name: str, *args, **kwargs):
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ValueError(
                    f"metric {name!r} already registered as {existing.kind}"
                )
            return existing
        metric = cls(name, *args, **kwargs)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str) -> Counter:
        return self._declare(Counter, name)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._declare(Gauge, name, help=help)

    def histogram(self, name: str, help: str = "") -> Histogram:
        return self._declare(Histogram, name, help=help)

    def get(self, name: str) -> Optional[Any]:
        return self._metrics.get(name)

    def names(self) -> List[str]:
        return list(self._metrics)

    # -- hot-path helpers -------------------------------------------------
    def inc(self, name: str, amount: float = 1.0, **labels: Any) -> None:
        self.counter(name).inc(amount, **labels)

    def set(self, name: str, value: float, **labels: Any) -> None:
        self.gauge(name).set(value, **labels)

    def observe(self, name: str, value: float, **labels: Any) -> None:
        self.histogram(name).observe(value, **labels)

    def register_gauge(
        self, name: str, fn: Callable[[], float], help: str = "", **labels: Any
    ) -> None:
        self.gauge(name, help=help).set_fn(fn, **labels)

    # -- collection -------------------------------------------------------
    def collect(self) -> Dict[str, float]:
        """Flattened snapshot of every series (callbacks evaluated)."""
        out: Dict[str, float] = {}
        for metric in self._metrics.values():
            out.update(metric.collect())
        return out

    def prometheus_text(self) -> str:
        """The registry in Prometheus text exposition format."""
        lines: List[str] = []
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if metric.help:
                lines.append(f"# HELP {name} {metric.help}")
            lines.append(f"# TYPE {name} {metric.kind}")
            if isinstance(metric, Histogram):
                for key in sorted(metric._counts):
                    for le, cumulative in metric.cumulative_buckets(key):
                        bucket_key = key + (("le", le),)
                        lines.append(
                            f"{series_key(name + '_bucket', bucket_key)} {cumulative}"
                        )
                    lines.append(
                        f"{series_key(name + '_sum', key)} {metric._sums[key]!r}"
                    )
                    lines.append(
                        f"{series_key(name + '_count', key)} {sum(metric._counts[key])}"
                    )
            else:
                for series, value in sorted(metric.collect().items()):
                    lines.append(f"{series} {value!r}")
        return "\n".join(lines) + "\n"
