"""Fleet-wide, sim-time telemetry for the λFS simulator.

Mirrors the tracer (PR 2): a :class:`MetricsRegistry` hangs off
``env.metrics`` and every instrumentation site across the stack does a
single ``env.metrics is None`` check — telemetry off costs one
attribute read per site.  A :class:`Sampler` sim-process snapshots the
registry every N sim-ms into a :class:`TimeSeries`; exporters write
JSONL/CSV/Prometheus; :func:`render_dashboard` turns a run into an
ascii report (``repro telemetry``).

Typical wiring (what ``bench.harness`` does for ``telemetry=True``)::

    telemetry = install_telemetry(env, interval_ms=500.0)
    ...  # build system (LambdaFS calls telemetry.track_ops), run workload
    telemetry.stop()                  # also folds the client op families
    telemetry.export("out/")          # telemetry.{jsonl,csv,prom}
    print(telemetry.dashboard())
"""

from __future__ import annotations

import os
from typing import Any, Dict, Optional

from repro.telemetry.registry import (
    DEFAULT_BUCKETS_MS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    label_key,
    parse_series_key,
    series_key,
)
from repro.telemetry.sampler import Sampler, TimeSeries
from repro.telemetry.export import (
    parse_prometheus_text,
    read_jsonl,
    write_csv,
    write_jsonl,
    write_prometheus,
)
from repro.telemetry.dashboard import render_dashboard

__all__ = [
    "DEFAULT_BUCKETS_MS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Sampler",
    "Telemetry",
    "TimeSeries",
    "install_telemetry",
    "label_key",
    "parse_prometheus_text",
    "parse_series_key",
    "read_jsonl",
    "render_dashboard",
    "series_key",
    "write_csv",
    "write_jsonl",
    "write_prometheus",
]


class Telemetry:
    """Bundle of one registry + one sampler attached to an environment."""

    def __init__(self, env: Any, interval_ms: float = 500.0) -> None:
        self.env = env
        self.registry = MetricsRegistry(env)
        self.registry.bundle = self  # backref for shared-env reuse
        self.sampler = Sampler(env, self.registry, interval_ms=interval_ms)

    @property
    def timeseries(self) -> TimeSeries:
        return self.sampler.timeseries

    def start(self) -> "Telemetry":
        self.sampler.start()
        return self

    def track_ops(self, recorder: Any) -> None:
        """Fold the client's op families from ``recorder`` at :meth:`stop`."""
        if self.sampler.ops not in (None, recorder):
            raise ValueError("a telemetry bundle folds one op recorder")
        self.sampler.ops = recorder

    def stop(self) -> None:
        """Stop sampling and fold the client's op families
        (:meth:`Sampler.stop`)."""
        self.sampler.stop()

    def export(self, directory: str, basename: str = "telemetry") -> Dict[str, str]:
        """Write all three formats into ``directory``; returns the paths."""
        os.makedirs(directory, exist_ok=True)
        paths = {
            "jsonl": os.path.join(directory, f"{basename}.jsonl"),
            "csv": os.path.join(directory, f"{basename}.csv"),
            "prom": os.path.join(directory, f"{basename}.prom"),
        }
        write_jsonl(self.timeseries, paths["jsonl"])
        write_csv(self.timeseries, paths["csv"])
        write_prometheus(self.registry, paths["prom"])
        return paths

    def dashboard(self) -> str:
        return render_dashboard(self.timeseries, self.registry)


def install_telemetry(env: Any, interval_ms: float = 500.0) -> Telemetry:
    """Attach a registry to ``env.metrics`` and start the sampler."""
    return Telemetry(env, interval_ms=interval_ms).start()
