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
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.telemetry.registry import MetricsRegistry, parse_series_key


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

    def totals(
        self, family: str, by: Tuple[str, ...] = ()
    ) -> Dict[Tuple[str, ...], List[Tuple[float, float]]]:
        """Per-sample sums of the series in metric family ``family``.

        Series are grouped by the values of the ``by`` labels; the
        result maps each group's value tuple to its (t, total) points,
        so ``by=()`` yields at most the one group ``()``.  Series that
        lack one of the ``by`` labels are left out, and a sample
        missing a series counts it as 0.0.  Each group sums its series
        in sorted-key order, so the floats are the same on every run.
        """
        groups: Dict[Tuple[str, ...], List[str]] = {}
        for key in self.keys():
            name, labels = parse_series_key(key)
            if name == family and all(label in labels for label in by):
                group = tuple(labels[label] for label in by)
                groups.setdefault(group, []).append(key)
        out: Dict[Tuple[str, ...], List[Tuple[float, float]]] = {}
        for group, keys in groups.items():
            points = []
            for t_ms, values in self.samples:
                total = 0.0
                for key in keys:
                    total += values.get(key, 0.0)
                points.append((t_ms, total))
            out[group] = points
        return out

    def deltas(self, key: str) -> List[Tuple[float, float]]:
        """Per-interval increases of a cumulative series (for rates)."""
        return interval_deltas(self.series(key))

    def last(self, key: str) -> float:
        for _, values in reversed(self.samples):
            if key in values:
                return values[key]
        return 0.0

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
        self.on_sample = None
        """Optional callback ``fn(timeseries)`` invoked after each new
        sample lands (the alert detectors' attachment point).  Mirrors
        the stack-wide single ``is None`` check pattern: detection off
        costs one attribute read per sample, and a pure-read callback
        (no events, no RNG) cannot perturb the simulation."""
        self._stopped = False
        self._proc = None

    @property
    def running(self) -> bool:
        return self._proc is not None and not self._stopped

    def start(self) -> "Sampler":
        """Begin sampling at the current sim-time (idempotent)."""
        if self._proc is None:
            self._proc = self.env.process(self._run())
        return self

    def stop(self, final_sample: bool = True) -> None:
        """Stop sampling; optionally take one last snapshot now.

        The loop exits on its next wake-up; no events are injected, so
        stopping is safe even after the run loop has drained.
        """
        self._stopped = True
        if final_sample:
            self.sample_now(force=True)

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
        if self.on_sample is not None:
            self.on_sample(self.timeseries)

    def _run(self):
        while not self._stopped:
            self.sample_now()
            yield self.env.timeout(self.interval_ms)
