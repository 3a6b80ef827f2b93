"""Operation records, throughput timelines, and latency statistics."""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple


@dataclass(frozen=True, slots=True)
class OpRecord:
    """One completed client operation."""

    op: str
    start_ms: float
    end_ms: float
    ok: bool = True
    via: str = "tcp"
    cache_hit: bool = False

    @property
    def latency_ms(self) -> float:
        return self.end_ms - self.start_ms


class MetricsRecorder:
    """Collects :class:`OpRecord` objects and derives statistics."""

    def __init__(self) -> None:
        self.records: List[OpRecord] = []
        self._cache_stats_provider = None

    def attach_cache_stats(self, provider) -> None:
        """Make ``provider()`` (returning a CacheStats-like object with
        ``lookups``/``hit_ratio``) the authoritative source for
        :meth:`cache_hit_ratio`, replacing per-record flag counting."""
        self._cache_stats_provider = provider

    def record(
        self,
        op: str,
        start_ms: float,
        end_ms: float,
        ok: bool = True,
        via: str = "tcp",
        cache_hit: bool = False,
    ) -> None:
        self.records.append(OpRecord(op, start_ms, end_ms, ok, via, cache_hit))

    def __len__(self) -> int:
        return len(self.records)

    # -- throughput ----------------------------------------------------
    def throughput_timeline(self, bin_ms: float = 1_000.0) -> List[Tuple[float, float]]:
        """(bin start ms, ops/sec) pairs over the recorded span."""
        if not self.records:
            return []
        ends = sorted(record.end_ms for record in self.records)
        start = 0.0
        stop = ends[-1]
        timeline: List[Tuple[float, float]] = []
        t = start
        while t <= stop:
            lo = bisect_right(ends, t)
            hi = bisect_right(ends, t + bin_ms)
            timeline.append((t, (hi - lo) * 1_000.0 / bin_ms))
            t += bin_ms
        return timeline

    def average_throughput(self, duration_ms: Optional[float] = None) -> float:
        """Mean ops/sec over ``duration_ms`` (or the recorded span)."""
        if not self.records:
            return 0.0
        if duration_ms is None:
            duration_ms = max(record.end_ms for record in self.records)
        if duration_ms <= 0:
            return 0.0
        return len(self.records) * 1_000.0 / duration_ms

    def peak_throughput(self, bin_ms: float = 1_000.0) -> float:
        timeline = self.throughput_timeline(bin_ms)
        return max((ops for _, ops in timeline), default=0.0)

    # -- latency ----------------------------------------------------------
    def latencies(self, op: Optional[str] = None, read_only: bool = False) -> List[float]:
        read_ops = {"read file", "stat file/dir", "ls file/dir"}
        return [
            record.latency_ms
            for record in self.records
            if (op is None or record.op == op)
            and (not read_only or record.op in read_ops)
        ]

    def average_latency(self, op: Optional[str] = None) -> float:
        values = self.latencies(op)
        return sum(values) / len(values) if values else 0.0

    def cache_hit_ratio(self) -> float:
        """Hit ratio from the attached CacheStats when available
        (single source of truth); falls back to per-record flags for
        standalone recorders with no system attached."""
        if self._cache_stats_provider is not None:
            stats = self._cache_stats_provider()
            if stats.lookups:
                return stats.hit_ratio
        if not self.records:
            return 0.0
        hits = sum(1 for record in self.records if record.cache_hit)
        return hits / len(self.records)

    def ops_breakdown(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for record in self.records:
            counts[record.op] = counts.get(record.op, 0) + 1
        return counts


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) with linear interpolation."""
    if not values:
        raise ValueError("percentile of empty sequence")
    if not 0 <= q <= 100:
        raise ValueError("q must be in [0, 100]")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (len(ordered) - 1) * q / 100.0
    lower = int(rank)
    upper = min(lower + 1, len(ordered) - 1)
    weight = rank - lower
    return ordered[lower] * (1 - weight) + ordered[upper] * weight


def latency_cdf(values: Iterable[float], points: int = 100) -> List[Tuple[float, float]]:
    """(latency, cumulative fraction) pairs for plotting a CDF."""
    ordered = sorted(values)
    if not ordered:
        return []
    count = len(ordered)
    step = max(1, count // points)
    cdf = [
        (ordered[index], (index + 1) / count)
        for index in range(0, count, step)
    ]
    if cdf[-1][0] != ordered[-1]:
        cdf.append((ordered[-1], 1.0))
    return cdf
