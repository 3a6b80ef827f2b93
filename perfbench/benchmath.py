"""The runner's own arithmetic: percentiles, window deltas, ratios and
the grouping of profile rows by package.

Tested by ``PYTHONPATH=src python3 -m pytest perfbench``.
"""

from __future__ import annotations

import math
import os
from typing import Callable, Dict, Iterable, Mapping, Optional, Sequence, Tuple

from repro.metrics import percentile

#: ``repro.*`` packages whose host self time is reported on its own;
#: everything else (stdlib, builtins, other ``repro`` packages and the
#: benchmark's own files) is summed as ``other``.
LAYERS = ("sim", "core", "namespace", "rpc", "faas", "metastore", "coordination")

MIN_BEYOND = 10
"""A percentile is reported only when this many samples lie beyond it."""


def samples_beyond(count: int, q: int) -> int:
    """How many of ``count`` samples lie above the ``q``-th percentile."""
    return count * (100 - q) // 100


def reportable_percentile(values: Sequence[float], q: int) -> Optional[float]:
    """The ``q``-th percentile (linear interpolation, as everywhere in
    ``repro``), or None when fewer than
    :data:`MIN_BEYOND` samples lie beyond it (p50 needs 20 samples,
    p99 needs 1,000)."""
    if samples_beyond(len(values), q) < MIN_BEYOND:
        return None
    return percentile(values, q)


def window_delta(before: Mapping[str, float], after: Mapping[str, float]) -> Dict[str, float]:
    """Per-key growth of cumulative counters over a window.

    Every key of ``before`` must be in ``after``, and no counter may
    shrink: a cumulative counter that goes backwards means the snapshot
    read something other than a cumulative counter.
    """
    delta = {}
    for key, start in before.items():
        if key not in after:
            raise KeyError(f"counter {key!r} missing at window end")
        grown = after[key] - start
        if grown < 0:
            raise ValueError(f"counter {key!r} went backwards: {start} -> {after[key]}")
        delta[key] = grown
    return delta


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, 0 when the denominator is 0."""
    return numerator / denominator if denominator else 0.0


def target_ops(rate_at: Callable[[float], float], duration_ms: float) -> float:
    """Ops a paced workload asks for: it owes ``rate_at(t)`` ops for
    each whole second starting at ``t`` ms into the window (the Spotify
    workload re-reads its target once per second)."""
    seconds = math.ceil(duration_ms / 1_000.0)
    return sum(rate_at(second * 1_000.0) for second in range(seconds))


def shortfall_ratio(completed: float, target: float) -> float:
    """1 - completed / target, floored at 0 (a paced workload cannot
    complete more than it was asked for, bar rounding)."""
    if target <= 0:
        raise ValueError("target must be positive")
    return max(0.0, 1.0 - completed / target)


def package_of(filename: str) -> str:
    """The layer a profiled function belongs to, from its source file."""
    parts = os.path.normpath(filename).split(os.sep)
    for index in range(len(parts) - 2, -1, -1):
        if parts[index] == "repro" and parts[index + 1] in LAYERS:
            return parts[index + 1]
    return "other"


def self_time_by_package(
    rows: Iterable[Tuple[str, float]],
) -> Dict[str, float]:
    """Sum self time per layer over ``(filename, self_seconds)`` rows,
    with every layer and ``other`` present."""
    totals = {layer: 0.0 for layer in LAYERS + ("other",)}
    for filename, seconds in rows:
        totals[package_of(filename)] += seconds
    return totals
