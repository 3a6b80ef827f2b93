"""Shared helpers for the benchmark suite.

Heavy experiments (the Spotify suite) are computed once per process
and shared by every figure in it that derives from them.  Nothing is
cached on disk, so a rerun always measures the current code.  Tables
print to stdout (run
``pytest benchmarks/ -s`` to see them) and are also
written under ``benchmarks/results/``.
"""

from __future__ import annotations

import os
from functools import lru_cache
from pathlib import Path

RESULTS_DIR = Path(__file__).parent / "results"

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))
"""Set REPRO_BENCH_QUICK=1 to shrink every experiment further."""


from repro.bench.report import tabulate  # noqa: E402  (shared renderer)


def report(name: str, title: str, table: str) -> None:
    """Print a result table and persist it under results/."""
    block = f"\n=== {title} ===\n{table}\n"
    print(block)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(block)


@lru_cache(maxsize=None)
def spotify_runs_25k():
    """The Figure 8(a) suite (paper's 25k-base analogue), shared by
    figs 8(a), 8(c), 9, and 10."""
    from repro.bench.experiments import fig8_spotify

    if QUICK:
        return fig8_spotify(duration_ms=20_000.0, clients=96,
                            systems=("lambda", "hopsfs", "hopsfs_cache"))
    return fig8_spotify()


@lru_cache(maxsize=None)
def spotify_runs_50k():
    """The Figure 8(b) suite (paper's 50k-base analogue).

    Runs 2x the Figure 8(a) base with 2x the clients — the paper also
    scales client parallelism with load; with too few clients the
    closed-loop backlog makes the simulation grind.
    """
    from repro.bench.experiments import fig8_spotify

    if QUICK:
        return fig8_spotify(base_throughput=12_000.0, duration_ms=20_000.0,
                            clients=192, systems=("lambda", "hopsfs"))
    return fig8_spotify(
        base_throughput=12_000.0,
        duration_ms=20_000.0,
        clients=384,
        systems=("lambda", "hopsfs", "hopsfs_cache"),
    )
