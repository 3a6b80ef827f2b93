"""Figure 10: latency CDFs per operation type for the Spotify runs."""

import pytest

from repro.metrics import percentile

from _shared import report, spotify_runs_25k, tabulate

pytestmark = pytest.mark.bench

OPS = ["read file", "stat file/dir", "ls file/dir", "create file", "mv file/dir"]
QUANTILES = [50, 90, 99, 99.9]


def test_fig10_latency_cdfs():
    runs = spotify_runs_25k()

    rows = []
    for op in OPS:
        for key, run in runs.items():
            lats = run.latencies_by_op.get(op)
            if not lats:
                continue
            rows.append(
                [op, run.name] + [percentile(lats, q) for q in QUANTILES]
            )
    report(
        "fig10",
        "Figure 10 — latency percentiles (ms) by op (CDF summary)",
        tabulate(["op", "system"] + [f"p{q}" for q in QUANTILES], rows),
    )

    lam = runs["lambda"].latencies_by_op
    hops = runs.get("hopsfs")
    if hops is not None:
        # §5.2.2: λFS reads are several times faster than HopsFS
        # (6.93x–20.13x in the paper).
        assert percentile(lam["read file"], 50) < percentile(
            hops.latencies_by_op["read file"], 50
        ) / 2
    cache = runs.get("hopsfs_cache")
    if cache is not None:
        # Serverful writes are faster than λFS' (the coherence
        # protocol's INV/ACK round sits on λFS' write path).  The
        # cache-based serverful baseline is the fair reference here:
        # vanilla HopsFS spends our scaled run saturated, so its
        # write latencies are queueing-dominated.
        assert percentile(lam["create file"], 50) > percentile(
            cache.latencies_by_op["create file"], 50
        )
