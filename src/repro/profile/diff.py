"""Run-to-run profile diffing: attribution-level before/after.

Compares two :class:`~repro.profile.critical_path.Profile` runs
per-op-type and per-stage, so a perf PR's effect shows up *in the
stage it changed* — "create-file p99 grew 2.1× and the growth is all
``store``" is actionable where "p99 grew" is not.

A cell regresses when its mean per-op stage time grows by more than
``rel_threshold`` (relative) **and** ``min_ms`` (absolute floor, so
microsecond jitter on near-zero stages never pages anyone).  A run
diffed against itself reports zero regressions by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.metrics.recorder import percentile
from repro.profile.critical_path import Profile
from repro.profile.stages import STAGES


@dataclass(frozen=True)
class StageDelta:
    """One (op type, stage) comparison cell."""

    op: str
    stage: str
    before_ms: float
    """Mean per-op stage time in the baseline run."""
    after_ms: float
    delta_ms: float
    ratio: float
    """after/before; ``inf`` when the stage appeared from zero."""
    regression: bool
    improvement: bool


@dataclass(frozen=True)
class OpDelta:
    """End-to-end latency movement for one op type."""

    op: str
    count_before: int
    count_after: int
    p50_before_ms: float
    p50_after_ms: float
    p99_before_ms: float
    p99_after_ms: float


class ProfileDiff:
    """The full stage-by-stage comparison of two runs."""

    def __init__(
        self, stage_deltas: List[StageDelta], op_deltas: List[OpDelta]
    ) -> None:
        self.stage_deltas = stage_deltas
        self.op_deltas = op_deltas

    def regressions(self) -> List[StageDelta]:
        return [delta for delta in self.stage_deltas if delta.regression]

    def improvements(self) -> List[StageDelta]:
        return [delta for delta in self.stage_deltas if delta.improvement]


def _mean_stages(profile: Profile) -> Dict[str, Dict[str, float]]:
    """op type -> stage -> mean ms per op."""
    out: Dict[str, Dict[str, float]] = {}
    for op, records in profile.by_op_type().items():
        count = len(records)
        means = {stage: 0.0 for stage in STAGES}
        for record in records:
            for stage, value in record.stages.items():
                means[stage] = means.get(stage, 0.0) + value
        out[op] = {stage: value / count for stage, value in means.items()}
    return out


def diff_profiles(
    before: Profile,
    after: Profile,
    rel_threshold: float = 0.25,
    min_ms: float = 0.05,
) -> ProfileDiff:
    """Stage-by-stage comparison; see module docstring for the rule."""
    if rel_threshold < 0 or min_ms < 0:
        raise ValueError("thresholds must be non-negative")
    means_before = _mean_stages(before)
    means_after = _mean_stages(after)
    ops = sorted(set(means_before) | set(means_after))

    stage_deltas: List[StageDelta] = []
    for op in ops:
        b_stages = means_before.get(op, {})
        a_stages = means_after.get(op, {})
        for stage in STAGES:
            b = b_stages.get(stage, 0.0)
            a = a_stages.get(stage, 0.0)
            if b == 0.0 and a == 0.0:
                continue
            delta = a - b
            ratio = (a / b) if b > 0 else float("inf")
            grown = delta > min_ms and (b == 0.0 or delta > rel_threshold * b)
            shrunk = -delta > min_ms and (a == 0.0 or -delta > rel_threshold * a)
            # A cell only counts when both runs actually saw the op.
            seen_both = op in means_before and op in means_after
            stage_deltas.append(StageDelta(
                op=op, stage=stage, before_ms=b, after_ms=a,
                delta_ms=delta, ratio=ratio,
                regression=grown and seen_both,
                improvement=shrunk and seen_both,
            ))

    op_deltas: List[OpDelta] = []
    by_before = before.by_op_type()
    by_after = after.by_op_type()
    for op in ops:
        b_totals = [record.total_ms for record in by_before.get(op, [])]
        a_totals = [record.total_ms for record in by_after.get(op, [])]
        op_deltas.append(OpDelta(
            op=op,
            count_before=len(b_totals),
            count_after=len(a_totals),
            p50_before_ms=percentile(b_totals, 50.0) if b_totals else 0.0,
            p50_after_ms=percentile(a_totals, 50.0) if a_totals else 0.0,
            p99_before_ms=percentile(b_totals, 99.0) if b_totals else 0.0,
            p99_after_ms=percentile(a_totals, 99.0) if a_totals else 0.0,
        ))
    return ProfileDiff(stage_deltas, op_deltas)


def format_diff(diff: ProfileDiff, verbose: bool = False) -> str:
    """Human-readable diff report (tables + regression verdict)."""
    from repro.bench.report import tabulate

    lines: List[str] = []
    rows: List[Tuple] = [
        [delta.op, delta.count_before, delta.count_after,
         f"{delta.p50_before_ms:.2f}", f"{delta.p50_after_ms:.2f}",
         f"{delta.p99_before_ms:.2f}", f"{delta.p99_after_ms:.2f}"]
        for delta in diff.op_deltas
    ]
    lines.append(tabulate(
        ["op", "n before", "n after", "p50 before", "p50 after",
         "p99 before", "p99 after"],
        rows,
    ))

    moved = [
        delta for delta in diff.stage_deltas
        if verbose or delta.regression or delta.improvement
    ]
    if moved:
        lines.append("")
        lines.append(tabulate(
            ["op", "stage", "before ms/op", "after ms/op", "delta", "verdict"],
            [
                [delta.op, delta.stage,
                 f"{delta.before_ms:.3f}", f"{delta.after_ms:.3f}",
                 f"{delta.delta_ms:+.3f}",
                 "REGRESSION" if delta.regression
                 else ("improved" if delta.improvement else "")]
                for delta in moved
            ],
        ))
    count = len(diff.regressions())
    lines.append("")
    lines.append(
        f"{count} regression(s), {len(diff.improvements())} improvement(s)"
    )
    return "\n".join(lines)
