"""Critical-path latency attribution over traced span trees.

The analyzer consumes the causal span trees recorded by
:class:`repro.trace.Tracer` and, for every completed client operation,
splits its end-to-end latency across the fixed stage taxonomy of
:mod:`repro.profile.stages`.  Attribution follows the **blocking
critical path**, not naive duration sums: the walk moves backwards
from the operation's completion, descending into the child span that
gated progress at each instant — so when an INV round fans out to N
deployments concurrently, only the slowest ACK's chain is charged
(the others are shadowed), and a straggler attempt that keeps running
after the client abandoned it is clipped at the abandonment point.

The partition is exact by construction: the emitted segments tile the
root interval with no overlap, so per-stage totals sum to the
operation's latency to float precision.  The profiler only *reads*
spans after the run — it never schedules events or touches the
simulation, so profiling cannot change behaviour or the determinism
hash.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.metrics.recorder import percentile
from repro.profile.stages import ROOT_KIND, STAGES, is_failed_attempt, stage_of
from repro.trace.tracer import Span


@dataclass(frozen=True)
class Segment:
    """One critical-path slice: ``span`` was the blocker on [start, end)."""

    start_ms: float
    end_ms: float
    stage: str
    kind: str
    actor: str
    stack: Tuple[str, ...]
    """Span kinds from the root down to the blocking span."""

    @property
    def duration_ms(self) -> float:
        return self.end_ms - self.start_ms


@dataclass
class OpProfile:
    """One client operation's attributed latency."""

    span_id: int
    op: str
    path: str
    ok: bool
    via: str
    start_ms: float
    end_ms: float
    stages: Dict[str, float]
    segments: List[Segment] = field(default_factory=list)
    tenant: str = ""
    """Owning tenant (from the root span's ``tenant`` attr); empty in
    single-tenant runs."""

    @property
    def total_ms(self) -> float:
        return self.end_ms - self.start_ms

    @property
    def attributed_ms(self) -> float:
        return sum(self.stages.values())

    def to_dict(self) -> Dict[str, Any]:
        out = {
            "span_id": self.span_id,
            "op": self.op,
            "path": self.path,
            "ok": self.ok,
            "via": self.via,
            "start_ms": self.start_ms,
            "end_ms": self.end_ms,
            "stages": {k: v for k, v in self.stages.items() if v},
        }
        if self.tenant:
            out["tenant"] = self.tenant
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "OpProfile":
        stages = {stage: 0.0 for stage in STAGES}
        stages.update(data.get("stages", {}))
        return cls(
            span_id=data.get("span_id", 0),
            op=data["op"],
            path=data.get("path", ""),
            ok=data.get("ok", True),
            via=data.get("via", ""),
            start_ms=data["start_ms"],
            end_ms=data["end_ms"],
            stages=stages,
            tenant=data.get("tenant", ""),
        )


class Profile:
    """A run's worth of :class:`OpProfile` records plus aggregates."""

    def __init__(self, ops: List[OpProfile], open_roots: int = 0) -> None:
        self.ops = ops
        self.open_roots = open_roots
        """Client-op spans still open when the trace was analyzed
        (crashed or abandoned operations; excluded from attribution)."""

    def __len__(self) -> int:
        return len(self.ops)

    # -- aggregates ------------------------------------------------------
    def by_op_type(self) -> Dict[str, List[OpProfile]]:
        grouped: Dict[str, List[OpProfile]] = {}
        for op in self.ops:
            grouped.setdefault(op.op, []).append(op)
        return grouped

    def by_tenant(self) -> Dict[str, List[OpProfile]]:
        """Ops grouped by owning tenant ("" = untagged clients)."""
        grouped: Dict[str, List[OpProfile]] = {}
        for op in self.ops:
            grouped.setdefault(op.tenant, []).append(op)
        return grouped

    def stage_totals(
        self, op: Optional[str] = None, tenant: Optional[str] = None
    ) -> Dict[str, float]:
        """Total ms per stage (optionally for one op type / tenant)."""
        totals = {stage: 0.0 for stage in STAGES}
        for record in self.ops:
            if op is not None and record.op != op:
                continue
            if tenant is not None and record.tenant != tenant:
                continue
            for stage, value in record.stages.items():
                totals[stage] = totals.get(stage, 0.0) + value
        return totals

    def stage_shares(
        self, op: Optional[str] = None, tenant: Optional[str] = None
    ) -> Dict[str, float]:
        """Fraction of total attributed time per stage."""
        totals = self.stage_totals(op, tenant=tenant)
        grand = sum(totals.values())
        if grand <= 0:
            return {stage: 0.0 for stage in totals}
        return {stage: value / grand for stage, value in totals.items()}

    def top_contributors(self, n: int = 10) -> List[Tuple[str, str, float, float]]:
        """The heaviest (op type, stage) cells.

        Returns ``(op, stage, total_ms, share_of_run)`` rows sorted by
        total time — the "where did the milliseconds go" table.
        """
        grand = sum(sum(record.stages.values()) for record in self.ops) or 1.0
        cells: Dict[Tuple[str, str], float] = {}
        for record in self.ops:
            for stage, value in record.stages.items():
                if value > 0:
                    key = (record.op, stage)
                    cells[key] = cells.get(key, 0.0) + value
        ranked = sorted(cells.items(), key=lambda item: -item[1])[:n]
        return [(op, stage, ms, ms / grand) for (op, stage), ms in ranked]

    # -- persistence ---------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        summary = {}
        for op, records in sorted(self.by_op_type().items()):
            totals = [r.total_ms for r in records]
            summary[op] = {
                "count": len(records),
                "p50_ms": percentile(totals, 50.0),
                "p99_ms": percentile(totals, 99.0),
                "stage_shares": {
                    k: v for k, v in self.stage_shares(op).items() if v
                },
            }
        return {
            "version": 1,
            "open_roots": self.open_roots,
            "summary": summary,
            "ops": [record.to_dict() for record in self.ops],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Profile":
        return cls(
            [OpProfile.from_dict(record) for record in data.get("ops", [])],
            open_roots=data.get("open_roots", 0),
        )

    def save(self, path: str) -> str:
        with open(path, "w") as handle:
            json.dump(self.to_dict(), handle, indent=1, sort_keys=True)
        return path

    @classmethod
    def load(cls, path: str) -> "Profile":
        with open(path) as handle:
            return cls.from_dict(json.load(handle))


# -- the walk -----------------------------------------------------------------

def _index_children(spans: Iterable[Span]) -> Dict[Optional[int], List[Span]]:
    by_parent: Dict[Optional[int], List[Span]] = {}
    for span in spans:
        by_parent.setdefault(span.parent_id, []).append(span)
    return by_parent


def _walk(
    span: Span,
    lo: float,
    hi: float,
    by_parent: Dict[Optional[int], List[Span]],
    stack: Tuple[str, ...],
    segments: List[Segment],
) -> None:
    """Tile [lo, hi) with critical-path segments for ``span``'s subtree.

    Moves backwards from ``hi``: the child that ends last within the
    remaining window is the blocker (the "slowest ACK" rule); anything
    it shadows is off the path.  Gaps between blocking children are
    the span's own self time.  Children are clipped to the window, so
    work continuing after the parent gave up (abandoned stragglers)
    is not charged to this operation.
    """
    if hi <= lo:
        return

    def emit(start: float, end: float) -> None:
        if end > start:
            segments.append(Segment(
                start, end, stage_of(span), span.kind, span.actor, stack,
            ))

    if is_failed_attempt(span):
        # A resubmitted attempt is wasted wholesale; don't decompose.
        emit(lo, hi)
        return

    children = [
        child for child in by_parent.get(span.span_id, ())
        if child.end_ms is not None
        and child.end_ms > child.start_ms
        and child.start_ms < hi and child.end_ms > lo
    ]
    children.sort(key=lambda child: (-child.end_ms, child.start_ms, child.span_id))

    cursor = hi
    for child in children:
        if cursor <= lo:
            break
        child_end = min(child.end_ms, cursor)
        child_start = max(child.start_ms, lo)
        if child_end <= child_start:
            continue  # fully shadowed by a later-ending sibling
        emit(child_end, cursor)  # span's own time after this child
        _walk(child, child_start, child_end, by_parent,
              stack + (child.kind,), segments)
        cursor = child_start
    emit(lo, cursor)


def attribute_op(
    root: Span, by_parent: Dict[Optional[int], List[Span]]
) -> OpProfile:
    """Attribute one closed client-op span across the stage taxonomy."""
    segments: List[Segment] = []
    _walk(root, root.start_ms, root.end_ms, by_parent, (root.kind,), segments)
    stages = {stage: 0.0 for stage in STAGES}
    for segment in segments:
        stages[segment.stage] = stages.get(segment.stage, 0.0) + segment.duration_ms
    return OpProfile(
        span_id=root.span_id,
        op=str(root.attrs.get("op", "?")),
        path=str(root.attrs.get("path", "")),
        ok=bool(root.attrs.get("ok", False)),
        via=str(root.attrs.get("via", "")),
        start_ms=root.start_ms,
        end_ms=root.end_ms,
        stages=stages,
        segments=segments,
        tenant=str(root.attrs.get("tenant", "")),
    )


def analyze_spans(spans: Iterable[Span]) -> Profile:
    """Profile every completed client operation in ``spans``."""
    span_list = list(spans)
    by_parent = _index_children(span_list)
    ops: List[OpProfile] = []
    open_roots = 0
    for span in span_list:
        if span.kind != ROOT_KIND:
            continue
        if span.end_ms is None:
            open_roots += 1
            continue
        ops.append(attribute_op(span, by_parent))
    ops.sort(key=lambda record: (record.start_ms, record.span_id))
    return Profile(ops, open_roots=open_roots)


def analyze_trace(tracer) -> Profile:
    """Profile a :class:`repro.trace.Tracer`'s retained spans."""
    return analyze_spans(tracer.spans.values())


class Profiler:
    """Critical-path profiling attached to a built system.

    Thin handle pairing a tracer with the analyzer; created by the
    bench builders when ``profile=True`` and exposed as
    ``SystemHandle.profiler``.  Analysis is strictly post-hoc — call
    :meth:`analyze` after the run.
    """

    def __init__(self, tracer) -> None:
        self.tracer = tracer

    def analyze(self) -> Profile:
        return analyze_trace(self.tracer)
