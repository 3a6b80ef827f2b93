"""Trace replay: drive any client from a recorded operation trace.

The paper's industrial workload is synthesized from statistics of
Spotify's HDFS audit logs; users with actual audit logs can replay
them directly.  The trace format is one operation per line::

    <time_ms> <op> <path> [dst_path]

where ``op`` is one of ``create``, ``mkdirs``, ``read``, ``stat``,
``ls``, ``delete``, ``rmr`` (recursive delete), ``mv``.  Lines
starting with ``#`` and blank lines are ignored.  Operations are
issued at their recorded offsets (open loop) across a pool of
clients round-robin; an operation whose time has already passed is
issued immediately (backlog behaviour, like hammer-bench rollover).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Iterable, List, Optional, Sequence, TextIO

from repro.core.messages import OpType
from repro.sim import AllOf, Environment

_OP_NAMES = {
    "create": OpType.CREATE_FILE,
    "mkdirs": OpType.MKDIRS,
    "read": OpType.READ_FILE,
    "stat": OpType.STAT,
    "ls": OpType.LS,
    "delete": OpType.DELETE,
    "rmr": OpType.DELETE,
    "mv": OpType.MV,
}


@dataclass(frozen=True)
class TraceRecord:
    """One parsed trace line."""

    time_ms: float
    op: OpType
    path: str
    dst_path: Optional[str] = None
    recursive: bool = False


class TraceParseError(ValueError):
    """A trace line could not be parsed."""


def parse_trace(lines: Iterable[str]) -> List[TraceRecord]:
    """Parse trace lines into records (sorted by time)."""
    records = []
    for number, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) < 3:
            raise TraceParseError(f"line {number}: expected 'time op path'")
        time_raw, op_name, path = parts[0], parts[1].lower(), parts[2]
        try:
            time_ms = float(time_raw)
        except ValueError:
            raise TraceParseError(f"line {number}: bad timestamp {time_raw!r}")
        op = _OP_NAMES.get(op_name)
        if op is None:
            raise TraceParseError(
                f"line {number}: unknown op {op_name!r} "
                f"(expected one of {sorted(_OP_NAMES)})"
            )
        dst = None
        if op is OpType.MV:
            if len(parts) < 4:
                raise TraceParseError(f"line {number}: mv needs a dst path")
            dst = parts[3]
        records.append(TraceRecord(
            time_ms=time_ms, op=op, path=path, dst_path=dst,
            recursive=op_name == "rmr",
        ))
    records.sort(key=lambda record: record.time_ms)
    return records


def load_trace(handle: TextIO) -> List[TraceRecord]:
    """Parse a trace from an open text file."""
    return parse_trace(handle)


@dataclass
class ReplayResult:
    issued: int
    succeeded: int
    failed: int
    duration_ms: float

    @property
    def throughput(self) -> float:
        if self.duration_ms <= 0:
            return 0.0
        return self.issued * 1_000.0 / self.duration_ms


class TraceReplayer:
    """Replays a parsed trace against a pool of clients."""

    def __init__(self, env: Environment, records: Sequence[TraceRecord]) -> None:
        self.env = env
        self.records = list(records)

    def run(self, clients: Sequence) -> Generator:
        """Replay to completion; returns a :class:`ReplayResult`."""
        if not clients:
            raise ValueError("need at least one client")
        start = self.env.now
        outcome = {"ok": 0, "failed": 0}
        # Shard records round-robin; each worker preserves its own
        # records' recorded order and offsets.
        shards: List[List[TraceRecord]] = [[] for _ in clients]
        for index, record in enumerate(self.records):
            shards[index % len(clients)].append(record)
        workers = [
            self.env.process(self._worker(client, shard, start, outcome))
            for client, shard in zip(clients, shards)
            if shard
        ]
        if workers:
            yield AllOf(self.env, workers)
        return ReplayResult(
            issued=len(self.records),
            succeeded=outcome["ok"],
            failed=outcome["failed"],
            duration_ms=self.env.now - start,
        )

    def _worker(
        self,
        client,
        shard: Sequence[TraceRecord],
        start: float,
        outcome: dict,
    ) -> Generator:
        for record in shard:
            due = start + record.time_ms
            if self.env.now < due:
                yield self.env.timeout(due - self.env.now)
            response = yield from client.execute(
                record.op, record.path,
                dst_path=record.dst_path, recursive=record.recursive,
            )
            outcome["ok" if response.ok else "failed"] += 1
