"""Operation records, throughput timelines, and latency statistics."""

from __future__ import annotations

import hashlib
from array import array
from bisect import bisect_right
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple


@dataclass(frozen=True, slots=True)
class OpRecord:
    """One completed client operation."""

    op: str
    start_ms: float
    end_ms: float
    ok: bool = True
    via: str = "tcp"
    cache_hit: bool = False
    tenant: Optional[str] = None

    @property
    def latency_ms(self) -> float:
        return self.end_ms - self.start_ms


class OpRecords(SequenceABC):
    """A read-only window of a recorder's ops, in completion order.

    Holds only a ``range`` of row numbers into the recorder's columns,
    so slicing (``records[before:]``, slices of slices) copies
    nothing; indexing and iteration build each :class:`OpRecord` on
    demand.  The window is fixed when it is made: ops recorded later
    are not in it, as with a list slice.
    """

    __slots__ = ("_recorder", "_rows")

    def __init__(self, recorder: "MetricsRecorder", rows: range) -> None:
        self._recorder = recorder
        self._rows = rows

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return OpRecords(self._recorder, self._rows[index])
        return self._recorder._row(self._rows[index])

    def __iter__(self) -> Iterator[OpRecord]:
        row = self._recorder._row
        for index in self._rows:
            yield row(index)


class MetricsRecorder:
    """Collects completed ops and derives statistics.

    Ops are kept as packed columns, not objects: the sim-clock start and
    end as doubles, and a small-int code naming the op's interned
    ``(op, ok, via, cache_hit, tenant)`` key, about 18 bytes per op.
    :attr:`records` presents them as a sequence of :class:`OpRecord`.
    """

    def __init__(self) -> None:
        self._starts = array("d")
        self._ends = array("d")
        self._codes = array("H")
        #: code -> (op, ok, via, cache_hit, tenant), and its inverse.
        self._keys: List[Tuple[str, bool, str, bool, Optional[str]]] = []
        self._code_of: Dict[Tuple[str, bool, str, bool, Optional[str]], int] = {}

    def record(
        self,
        op: str,
        start_ms: float,
        end_ms: float,
        ok: bool = True,
        via: str = "tcp",
        cache_hit: bool = False,
        tenant: Optional[str] = None,
    ) -> None:
        key = (op, ok, via, cache_hit, tenant)
        code = self._code_of.get(key)
        if code is None:
            code = self._code_of[key] = len(self._keys)
            self._keys.append(key)
        self._starts.append(start_ms)
        self._ends.append(end_ms)
        self._codes.append(code)

    @property
    def records(self) -> OpRecords:
        """Every op recorded so far, as a sequence of :class:`OpRecord`."""
        return OpRecords(self, range(len(self._ends)))

    def _row(self, index: int) -> OpRecord:
        op, ok, via, cache_hit, tenant = self._keys[self._codes[index]]
        return OpRecord(
            op, self._starts[index], self._ends[index], ok, via, cache_hit, tenant
        )

    def __len__(self) -> int:
        return len(self._ends)

    def tenants(self) -> List[str]:
        """Every tenant some op was recorded for, sorted."""
        return sorted({key[4] for key in self._keys if key[4] is not None})

    def outcome_digest(self) -> str:
        """Hex blake2b over every record, in completion order.

        Covers each op's type, sim-clock start and end (``repr``, so
        bit-exact), success, transport and cache hit, not its tenant:
        two runs agree iff every op ended the same way at the same sim
        time.  Unlike
        the tracer's event hash it does not see how the kernel got
        there, so a change that only reschedules internal events
        (fewer steps, other eids) leaves it unchanged.
        """
        digest = hashlib.blake2b(digest_size=16)
        update = digest.update
        keys = [
            (op, f"|{ok:d}|{via}|{cache_hit:d}\n")
            for op, ok, via, cache_hit, _tenant in self._keys
        ]
        for start, end, code in zip(self._starts, self._ends, self._codes):
            op, tail = keys[code]
            update(f"{op}|{start!r}|{end!r}{tail}".encode())
        return digest.hexdigest()

    # -- throughput ----------------------------------------------------
    def throughput_timeline(self, bin_ms: float = 1_000.0) -> List[Tuple[float, float]]:
        """(bin start ms, ops/sec) pairs over the recorded span."""
        if not self._ends:
            return []
        ends = sorted(self._ends)
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
        if not self._ends:
            return 0.0
        if duration_ms is None:
            duration_ms = max(self._ends)
        if duration_ms <= 0:
            return 0.0
        return len(self._ends) * 1_000.0 / duration_ms

    def peak_throughput(self, bin_ms: float = 1_000.0) -> float:
        timeline = self.throughput_timeline(bin_ms)
        return max((ops for _, ops in timeline), default=0.0)

    # -- latency ----------------------------------------------------------
    def latencies(self) -> List[float]:
        return [end - start for start, end in zip(self._starts, self._ends)]

    def average_latency(self) -> float:
        values = self.latencies()
        return sum(values) / len(values) if values else 0.0


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
