"""A LevelDB-like SSTable store for the IndexFS/λIndexFS port (§4).

Vanilla IndexFS packs metadata into LevelDB SSTables; the λFS port
keeps LevelDB only as the persistent metadata store.  The model here
captures LevelDB's characteristic behaviours that matter for the
Figure 16 experiment:

* writes are cheap (WAL append + memtable insert);
* reads get slower as immutable runs accumulate (each run may need
  to be searched) until compaction merges them;
* flush and compaction run in the background but occupy the store's
  I/O capacity, which throttles foreground work during bursts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Generator, List, Tuple

from repro.sim import Environment, Resource

IO_THREADS = 4
WRITE_SERVICE_MS = 0.08
READ_SERVICE_MS = 0.12
#: Extra read cost per immutable run searched.
PER_RUN_PENALTY_MS = 0.05
#: Memtable entries that trigger a background flush.
FLUSH_THRESHOLD = 4096
#: Runs past this count trigger a full compaction.
MAX_RUNS = 6
FLUSH_MS_PER_1K_ENTRIES = 3.0
COMPACT_MS_PER_1K_ENTRIES = 6.0


@dataclass
class SSTableStats:
    puts: int = 0
    gets: int = 0
    flushes: int = 0
    compactions: int = 0
    runs_searched: int = 0


class SSTableStore:
    """One LevelDB instance."""

    _TOMBSTONE = object()

    def __init__(self, env: Environment) -> None:
        self.env = env
        self._memtable: Dict[Any, Any] = {}
        self._runs: List[Dict[Any, Any]] = []
        self._io = Resource(env, capacity=IO_THREADS)
        self._flushing = False
        self.stats = SSTableStats()

    @property
    def run_count(self) -> int:
        return len(self._runs)

    def load_bulk(self, items: Dict[Any, Any]) -> None:
        """Install rows instantly as a single compacted run (setup)."""
        self._runs.insert(0, dict(items))

    # -- foreground operations -----------------------------------------
    def put(self, key: Any, value: Any) -> Generator:
        """WAL append + memtable insert."""
        with self._io.request() as slot:
            yield slot
            yield self.env.timeout(WRITE_SERVICE_MS)
        self._memtable[key] = value
        self.stats.puts += 1
        self._maybe_flush()

    def delete(self, key: Any) -> Generator:
        yield from self.put(key, self._TOMBSTONE)

    def get(self, key: Any) -> Generator:
        """Search memtable then runs newest-to-oldest."""
        searched = 0
        value = self._memtable.get(key, _MISSING)
        if value is _MISSING:
            for run in self._runs:
                searched += 1
                value = run.get(key, _MISSING)
                if value is not _MISSING:
                    break
        cost = READ_SERVICE_MS + searched * PER_RUN_PENALTY_MS
        with self._io.request() as slot:
            yield slot
            yield self.env.timeout(cost)
        self.stats.gets += 1
        self.stats.runs_searched += searched
        if value is _MISSING or value is self._TOMBSTONE:
            return None
        return value

    def scan_prefix(self, prefix: Tuple) -> Generator:
        """All live rows whose key[:-1] == prefix (merged over runs)."""
        merged: Dict[Any, Any] = {}
        for run in reversed(self._runs):
            for key, value in run.items():
                if isinstance(key, tuple) and key[:-1] == prefix:
                    merged[key] = value
        for key, value in self._memtable.items():
            if isinstance(key, tuple) and key[:-1] == prefix:
                merged[key] = value
        cost = READ_SERVICE_MS * (1 + len(self._runs))
        with self._io.request() as slot:
            yield slot
            yield self.env.timeout(cost)
        return {
            key: value
            for key, value in merged.items()
            if value is not self._TOMBSTONE
        }

    # -- background maintenance -------------------------------------------
    def _maybe_flush(self) -> None:
        if self._flushing or len(self._memtable) < FLUSH_THRESHOLD:
            return
        self._flushing = True
        self.env.process(self._flush())

    def _flush(self) -> Generator:
        frozen, self._memtable = self._memtable, {}
        cost = FLUSH_MS_PER_1K_ENTRIES * max(1, len(frozen)) / 1000.0
        with self._io.request() as slot:
            yield slot
            yield self.env.timeout(cost)
        self._runs.insert(0, frozen)
        self.stats.flushes += 1
        self._flushing = False
        if len(self._runs) > MAX_RUNS:
            yield from self._compact()

    def _compact(self) -> Generator:
        victims = self._runs
        total = sum(len(run) for run in victims)
        cost = COMPACT_MS_PER_1K_ENTRIES * max(1, total) / 1000.0
        with self._io.request() as slot:
            yield slot
            yield self.env.timeout(cost)
        merged: Dict[Any, Any] = {}
        for run in reversed(victims):
            merged.update(run)
        live = {k: v for k, v in merged.items() if v is not self._TOMBSTONE}
        # Runs flushed while compacting stay newer than the merged run.
        self._runs = self._runs[: len(self._runs) - len(victims)] + [live]
        self.stats.compactions += 1


_MISSING = object()
