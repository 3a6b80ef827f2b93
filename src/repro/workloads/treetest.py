"""IndexFS' ``tree-test`` benchmark (§5.7, Figure 16).

Two flavours:

* **variable-sized** — every client executes ``writes_per_client``
  mknod operations followed by ``reads_per_client`` random getattr
  operations, so total work grows with the client count;
* **fixed-sized** — the *total* operation count is fixed and split
  evenly across clients.

Reports write, read, and aggregate (writes-then-reads) throughput.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Generator, List, Sequence

from repro.sim import AllOf, Environment

#: Parent of every client's ``d<index>`` directory.
DIRECTORY_ROOT = "/tree"

#: Untimed per-client operations before the measured phases (the
#: paper's runs are long enough to amortize cold starts; short scaled
#: runs warm explicitly instead).
WARMUP_OPS = 8


@dataclass(frozen=True)
class TreeTestConfig:
    writes_per_client: int = 10_000
    reads_per_client: int = 10_000
    fixed_total_writes: int = 1_000_000
    fixed_total_reads: int = 1_000_000
    seed: int = 0


@dataclass
class TreeTestResult:
    clients: int
    write_ops: int
    read_ops: int
    write_duration_ms: float
    read_duration_ms: float

    @property
    def write_throughput(self) -> float:
        return (
            self.write_ops * 1_000.0 / self.write_duration_ms
            if self.write_duration_ms > 0 else 0.0
        )

    @property
    def read_throughput(self) -> float:
        return (
            self.read_ops * 1_000.0 / self.read_duration_ms
            if self.read_duration_ms > 0 else 0.0
        )

    @property
    def aggregate_throughput(self) -> float:
        total = self.write_duration_ms + self.read_duration_ms
        if total <= 0:
            return 0.0
        return (self.write_ops + self.read_ops) * 1_000.0 / total


class TreeTest:
    """Drives mknod/getattr clients against IndexFS or λIndexFS."""

    def __init__(self, env: Environment, config: TreeTestConfig) -> None:
        self.env = env
        self.config = config

    def _paths_for(self, client_index: int, count: int) -> List[str]:
        root = DIRECTORY_ROOT
        return [f"{root}/d{client_index}/f{i}" for i in range(count)]

    def run(self, clients: Sequence, fixed_size: bool = False) -> Generator:
        """Write phase on all clients, then read phase; barrier between."""
        if fixed_size:
            writes = max(1, self.config.fixed_total_writes // len(clients))
            reads = max(1, self.config.fixed_total_reads // len(clients))
        else:
            writes = self.config.writes_per_client
            reads = self.config.reads_per_client

        all_paths: List[List[str]] = [
            self._paths_for(index, writes) for index in range(len(clients))
        ]

        if WARMUP_OPS:
            warm_procs = [
                self.env.process(self._warmup(client, index))
                for index, client in enumerate(clients)
            ]
            yield AllOf(self.env, warm_procs)

        write_start = self.env.now
        write_procs = [
            self.env.process(self._write_phase(client, paths))
            for client, paths in zip(clients, all_paths)
        ]
        yield AllOf(self.env, write_procs)
        write_duration = self.env.now - write_start

        read_start = self.env.now
        read_procs = [
            self.env.process(self._read_phase(client, index, all_paths, reads))
            for index, client in enumerate(clients)
        ]
        yield AllOf(self.env, read_procs)
        read_duration = self.env.now - read_start

        return TreeTestResult(
            clients=len(clients),
            write_ops=writes * len(clients),
            read_ops=reads * len(clients),
            write_duration_ms=write_duration,
            read_duration_ms=read_duration,
        )

    def _warmup(self, client, index: int) -> Generator:
        root = DIRECTORY_ROOT
        for serial in range(WARMUP_OPS):
            path = f"{root}/d{index}/w{serial}"
            yield from client.mknod(path)
            yield from client.getattr(path)

    def _write_phase(self, client, paths: List[str]) -> Generator:
        for path in paths:
            yield from client.mknod(path)

    def _read_phase(
        self, client, index: int, all_paths: List[List[str]], reads: int
    ) -> Generator:
        rng = random.Random(f"{self.config.seed}:{index}:read")
        for _ in range(reads):
            # Random getattr across the whole created population.
            paths = all_paths[rng.randrange(len(all_paths))]
            if paths:
                yield from client.getattr(rng.choice(paths))