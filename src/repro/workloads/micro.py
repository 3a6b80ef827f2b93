"""Scaling microbenchmarks (§5.3).

Each client performs a fixed number of one operation type against
random targets in a pre-created directory tree; the benchmark
reports the aggregate throughput.  Used for both the client-driven
scaling (Figure 11) and resource scaling (Figure 12) experiments.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Generator, List, Sequence

from repro.core.messages import OpType
from repro.namespace.treegen import GeneratedTree
from repro.sim import AllOf, Environment


@dataclass
class MicroResult:
    """Aggregate outcome of one microbenchmark run."""

    op: OpType
    clients: int
    total_ops: int
    duration_ms: float
    errors: int

    @property
    def throughput(self) -> float:
        """Aggregate ops/sec."""
        if self.duration_ms <= 0:
            return 0.0
        return self.total_ops * 1_000.0 / self.duration_ms


class MicroBenchmark:
    """Runs ``ops_per_client`` operations of one type on each client."""

    def __init__(
        self,
        env: Environment,
        tree: GeneratedTree,
        seed: int = 0,
    ) -> None:
        self.env = env
        self.tree = tree
        self.seed = seed

    def run(
        self,
        clients: Sequence,
        op: OpType,
        ops_per_client: int,
        warmup_per_client: int = 0,
    ) -> Generator:
        """Execute the benchmark; returns a :class:`MicroResult`.

        ``warmup_per_client`` operations run first and are excluded
        from the result — the paper's benchmark utility runs repeated
        trials, so reported numbers reflect a warmed system (TCP
        connections established, fleet scaled out, caches populated).
        """
        if warmup_per_client:
            warm_procs = [
                self.env.process(
                    self._client_loop(client, index, op, warmup_per_client, [0], "w")
                )
                for index, client in enumerate(clients)
            ]
            yield AllOf(self.env, warm_procs)
        errors = [0]
        start = self.env.now
        processes = [
            self.env.process(
                self._client_loop(client, index, op, ops_per_client, errors, "m")
            )
            for index, client in enumerate(clients)
        ]
        yield AllOf(self.env, processes)
        return MicroResult(
            op=op,
            clients=len(clients),
            total_ops=len(clients) * ops_per_client,
            duration_ms=self.env.now - start,
            errors=errors[0],
        )

    def _client_loop(
        self,
        client,
        index: int,
        op: OpType,
        ops_per_client: int,
        errors: List[int],
        phase: str = "m",
    ) -> Generator:
        for target in self._targets(op, index, ops_per_client, phase):
            response = yield from client.execute(op, target)
            if not response.ok:
                errors[0] += 1

    def _targets(
        self, op: OpType, index: int, ops_per_client: int, phase: str
    ) -> List[str]:
        """The loop's targets, in op order.  Drawn all at once so the
        loop's 2.5 KB Mersenne Twister is freed before the first op
        instead of living as long as the loop."""
        rng = random.Random(f"{self.seed}:{index}:{op.value}:{phase}")
        return [
            self._target(op, rng, index, serial, phase)
            for serial in range(ops_per_client)
        ]

    def _target(
        self, op: OpType, rng: random.Random, index: int, serial: int, phase: str
    ) -> str:
        if op in (OpType.READ_FILE, OpType.STAT):
            return rng.choice(self.tree.files)
        if op is OpType.LS:
            return rng.choice(self.tree.directories)
        if op is OpType.CREATE_FILE:
            return f"{rng.choice(self.tree.directories)}/u{phase}{index}_{serial}"
        if op is OpType.MKDIRS:
            return f"{rng.choice(self.tree.directories)}/ud{phase}{index}_{serial}"
        raise ValueError(f"unsupported microbenchmark op {op}")
