"""The Spotify industrial workload (§5.2).

Generated from the statistics of Spotify's 1600-node HDFS cluster
traces, as in HopsFS' evaluation.  Table 2 gives the operation mix
(95.23 % reads); the load level is re-drawn every 15 seconds from a
Pareto distribution with shape α = 2 and scale ``x_t`` (the base
throughput), producing spikes of up to 7× the base.  Clients split
the cluster-wide target evenly; operations not completed within
their second roll over to the next, so an overloaded system visibly
"falls behind" exactly as HopsFS does in Figure 8.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Generator, List, Sequence

from repro.core.messages import OpType
from repro.namespace.treegen import GeneratedTree
from repro.sim import AllOf, Environment

SPOTIFY_MIX: Dict[OpType, float] = {
    OpType.CREATE_FILE: 0.027,
    OpType.MKDIRS: 0.0002,
    OpType.DELETE: 0.0075,
    OpType.MV: 0.013,
    OpType.READ_FILE: 0.6922,
    OpType.STAT: 0.17,
    OpType.LS: 0.0901,
}
"""Relative operation frequencies from Table 2."""

PARETO_ALPHA = 2.0
"""Shape of the Pareto load draw."""

SPIKE_CAP = 7.0
"""Spikes reach at most this multiple of the base throughput."""


@dataclass(frozen=True)
class SpotifyConfig:
    base_throughput: float = 25_000.0
    """The Pareto scale parameter x_t (cluster-wide ops/sec)."""
    duration_ms: float = 300_000.0
    interval_ms: float = 15_000.0
    seed: int = 0


class SpotifyWorkload:
    """Drives a fleet of clients at the bursty target rate."""

    def __init__(
        self,
        env: Environment,
        config: SpotifyConfig,
        tree: GeneratedTree,
    ) -> None:
        self.env = env
        self.config = config
        self.tree = tree
        self._rng = random.Random(config.seed)
        self.schedule: List[float] = self._draw_schedule()
        self.issued = 0
        self.completed = 0
        self.failed = 0

    def _draw_schedule(self) -> List[float]:
        """Cluster-wide ops/sec target for each 15 s interval."""
        intervals = max(1, int(self.config.duration_ms // self.config.interval_ms))
        cap = SPIKE_CAP * self.config.base_throughput
        schedule = []
        for _ in range(intervals):
            draw = self._rng.paretovariate(PARETO_ALPHA)
            schedule.append(min(self.config.base_throughput * draw, cap))
        return schedule

    def target_at(self, time_ms: float) -> float:
        index = min(
            int(time_ms // self.config.interval_ms), len(self.schedule) - 1
        )
        return self.schedule[index]

    # -- execution ----------------------------------------------------
    def run(self, clients: Sequence) -> Generator:
        """Run the workload to completion across ``clients``."""
        processes = [
            self.env.process(self._client_loop(client, index, len(clients)))
            for index, client in enumerate(clients)
        ]
        yield AllOf(self.env, processes)

    def _client_loop(self, client, index: int, total_clients: int) -> Generator:
        env = self.env
        rng = random.Random(f"{self.config.seed}:{index}:client")
        owed = 0.0
        created: List[str] = []
        serial = 0
        start = env.now
        deadline = start + self.config.duration_ms
        second = 0
        while env.now < deadline:
            second_start = start + second * 1_000.0
            owed += self.target_at(second_start - start) / total_clients
            # Closed loop: issue operations back-to-back until this
            # second's share is done or the second ends.
            while owed >= 1.0 and env.now < second_start + 1_000.0:
                owed -= 1.0
                serial += 1
                self.issued += 1
                ok = yield from self._one_op(client, rng, index, serial, created)
                self.completed += 1
                if not ok:
                    self.failed += 1
            # Unfinished operations roll over via ``owed``.
            second += 1
            next_second = start + second * 1_000.0
            if env.now < next_second:
                yield env.timeout(next_second - env.now)

    def _one_op(self, client, rng, index: int, serial: int, created: List[str]) -> Generator:
        op = self._draw_op(rng)
        if op is OpType.CREATE_FILE:
            path = f"{rng.choice(self.tree.directories)}/c{index}_{serial}"
            response = yield from client.create_file(path)
            if response.ok:
                created.append(path)
        elif op is OpType.MKDIRS:
            path = f"{rng.choice(self.tree.directories)}/m{index}_{serial}"
            response = yield from client.mkdirs(path)
        elif op is OpType.DELETE:
            if created:
                response = yield from client.delete(created.pop())
            else:
                response = yield from client.stat(rng.choice(self.tree.files))
        elif op is OpType.MV:
            if created:
                src = created.pop()
                dst = f"{src}_mv{serial}"
                response = yield from client.mv(src, dst)
                if response.ok:
                    created.append(dst)
            else:
                response = yield from client.stat(rng.choice(self.tree.files))
        elif op is OpType.READ_FILE:
            response = yield from client.read_file(rng.choice(self.tree.files))
        elif op is OpType.STAT:
            response = yield from client.stat(rng.choice(self.tree.files))
        else:  # LS
            response = yield from client.ls(rng.choice(self.tree.directories))
        return response.ok

    def _draw_op(self, rng: random.Random) -> OpType:
        draw = rng.random() * sum(SPOTIFY_MIX.values())
        for op, weight in SPOTIFY_MIX.items():
            draw -= weight
            if draw <= 0:
                return op
        return OpType.READ_FILE
