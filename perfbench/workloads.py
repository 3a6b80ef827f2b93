"""The three benchmark workloads: how each is set up and what its
timed window runs.

Why these three (see README.md): ``read-hot`` is the cache-hit TCP
read path, ``create-contended`` the store- and coherence-bound write
path, and ``spotify-burst`` the only one that makes the FaaS platform
autoscale, so each layer is busy on one workload and idle on another.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import Dict, List, Optional

from benchmath import target_ops
from repro.bench.experiments import DEFAULT_TREE
from repro.bench.harness import SystemHandle, build_lambdafs, drive
from repro.core import OpType
from repro.namespace.treegen import GeneratedTree, generate_tree
from repro.sim import Environment
from repro.workloads import MicroBenchmark, SpotifyConfig, SpotifyWorkload

READ_OPS = frozenset({OpType.READ_FILE.value, OpType.STAT.value, OpType.LS.value})
WRITE_OPS = frozenset({
    OpType.CREATE_FILE.value, OpType.MKDIRS.value, OpType.DELETE.value,
    OpType.MV.value,
})

#: fig8_spotify's NameNode sizing: 5 vCPUs and 6 GB per instance, and a
#: short idle grace so the fleet scales in between bursts.
SPOTIFY_FAAS = {
    "vcpus_per_instance": 5.0,
    "ram_gb_per_instance": 6.0,
    "idle_reclaim_ms": 8_000.0,
}


@dataclass(frozen=True)
class Workload:
    name: str
    clients: int
    deployments: int
    warmup_per_client: int
    """Closed-loop warm-up reads (or creates) per client before the window."""
    op: Optional[str] = None
    """The closed loop's one op type; None for the paced Spotify mix."""
    ops_per_client: int = 0
    base_throughput: float = 0.0
    interval_ms: float = 0.0
    window_ms: float = 0.0
    schedule_seed: int = 0
    """The Pareto burst schedule is part of the workload, not of the
    run's seed: a handful of heavy-tailed draws would otherwise make
    the offered load, and with it every sim-clock metric, differ by
    tens of percent between seeds.  The run's seed still drives the op
    mix, targets, client streams and the system."""
    faas_overrides: Optional[Dict[str, float]] = None

    def params(self) -> dict:
        return asdict(self)


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            name="read-hot", clients=1024, deployments=8,
            warmup_per_client=16, op=OpType.READ_FILE.name, ops_per_client=16,
        ),
        Workload(
            name="create-contended", clients=256, deployments=8,
            warmup_per_client=2, op=OpType.CREATE_FILE.name, ops_per_client=12,
        ),
        Workload(
            name="spotify-burst", clients=192, deployments=16,
            warmup_per_client=0, base_throughput=2_000.0,
            interval_ms=1_000.0, window_ms=3_000.0, schedule_seed=8,
            faas_overrides=SPOTIFY_FAAS,
        ),
    )
}


class AckRecorder:
    """Stands in for a client and keeps the paths whose creates were
    acknowledged, so they can be checked after the window."""

    def __init__(self, client, acked: List[str]) -> None:
        self.client = client
        self.acked = acked

    def execute(self, op, path, *args, **kwargs):
        response = yield from self.client.execute(op, path, *args, **kwargs)
        if response.ok and op is OpType.CREATE_FILE:
            self.acked.append(path)
        return response


@dataclass
class Run:
    """A built, warmed system ready for its timed window."""

    workload: Workload
    seed: int
    tree: GeneratedTree
    env: Environment
    handle: SystemHandle
    clients: list
    acked: List[str]
    target_ops: Optional[float] = None

    @property
    def fs(self):
        return self.handle.system

    def window(self) -> None:
        """Run the timed window to completion."""
        workload = self.workload
        if workload.op is not None:
            bench = MicroBenchmark(self.env, self.tree, seed=self.seed)
            clients = self.clients
            if workload.op == OpType.CREATE_FILE.name:
                clients = [AckRecorder(client, self.acked) for client in clients]
            drive(self.env, bench.run(
                clients, OpType[workload.op], workload.ops_per_client, 0,
            ))
            return
        config = SpotifyConfig(
            base_throughput=workload.base_throughput,
            duration_ms=workload.window_ms,
            interval_ms=workload.interval_ms,
            seed=self.seed,
        )
        paced = SpotifyWorkload(self.env, config, self.tree)
        paced.schedule = SpotifyWorkload(
            self.env, replace(config, seed=workload.schedule_seed), self.tree
        ).schedule
        self.target_ops = target_ops(paced.target_at, workload.window_ms)
        drive(self.env, paced.run(self.clients))

    def unacknowledged_creates(self) -> List[str]:
        """Acknowledged creates a later ``stat`` cannot see."""
        missing: List[str] = []
        client = self.clients[0]

        def check():
            for path in self.acked:
                response = yield from client.stat(path)
                if not response.ok:
                    missing.append(path)

        drive(self.env, check())
        return missing


def setup(workload: Workload, seed: int, profile: bool = False) -> Run:
    """Build the system, install the namespace, prewarm one NameNode
    per deployment and run the warm-up loop."""
    tree = generate_tree(DEFAULT_TREE)
    env = Environment()
    handle = build_lambdafs(
        env, tree, deployments=workload.deployments, seed=seed,
        faas_overrides=dict(workload.faas_overrides or {}), profile=profile,
    )
    clients = handle.make_clients(workload.clients)
    drive(env, handle.prewarm())
    warm_op = OpType[workload.op] if workload.op is not None else OpType.READ_FILE
    bench = MicroBenchmark(env, tree, seed=seed)
    drive(env, bench.run(clients, warm_op, 0, workload.warmup_per_client))
    return Run(workload, seed, tree, env, handle, clients, acked=[])
