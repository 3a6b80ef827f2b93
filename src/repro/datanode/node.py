"""One simulated DataNode: disk, heartbeats, and chunk storage.

A :class:`DataNode` is a DES actor owned by a
:class:`~repro.datanode.fleet.DataNodeFleet`.  Its disk state (the
set of block replicas it holds) survives a :meth:`kill` — a killed
node is unreachable, not wiped — so a node that :meth:`restart`\\ s
rejoins with its replicas intact, exactly like an HDFS DataNode
coming back after a reboot.

The heartbeat loop ticks for the node's whole life; a dead node
simply stops *recording* beats at the tracker.  Restart therefore
needs no process respawn (which would perturb event ids), keeping
flapping nodes cheap and deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Generator, Set

if TYPE_CHECKING:  # pragma: no cover
    from repro.datanode.fleet import DataNodeFleet

HEARTBEAT_INTERVAL_MS = 500.0

#: Disk service time per chunk write (a read takes half), plus a
#: seeded jitter draw of up to ``DISK_JITTER_MS`` on writes.
DISK_MS_PER_CHUNK = 2.5
DISK_JITTER_MS = 0.5

#: Nodes are assigned round-robin to ``rack0..rack{RACKS-1}``.
RACKS = 3
REPLICATION = 3
#: Block-report publishing cadence into the metadata store (the
#: serverless heartbeat substitute of §1/Fig. 2).
PUBLISH_INTERVAL_MS = 3_000.0


@dataclass(frozen=True)
class DataNodeFleetConfig:
    """Shape and timing of the DataNode fleet."""

    count: int = 9
    repair_enabled: bool = True
    """Background re-replication on by default; the chaos
    ``datanode_kill`` fault's ``disable_repair`` param switches it off
    for the deliberately broken expected-FAIL path."""


class DataNode:
    """One DataNode actor: rack-labelled disk plus a heartbeat loop."""

    def __init__(self, fleet: "DataNodeFleet", node_id: str, rack: str) -> None:
        self.fleet = fleet
        self.env = fleet.env
        self.id = node_id
        self.rack = rack
        self.alive = True
        #: Block replicas on this node's disk (survives kill/restart).
        self.replicas: Set[int] = set()
        self.chunks_written = 0
        self.kills = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "alive" if self.alive else "dead"
        return f"<DataNode {self.id} {self.rack} {state} blocks={len(self.replicas)}>"

    # -- fault surface -------------------------------------------------
    def kill(self) -> None:
        """Crash the node: heartbeats stop, replicas become unreachable."""
        if not self.alive:
            return
        self.alive = False
        self.kills += 1
        tracer = self.env.tracer
        if tracer is not None:
            tracer.point("dn.kill", self.id, rack=self.rack)
        metrics = self.env.metrics
        if metrics is not None:
            metrics.inc("dn_kills_total", rack=self.rack)

    def restart(self) -> None:
        """Bring the node back with its disk intact."""
        if self.alive:
            return
        self.alive = True
        tracer = self.env.tracer
        if tracer is not None:
            tracer.point("dn.restart", self.id, rack=self.rack)
        # The next heartbeat tick re-records the node at the tracker;
        # a restart inside one miss window is therefore never observed
        # as a death (the flap case).

    # -- storage -------------------------------------------------------
    def write_chunk(self, block_id: int) -> Generator:
        """Persist one chunk; returns False if the node died mid-write.

        Disk service time is the per-chunk cost plus a
        jitter draw from the fleet's seeded stream, multiplied by any
        active ``disk_slow`` chaos factor.
        """
        service = DISK_MS_PER_CHUNK + self.fleet.rng.uniform(0.0, DISK_JITTER_MS)
        chaos = self.env.chaos
        if chaos is not None:
            service *= chaos.datanode_disk_factor(self.id, self.rack)
        yield self.env.timeout(service)
        if not self.alive:
            return False
        self.replicas.add(block_id)
        self.chunks_written += 1
        return True

    def read_chunk(self, block_id: int) -> Generator:
        """Read one chunk off disk (re-replication source side)."""
        service = DISK_MS_PER_CHUNK / 2.0
        chaos = self.env.chaos
        if chaos is not None:
            service *= chaos.datanode_disk_factor(self.id, self.rack)
        yield self.env.timeout(service)
        return self.alive and block_id in self.replicas

    # -- heartbeats ----------------------------------------------------
    def heartbeat_loop(self) -> Generator:
        """Tick forever; record a beat at the tracker only while alive."""
        interval = HEARTBEAT_INTERVAL_MS
        metrics = self.env.metrics
        while True:
            yield self.env.timeout(interval)
            if self.alive:
                self.fleet.tracker.record(self.id)
                if metrics is not None:
                    metrics.inc("dn_heartbeats_total", rack=self.rack)
