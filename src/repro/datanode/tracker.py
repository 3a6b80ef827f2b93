"""Heartbeat-driven liveness tracking for the DataNode fleet.

The tracker is the NameNode-side view of which DataNodes are alive:
each node's heartbeat loop calls :meth:`HeartbeatTracker.record`;
a periodic scan declares any node that has missed
``MISS_THRESHOLD`` consecutive beats dead and excludes it from
placement until a fresh beat arrives.  State transitions are logged
as ``dn.dead`` / ``dn.alive`` tracer points and counted in
telemetry, so a chaos run's liveness timeline is reconstructable
from the trace alone.

A node that flaps — dies and restarts inside one miss window — is
never observed as dead: the restart resumes beats before the
cutoff, which is the behaviour the flapping-node edge-case test
pins down.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Generator, List, Set

from repro.datanode.node import HEARTBEAT_INTERVAL_MS

if TYPE_CHECKING:  # pragma: no cover
    from repro.datanode.fleet import DataNodeFleet

#: Heartbeats missed before the tracker declares a node dead
#: (liveness cutoff = ``MISS_THRESHOLD × HEARTBEAT_INTERVAL_MS``).
MISS_THRESHOLD = 3

#: Tracker liveness scan and re-replication scan cadence.
SCAN_INTERVAL_MS = 500.0


class HeartbeatTracker:
    """Miss-threshold liveness state machine over heartbeat times."""

    def __init__(self, fleet: "DataNodeFleet") -> None:
        self.fleet = fleet
        self.env = fleet.env
        self.cutoff_ms = MISS_THRESHOLD * HEARTBEAT_INTERVAL_MS
        #: Last beat per node; nodes start implicitly alive at t=0.
        self.last_beat_ms: Dict[str, float] = {dn.id: 0.0 for dn in fleet.nodes}
        self._dead: Set[str] = set()
        self.deaths = 0
        self.revivals = 0

    # -- beat ingestion ------------------------------------------------
    def record(self, node_id: str) -> None:
        """Note a heartbeat; a beat from a dead-marked node revives it."""
        self.last_beat_ms[node_id] = self.env.now
        if node_id in self._dead:
            self._dead.discard(node_id)
            self.revivals += 1
            tracer = self.env.tracer
            if tracer is not None:
                tracer.point("dn.alive", node_id)
            metrics = self.env.metrics
            if metrics is not None:
                metrics.inc("dn_revivals_total")

    # -- liveness queries ----------------------------------------------
    def live(self) -> List[str]:
        """Sorted ids of nodes currently considered alive."""
        return sorted(
            node_id for node_id in self.last_beat_ms if node_id not in self._dead
        )

    def dead(self) -> List[str]:
        return sorted(self._dead)

    # -- the scan ------------------------------------------------------
    def scan_once(self) -> List[str]:
        """Mark overdue nodes dead; returns ids newly declared dead."""
        now = self.env.now
        newly_dead: List[str] = []
        for node_id, beat_ms in self.last_beat_ms.items():
            if node_id in self._dead:
                continue
            if now - beat_ms > self.cutoff_ms:
                self._dead.add(node_id)
                self.deaths += 1
                newly_dead.append(node_id)
        if newly_dead:
            tracer = self.env.tracer
            metrics = self.env.metrics
            for node_id in newly_dead:
                if tracer is not None:
                    tracer.point("dn.dead", node_id, cutoff_ms=self.cutoff_ms)
                if metrics is not None:
                    metrics.inc("dn_deaths_total")
        return newly_dead

    def scan_loop(self) -> Generator:
        """Periodic liveness scan (one fleet-wide process)."""
        while True:
            yield self.env.timeout(SCAN_INTERVAL_MS)
            newly_dead = self.scan_once()
            if newly_dead and self.fleet.scanner is not None:
                self.fleet.scanner.note_membership_change()
