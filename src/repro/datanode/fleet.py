"""The DataNode fleet facade: nodes, tracker, scanner, and wiring.

:class:`DataNodeFleet` owns the whole data plane for a simulation:
the rack-labelled :class:`~repro.datanode.node.DataNode` actors, the
:class:`~repro.datanode.tracker.HeartbeatTracker` liveness view, the
:class:`~repro.datanode.scanner.ReplicationScanner`, and the
block→holders map that pipelines and repairs both update.

Determinism contract: **constructing** a fleet schedules no events
and draws no randomness from any shared stream (it has its own
``RngStreams(seed).stream("datanode")``); only :meth:`start` spawns
processes.  An attached-but-idle fleet therefore leaves a run's
event hash byte-identical — the property the kernel golden
regression pins.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional, Sequence, Set

from repro.core.blocks import rack_aware_place
from repro.core.maintenance import BlockReport
from repro.datanode.node import DataNode, DataNodeFleetConfig
from repro.datanode.pipeline import write_pipeline
from repro.datanode.scanner import ReplicationScanner
from repro.datanode.tracker import HeartbeatTracker
from repro.sim import Environment
from repro.sim.rng import RngStreams


class DataNodeFleet:
    """All DataNode actors of one simulation, plus their control loops."""

    def __init__(
        self,
        env: Environment,
        config: DataNodeFleetConfig | None = None,
        seed: int = 0,
        store: Any = None,
    ) -> None:
        self.env = env
        self.config = config or DataNodeFleetConfig()
        self.store = store
        self.rng = RngStreams(seed).stream("datanode")
        self.nodes: List[DataNode] = [
            DataNode(self, f"dn{index}", f"rack{index % max(1, self.config.racks)}")
            for index in range(self.config.count)
        ]
        self._by_id: Dict[str, DataNode] = {dn.id: dn for dn in self.nodes}
        self.tracker = HeartbeatTracker(self)
        self.scanner = ReplicationScanner(self)
        #: block id → DataNode ids holding a replica (durable writes
        #: and completed repairs both land here).
        self.blocks: Dict[int, Set[str]] = {}
        self.repair_enabled = bool(self.config.repair_enabled)
        self.started = False
        self.reports_published = 0

    # -- lookups -------------------------------------------------------
    def node(self, node_id: str) -> Optional[DataNode]:
        return self._by_id.get(node_id)

    def racks_map(self, node_ids: Optional[Sequence[str]] = None) -> Dict[str, str]:
        """DataNode id → rack label, restricted to ``node_ids`` if given."""
        if node_ids is None:
            return {dn.id: dn.rack for dn in self.nodes}
        return {
            node_id: self._by_id[node_id].rack
            for node_id in node_ids
            if node_id in self._by_id
        }

    def live_node_ids(self) -> List[str]:
        """Nodes currently up (actor truth, not the tracker's view)."""
        return [dn.id for dn in self.nodes if dn.alive]

    def placement(self, block_id: int) -> List[str]:
        """Rack-aware replica targets over tracker-live nodes."""
        live = self.tracker.live()
        return rack_aware_place(
            block_id, self.racks_map(live), self.config.replication
        )

    # -- data path -----------------------------------------------------
    def client_write(
        self, block_id: int, actor: str, parent: Any = None
    ) -> Generator:
        """Write one chunk of ``block_id`` through a replica pipeline.

        Placement is computed at write time from the tracker's live
        view (dead nodes excluded); returns the DataNode ids that
        stored the replica.
        """
        targets = self.placement(block_id)
        if not targets:
            return []
        stored = yield from write_pipeline(
            self, block_id, targets, actor, parent=parent
        )
        return stored

    def register_replicas(self, block_id: int, node_ids: Sequence[str]) -> None:
        """Record durable replicas in the block map *and* on the node
        disks (kept consistent so a repair can always read from any
        registered holder)."""
        self.blocks.setdefault(block_id, set()).update(node_ids)
        for node_id in node_ids:
            node = self._by_id.get(node_id)
            if node is not None:
                node.replicas.add(block_id)

    # -- fault surface (used by chaos faults and tests) ----------------
    def kill(self, node_id: str) -> None:
        node = self._by_id[node_id]
        node.kill()

    def restart(self, node_id: str) -> None:
        node = self._by_id[node_id]
        node.restart()

    # -- lifecycle -----------------------------------------------------
    def start(self) -> None:
        """Spawn heartbeat/scan/publish processes (idempotent)."""
        if self.started:
            return
        self.started = True
        for dn in self.nodes:
            self.env.process(dn.heartbeat_loop())
        self.env.process(self.tracker.scan_loop())
        self.env.process(self.scanner.scan_loop())
        if self.store is not None and self.config.publish_interval_ms > 0:
            for dn in self.nodes:
                self.env.process(self._publish_loop(dn))
        metrics = self.env.metrics
        if metrics is not None:
            metrics.register_gauge(
                "dn_live",
                lambda: float(len(self.tracker.live())),
                help="DataNodes the tracker currently considers alive",
            )
            metrics.register_gauge(
                "dn_underreplicated",
                lambda: float(len(self.scanner.under_replicated())),
                help="Blocks below target replication factor right now",
            )
            metrics.register_gauge(
                "dn_lost_blocks",
                lambda: float(len(self.scanner.lost)),
                help="Blocks with zero live replicas",
            )

    def _publish_loop(self, dn: DataNode) -> Generator:
        """Publish this node's block report into the metadata store.

        Same row shape as the legacy ``DataNodeService`` (the
        serverless heartbeat substitute, §1/§3): NameNodes derive
        their DataNode view from these rows.  A dead node stops
        publishing, so its row goes stale and the NameNode's
        staleness filter drops it from metadata placement.
        """
        interval = self.config.publish_interval_ms
        while True:
            if dn.alive:
                report = BlockReport(
                    datanode_id=dn.id,
                    published_at_ms=self.env.now,
                    block_count=len(dn.replicas),
                    healthy=True,
                    rack=dn.rack,
                )

                def body(txn, row=report):
                    yield from txn.write(("datanode", row.datanode_id), row)

                yield from self.store.run_transaction(body)
                self.reports_published += 1
            yield self.env.timeout(interval)
