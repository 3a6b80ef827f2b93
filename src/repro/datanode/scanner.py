"""Background re-replication: restore replication factor after loss.

The scanner periodically walks the fleet's block→holders map,
intersects each holder set with the tracker's live view, and copies
any under-replicated block from a surviving replica to a fresh
DataNode (chosen deterministically by rendezvous rank over the live
non-holders, so same-seed runs repair identically).  Each completed
repair is recorded as a :class:`RepairRecord` with its detection and
restore times — the raw material for the verifier's
replication-restored-within-SLO predicate and for the determinism
regression that pins same-seed recovery timelines.

Blocks with *zero* live holders are unrepairable and tracked in
:attr:`ReplicationScanner.lost`; the verifier surfaces those as a
hard FAIL rather than a silent empty placement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Generator, List, Set

from repro.core.blocks import rendezvous_rank
from repro.datanode.node import REPLICATION
from repro.datanode.pipeline import NET_MS_PER_HOP
from repro.datanode.tracker import SCAN_INTERVAL_MS

if TYPE_CHECKING:  # pragma: no cover
    from repro.datanode.fleet import DataNodeFleet


@dataclass(frozen=True)
class RepairRecord:
    """One completed re-replication: when seen, when fixed, who to."""

    block_id: int
    detected_ms: float
    restored_ms: float
    source: str
    target: str


class ReplicationScanner:
    """Periodic under-replication scan + deterministic repair copies."""

    def __init__(self, fleet: "DataNodeFleet") -> None:
        self.fleet = fleet
        self.env = fleet.env
        self.records: List[RepairRecord] = []
        #: block id → sim-time the deficit was first observed.
        self.pending: Dict[int, float] = {}
        #: Blocks whose every replica is on a dead node right now.
        self.lost: Set[int] = set()
        self.scans = 0
        self.membership_changes = 0

    def note_membership_change(self) -> None:
        """Hint from the tracker that liveness changed (bookkeeping
        only — the periodic scan picks the deficit up on its next
        tick, which keeps repair timing independent of *when* in the
        scan interval a death was declared)."""
        self.membership_changes += 1

    # -- deficit analysis ---------------------------------------------
    def under_replicated(self) -> Dict[int, List[str]]:
        """block id → live holders, for blocks below target RF.

        Target RF is ``min(REPLICATION, live nodes)`` so a tiny
        surviving fleet is not condemned for being small.
        """
        fleet = self.fleet
        live = set(fleet.tracker.live())
        target_rf = min(REPLICATION, len(live))
        deficits: Dict[int, List[str]] = {}
        for block_id, holders in fleet.blocks.items():
            live_holders = sorted(holders & live)
            if len(live_holders) < target_rf:
                deficits[block_id] = live_holders
        return deficits

    # -- the scan ------------------------------------------------------
    def scan_loop(self) -> Generator:
        while True:
            yield self.env.timeout(SCAN_INTERVAL_MS)
            yield from self.scan_once()

    def scan_once(self) -> Generator:
        self.scans += 1
        fleet = self.fleet
        deficits = self.under_replicated()
        now = self.env.now
        # Lost set tracks the zero-live-holder subset; a flapped node
        # coming back can shrink it again.
        self.lost = {bid for bid, holders in deficits.items() if not holders}
        for block_id in list(self.pending):
            if block_id not in deficits:
                del self.pending[block_id]
        for block_id in deficits:
            self.pending.setdefault(block_id, now)
        metrics = self.env.metrics
        if metrics is not None and deficits:
            metrics.inc("dn_underreplicated_seen_total", amount=float(len(deficits)))
        if not fleet.repair_enabled:
            return
        live = fleet.tracker.live()
        for block_id in sorted(deficits):
            holders = deficits[block_id]
            if not holders:
                continue  # lost: nothing to copy from
            yield from self._repair(block_id, holders, live)

    def _repair(
        self, block_id: int, live_holders: List[str], live: List[str]
    ) -> Generator:
        """Copy one replica from a live holder to a fresh live node."""
        fleet = self.fleet
        env = self.env
        candidates = [dn for dn in live if dn not in fleet.blocks[block_id]]
        if not candidates:
            return
        source = rendezvous_rank(block_id, live_holders)[0]
        target = rendezvous_rank(block_id, candidates)[0]
        tracer = env.tracer
        span = None
        if tracer is not None:
            span = tracer.begin(
                "dn.repair", target, block=block_id, source=source
            )
        src_node = fleet.node(source)
        dst_node = fleet.node(target)
        ok = yield from src_node.read_chunk(block_id)
        if ok:
            yield env.timeout(NET_MS_PER_HOP)
            ok = yield from dst_node.write_chunk(block_id)
        if ok:
            fleet.register_replicas(block_id, [target])
            detected = self.pending.get(block_id, env.now)
            self.records.append(
                RepairRecord(
                    block_id=block_id,
                    detected_ms=detected,
                    restored_ms=env.now,
                    source=source,
                    target=target,
                )
            )
            metrics = env.metrics
            if metrics is not None:
                metrics.inc("dn_repairs_total")
                metrics.observe("dn_repair_latency_ms", env.now - detected)
        if tracer is not None:
            tracer.end(span, ok=bool(ok))
