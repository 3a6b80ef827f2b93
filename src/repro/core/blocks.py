"""Block management: allocation, placement, and report reconciliation.

HDFS files are sequences of replicated blocks; the NameNode maps
block ids to the DataNodes holding replicas.  In λFS this state is
derived from the persistent store instead of in-NameNode soft state:
placement is a deterministic rendezvous over the DataNodes that are
currently publishing reports (§3.6, Fig. 2 "Block Operations"), so
any NameNode instance — fresh or warm — computes the same locations
without holding DataNode connections.

Rack awareness: when the caller knows each DataNode's rack,
:func:`rack_aware_place` spreads replicas across racks (HDFS's
write-one-rack-survives-a-rack-loss policy) while staying layered on
the same rendezvous ranking, so placements remain deterministic in
(block id, live DataNode set) and minimally disturbed by membership
changes.  The NameNode places rack-aware whenever every published
report carries a rack (the DataNode fleet's rows do), so while both
see the same live set a READ_FILE reports the replicas the fleet
writes to; rack-less rows keep plain rendezvous placement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro._util import stable_hash


@dataclass(frozen=True)
class BlockPlacementConfig:
    replication: int = 3
    blocks_per_file: int = 1
    """New files get this many initial blocks (HDFS allocates on
    write; metadata benchmarks create empty-ish files)."""


def rendezvous_rank(block_id: int, datanodes: Sequence[str]) -> List[str]:
    """DataNodes ordered by rendezvous hash for ``block_id``."""
    return sorted(datanodes, key=lambda dn: stable_hash((block_id, dn)))


def rack_aware_place(
    block_id: int,
    racks: Mapping[str, str],
    replication: int,
) -> List[str]:
    """Replica targets for ``block_id`` over rack-labelled DataNodes.

    Two passes over the rendezvous ranking: first take at most one
    DataNode per rack (rack spread), then fill any remaining slots in
    rank order.  With ≥2 live racks and ``replication`` ≥ 2 the result
    always spans min(replication, live racks) distinct racks, and a
    single membership change moves at most one replica (the rendezvous
    minimal-disruption property survives the rack constraint).
    """
    ranked = rendezvous_rank(block_id, list(racks))
    want = min(replication, len(ranked))
    chosen: List[str] = []
    used_racks = set()
    for dn in ranked:
        if racks[dn] not in used_racks:
            chosen.append(dn)
            used_racks.add(racks[dn])
            if len(chosen) == want:
                return chosen
    for dn in ranked:
        if dn not in chosen:
            chosen.append(dn)
            if len(chosen) == want:
                break
    return chosen


class BlockManager:
    """Allocates block ids and computes replica placement.

    The id counter is explicit, per-manager state: it starts at
    ``first_id`` and is exposed via :meth:`snapshot`/:meth:`restore`
    so replayed runs resume exactly where they left off, and two
    managers coexisting in one simulation can be given disjoint id
    spaces instead of silently colliding.
    """

    def __init__(
        self,
        config: BlockPlacementConfig | None = None,
        first_id: int = 1,
    ) -> None:
        if first_id < 1:
            raise ValueError("first_id must be >= 1")
        self.config = config or BlockPlacementConfig()
        self._next_id = int(first_id)

    def allocate(self) -> Tuple[int, ...]:
        """Block ids for one new file."""
        start = self._next_id
        self._next_id = start + self.config.blocks_per_file
        return tuple(range(start, self._next_id))

    # -- counter state (seeded/replayable) ----------------------------
    def snapshot(self) -> int:
        """The next id this manager would allocate (replay state)."""
        return self._next_id

    def restore(self, state: int) -> None:
        """Rewind/advance the counter to a :meth:`snapshot` value."""
        if int(state) < 1:
            raise ValueError("snapshot state must be >= 1")
        self._next_id = int(state)

    def place(
        self,
        block_id: int,
        datanodes: Sequence[str],
        racks: Optional[Mapping[str, str]] = None,
    ) -> List[str]:
        """Replica DataNodes for ``block_id`` (rendezvous hashing).

        Deterministic in (block id, live DataNode set): every
        NameNode instance computes identical placements from the
        published reports, with no coordination.  With ``racks``
        (DataNode id → rack label) the placement is additionally
        rack-spread via :func:`rack_aware_place`.
        """
        if racks is not None:
            live = {dn: racks[dn] for dn in datanodes if dn in racks}
            return rack_aware_place(block_id, live, self.config.replication)
        if not datanodes:
            return []
        ranked = rendezvous_rank(block_id, datanodes)
        return ranked[: min(self.config.replication, len(ranked))]

    def locations(
        self,
        block_ids: Sequence[int],
        datanodes: Sequence[str],
        racks: Optional[Mapping[str, str]] = None,
    ) -> Dict[int, List[str]]:
        """Placement map for a whole file."""
        return {
            block_id: self.place(block_id, datanodes, racks)
            for block_id in block_ids
        }

    def reconcile(
        self,
        block_ids: Sequence[int],
        reported: Dict[str, int],
        datanodes: Sequence[str],
    ) -> Dict[int, List[str]]:
        """Filter placements to DataNodes whose reports are live.

        ``reported`` maps DataNode id to its latest report count; a
        DataNode missing from it is treated as dead and dropped from
        placements (the block-map consistency role of block reports).
        """
        live = [dn for dn in datanodes if dn in reported]
        return self.locations(block_ids, live)
