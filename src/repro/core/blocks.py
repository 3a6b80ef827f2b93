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

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro._util import stable_hash


REPLICATION = 3
#: New files get this many initial blocks (HDFS allocates on write;
#: metadata benchmarks create empty-ish files).
BLOCKS_PER_FILE = 1


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

    The id counter is explicit, per-manager state starting at 1, so
    two managers coexisting in one simulation never advance each
    other's counter.
    """

    def __init__(self) -> None:
        self._next_id = 1

    def allocate(self) -> Tuple[int, ...]:
        """Block ids for one new file."""
        start = self._next_id
        self._next_id = start + BLOCKS_PER_FILE
        return tuple(range(start, self._next_id))

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
            return rack_aware_place(block_id, live, REPLICATION)
        if not datanodes:
            return []
        ranked = rendezvous_rank(block_id, datanodes)
        return ranked[: min(REPLICATION, len(ranked))]

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
