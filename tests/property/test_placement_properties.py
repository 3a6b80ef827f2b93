"""Property-based tests for rendezvous + rack-aware block placement."""

from unittest.mock import patch

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import blocks
from repro.core.blocks import BlockManager, rack_aware_place, rendezvous_rank

node_ids = st.lists(
    st.integers(0, 40).map(lambda i: f"dn{i}"),
    min_size=1, max_size=12, unique=True,
)
block_ids = st.integers(1, 10_000)
replication = st.integers(1, 4)


@settings(max_examples=200)
@given(block_ids, node_ids, replication)
def test_placement_never_duplicates(block_id, datanodes, rf):
    with patch.object(blocks, "REPLICATION", rf):
        placed = BlockManager().place(block_id, datanodes)
    assert len(placed) == len(set(placed))
    assert len(placed) == min(rf, len(datanodes))
    assert set(placed) <= set(datanodes)


@settings(max_examples=200)
@given(block_ids, node_ids, replication)
def test_placement_stable_under_node_growth(block_id, datanodes, rf):
    """Adding one DataNode moves at most the minimal replica set.

    Rendezvous hashing's minimal-disruption property: the new node
    either takes one slot (displacing exactly one incumbent) or
    changes nothing — the surviving incumbents keep their copies, so
    a cluster expansion re-replicates at most one replica per block.
    """
    new_node = f"dn{len(datanodes) + 100}"
    with patch.object(blocks, "REPLICATION", rf):
        manager = BlockManager()
        before = set(manager.place(block_id, datanodes))
        after = set(manager.place(block_id, datanodes + [new_node]))
    # Nothing moves between incumbents: every change involves new_node.
    assert before - after <= before  # sanity
    assert after - before <= {new_node}
    assert len(before - after) <= 1
    if new_node not in after:
        assert after == before


@settings(max_examples=200)
@given(block_ids, node_ids, st.integers(2, 4), st.integers(2, 4))
def test_rack_spread_with_two_or_more_racks(block_id, datanodes, rf, nracks):
    """With ≥2 live racks, replicas span min(rf, racks) distinct racks."""
    racks = {dn: f"rack{i % nracks}" for i, dn in enumerate(datanodes)}
    live_racks = set(racks.values())
    placed = rack_aware_place(block_id, racks, rf)
    assert len(placed) == len(set(placed))
    assert len(placed) == min(rf, len(datanodes))
    spanned = {racks[dn] for dn in placed}
    assert len(spanned) == min(rf, len(live_racks), len(placed))


@settings(max_examples=200)
@given(block_ids, node_ids, st.integers(2, 4), st.integers(2, 4))
def test_rack_aware_growth_is_minimally_disruptive(
    block_id, datanodes, rf, nracks
):
    """The rack constraint preserves minimal disruption on growth."""
    racks = {dn: f"rack{i % nracks}" for i, dn in enumerate(datanodes)}
    before = set(rack_aware_place(block_id, racks, rf))
    new_node = f"dn{len(datanodes) + 100}"
    grown = dict(racks)
    grown[new_node] = f"rack{len(datanodes) % nracks}"
    after = set(rack_aware_place(block_id, grown, rf))
    assert after - before <= {new_node}
    assert len(before - after) <= 1


@settings(max_examples=100)
@given(block_ids, node_ids)
def test_rendezvous_rank_is_a_permutation(block_id, datanodes):
    ranked = rendezvous_rank(block_id, datanodes)
    assert sorted(ranked) == sorted(datanodes)
