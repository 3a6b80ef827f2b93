"""Unit tests for block allocation and placement."""

import pytest

from repro.core.blocks import BlockManager, BlockPlacementConfig, rack_aware_place


def test_allocate_unique_ids():
    manager = BlockManager(BlockPlacementConfig(blocks_per_file=2))
    a = manager.allocate()
    b = manager.allocate()
    assert len(a) == 2
    assert set(a).isdisjoint(b)


def test_place_respects_replication():
    manager = BlockManager(BlockPlacementConfig(replication=3))
    datanodes = [f"dn{i}" for i in range(6)]
    replicas = manager.place(42, datanodes)
    assert len(replicas) == 3
    assert len(set(replicas)) == 3
    assert set(replicas) <= set(datanodes)


def test_place_with_fewer_datanodes_than_replication():
    manager = BlockManager(BlockPlacementConfig(replication=3))
    assert manager.place(1, ["dn0"]) == ["dn0"]
    assert manager.place(1, []) == []


def test_placement_is_deterministic():
    manager = BlockManager()
    datanodes = ["dn0", "dn1", "dn2", "dn3"]
    assert manager.place(7, datanodes) == manager.place(7, datanodes)
    # Order of the input list must not matter (rendezvous hashing).
    assert manager.place(7, list(reversed(datanodes))) == manager.place(7, datanodes)


def test_placement_spreads_blocks():
    manager = BlockManager(BlockPlacementConfig(replication=1))
    datanodes = [f"dn{i}" for i in range(4)]
    primaries = {manager.place(block, datanodes)[0] for block in range(64)}
    assert len(primaries) == 4  # every DataNode is someone's primary


def test_placement_stable_under_datanode_loss():
    """Rendezvous property: removing one DataNode only moves blocks
    that lived on it."""
    manager = BlockManager(BlockPlacementConfig(replication=1))
    datanodes = [f"dn{i}" for i in range(5)]
    before = {block: manager.place(block, datanodes)[0] for block in range(200)}
    survivors = [dn for dn in datanodes if dn != "dn2"]
    for block, owner in before.items():
        after = manager.place(block, survivors)[0]
        if owner != "dn2":
            assert after == owner


def test_two_managers_do_not_share_a_counter():
    """Regression: the id counter is per-manager state, not process
    state — two managers in one sim must be able to run disjoint id
    spaces instead of interleaving."""
    a = BlockManager(BlockPlacementConfig(blocks_per_file=1))
    b = BlockManager(BlockPlacementConfig(blocks_per_file=1), first_id=1_000)
    assert a.allocate() == (1,)
    assert b.allocate() == (1_000,)
    assert a.allocate() == (2,)  # b's allocation did not advance a
    assert b.allocate() == (1_001,)


def test_counter_validation():
    with pytest.raises(ValueError):
        BlockManager(first_id=0)


def test_rack_aware_place_spreads_racks():
    racks = {f"dn{i}": f"rack{i % 3}" for i in range(9)}
    for block in range(32):
        placed = rack_aware_place(block, racks, 3)
        assert len(placed) == 3
        assert len({racks[dn] for dn in placed}) == 3


def test_rack_aware_place_falls_back_within_one_rack():
    racks = {"dn0": "rack0", "dn1": "rack0", "dn2": "rack0"}
    placed = rack_aware_place(5, racks, 3)
    assert sorted(placed) == ["dn0", "dn1", "dn2"]


def test_place_with_racks_filters_to_known_nodes():
    manager = BlockManager(BlockPlacementConfig(replication=2))
    racks = {"dn0": "rack0", "dn1": "rack1"}
    placed = manager.place(9, ["dn0", "dn1", "dn9"], racks=racks)
    assert set(placed) == {"dn0", "dn1"}


def test_locations_maps_all_blocks():
    manager = BlockManager()
    datanodes = ["dn0", "dn1", "dn2"]
    table = manager.locations((10, 11), datanodes)
    assert set(table) == {10, 11}
    assert all(replicas for replicas in table.values())


def test_created_files_get_blocks():
    from repro.core import LambdaFS
    from repro.sim import Environment

    env = Environment()
    fs = LambdaFS(env)
    fs.format()
    fs.start()
    client = fs.new_client()
    box = {}

    def main(env):
        yield from client.mkdirs("/d")
        yield from client.create_file("/d/f")
        yield env.timeout(4_000)  # let DataNodes publish reports
        box["r"] = yield from client.read_file("/d/f")

    done = env.process(main(env))
    env.run(until=done)
    view = box["r"].value
    assert view["inode"].block_ids
    assert view["blocks"]
    for replicas in view["blocks"].values():
        assert 1 <= len(replicas) <= 3
