"""Unit tests for block allocation and placement."""

from repro.core import blocks
from repro.core.blocks import BlockManager, rack_aware_place


def test_allocate_unique_ids(monkeypatch):
    monkeypatch.setattr(blocks, "BLOCKS_PER_FILE", 2)
    manager = BlockManager()
    a = manager.allocate()
    b = manager.allocate()
    assert len(a) == 2
    assert set(a).isdisjoint(b)


def test_place_respects_replication():
    manager = BlockManager()
    datanodes = [f"dn{i}" for i in range(6)]
    replicas = manager.place(42, datanodes)
    assert len(replicas) == 3
    assert len(set(replicas)) == 3
    assert set(replicas) <= set(datanodes)


def test_place_with_fewer_datanodes_than_replication():
    manager = BlockManager()
    assert manager.place(1, ["dn0"]) == ["dn0"]
    assert manager.place(1, []) == []


def test_placement_is_deterministic():
    manager = BlockManager()
    datanodes = ["dn0", "dn1", "dn2", "dn3"]
    assert manager.place(7, datanodes) == manager.place(7, datanodes)
    # Order of the input list must not matter (rendezvous hashing).
    assert manager.place(7, list(reversed(datanodes))) == manager.place(7, datanodes)


def test_placement_spreads_blocks(monkeypatch):
    monkeypatch.setattr(blocks, "REPLICATION", 1)
    manager = BlockManager()
    datanodes = [f"dn{i}" for i in range(4)]
    primaries = {manager.place(block, datanodes)[0] for block in range(64)}
    assert len(primaries) == 4  # every DataNode is someone's primary


def test_placement_stable_under_datanode_loss(monkeypatch):
    """Rendezvous property: removing one DataNode only moves blocks
    that lived on it."""
    monkeypatch.setattr(blocks, "REPLICATION", 1)
    manager = BlockManager()
    datanodes = [f"dn{i}" for i in range(5)]
    before = {block: manager.place(block, datanodes)[0] for block in range(200)}
    survivors = [dn for dn in datanodes if dn != "dn2"]
    for block, owner in before.items():
        after = manager.place(block, survivors)[0]
        if owner != "dn2":
            assert after == owner


def test_two_managers_do_not_share_a_counter():
    """Regression: the id counter is per-manager state, not process
    state — one manager's allocations never advance another's."""
    a = BlockManager()
    b = BlockManager()
    assert a.allocate() == (1,)
    assert b.allocate() == (1,)
    assert a.allocate() == (2,)  # b's allocation did not advance a
    assert b.allocate() == (2,)


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


def test_place_with_racks_filters_to_known_nodes(monkeypatch):
    monkeypatch.setattr(blocks, "REPLICATION", 2)
    manager = BlockManager()
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
