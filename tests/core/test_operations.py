"""Unit tests for the transactional namespace operations."""

import pytest

from repro.core.errors import (
    AlreadyExistsError,
    NotADirectoryError,
    NotDirEmptyError,
    NotFoundError,
)
from repro.core.messages import MetadataRequest, OpType
from repro.core.operations import IdAllocator, NamespaceOps
from repro.metastore.errors import TransactionAborted
from repro.metastore import NdbStore, ndb
from repro.namespace.inode import ROOT_INODE_ID, dirent_key, inode_key
from repro.sim import Environment


@pytest.fixture()
def setup(monkeypatch):
    monkeypatch.setattr(ndb, "RTT_MS", 0.0)
    env = Environment()
    store = NdbStore(env)
    ops = NamespaceOps(store)
    ops.format()
    return env, store, ops


def run_txn(env, store, body):
    """Run a transactional body to completion; returns its value."""
    result = {}

    def proc(env):
        value = yield from store.run_transaction(body)
        result["value"] = value

    env.process(proc(env))
    env.run()
    return result["value"]


def test_format_installs_root(setup):
    _env, store, _ops = setup
    root = store.peek(inode_key(ROOT_INODE_ID))
    assert root is not None and root.is_dir


def test_create_file_and_resolve(setup):
    env, store, ops = setup

    def body(txn):
        yield from ops.mkdirs(txn, "/a/b")
        inode, _ = yield from ops.create_file(txn, "/a/b/f.txt")
        return inode

    inode = run_txn(env, store, body)
    assert inode.name == "f.txt" and not inode.is_dir

    def check(txn):
        resolved = yield from ops.resolve(txn, "/a/b/f.txt")
        return resolved

    resolved = run_txn(env, store, check)
    assert set(resolved) == {"/", "/a", "/a/b", "/a/b/f.txt"}
    assert resolved["/a"].is_dir


def test_create_duplicate_rejected(setup):
    env, store, ops = setup

    def create(txn):
        return ops.create_file(txn, "/f")

    run_txn(env, store, create)
    with pytest.raises(AlreadyExistsError):
        run_txn(env, store, create)


def test_create_in_missing_dir_rejected(setup):
    env, store, ops = setup
    with pytest.raises(NotFoundError):
        run_txn(env, store, lambda txn: ops.create_file(txn, "/nope/f"))


def test_create_under_file_rejected(setup):
    env, store, ops = setup
    run_txn(env, store, lambda txn: ops.create_file(txn, "/f"))
    with pytest.raises(NotADirectoryError):
        run_txn(env, store, lambda txn: ops.create_file(txn, "/f/child"))


def test_mkdirs_idempotent(setup):
    env, store, ops = setup

    def body(txn):
        return ops.mkdirs(txn, "/x/y/z")

    _, _, created1 = run_txn(env, store, body)
    _, _, created2 = run_txn(env, store, body)
    assert len(created1) == 3
    assert created2 == []


def test_mkdirs_over_file_rejected(setup):
    env, store, ops = setup
    run_txn(env, store, lambda txn: ops.create_file(txn, "/f"))
    with pytest.raises(NotADirectoryError):
        run_txn(env, store, lambda txn: ops.mkdirs(txn, "/f"))


def test_ls_directory(setup):
    env, store, ops = setup
    ops.install_paths(["/d"], ["/d/a", "/d/b", "/d/c"])

    def body(txn):
        return ops.ls(txn, "/d")

    _resolved, names = run_txn(env, store, body)
    assert names == ["a", "b", "c"]


def test_ls_file_returns_itself(setup):
    env, store, ops = setup
    ops.install_paths([], ["/solo"])
    _resolved, names = run_txn(env, store, lambda txn: ops.ls(txn, "/solo"))
    assert names == ["solo"]


def test_delete_file(setup):
    env, store, ops = setup
    ops.install_paths([], ["/f"])
    run_txn(env, store, lambda txn: ops.delete_single(txn, "/f"))
    with pytest.raises(NotFoundError):
        run_txn(env, store, lambda txn: ops.resolve(txn, "/f"))


def test_delete_nonempty_dir_rejected(setup):
    env, store, ops = setup
    ops.install_paths(["/d"], ["/d/f"])
    with pytest.raises(NotDirEmptyError):
        run_txn(env, store, lambda txn: ops.delete_single(txn, "/d"))


def test_delete_empty_dir(setup):
    env, store, ops = setup
    ops.install_paths(["/d"], [])
    run_txn(env, store, lambda txn: ops.delete_single(txn, "/d"))
    with pytest.raises(NotFoundError):
        run_txn(env, store, lambda txn: ops.resolve(txn, "/d"))


def test_mv_file(setup):
    env, store, ops = setup
    ops.install_paths(["/src", "/dst"], ["/src/f"])
    moved, _ = run_txn(env, store, lambda txn: ops.mv_single(txn, "/src/f", "/dst/g"))
    assert moved.name == "g"
    resolved = run_txn(env, store, lambda txn: ops.resolve(txn, "/dst/g"))
    assert resolved["/dst/g"].id == moved.id
    with pytest.raises(NotFoundError):
        run_txn(env, store, lambda txn: ops.resolve(txn, "/src/f"))


def test_mv_to_existing_target_rejected(setup):
    env, store, ops = setup
    ops.install_paths([], ["/a", "/b"])
    with pytest.raises(AlreadyExistsError):
        run_txn(env, store, lambda txn: ops.mv_single(txn, "/a", "/b"))


def test_mv_directory_carries_children(setup):
    env, store, ops = setup
    ops.install_paths(["/d1"], ["/d1/f"])
    run_txn(env, store, lambda txn: ops.mv_single(txn, "/d1", "/d2"))
    resolved = run_txn(env, store, lambda txn: ops.resolve(txn, "/d2/f"))
    assert resolved["/d2/f"].name == "f"


def test_resolve_with_known_hints_skips_fetch(setup):
    env, store, ops = setup
    ops.install_paths(["/a/b"], ["/a/b/f"])
    full = run_txn(env, store, lambda txn: ops.resolve(txn, "/a/b/f"))
    reads_before = store.stats.reads

    def with_hints(txn):
        return ops.resolve(txn, "/a/b/f", known=full)

    run_txn(env, store, with_hints)
    # Everything was hinted: no further store reads were needed.
    assert store.stats.reads == reads_before


def test_resolve_distrusts_mislinked_hints(setup):
    env, store, ops = setup
    ops.install_paths(["/a"], ["/a/f"])
    full = run_txn(env, store, lambda txn: ops.resolve(txn, "/a/f"))
    # A hint whose parent linkage is wrong must be ignored and the
    # authoritative row fetched instead.
    bogus = full["/a/f"].with_updates(id=999, parent_id=777)
    hints = {"/a/f": bogus, "/": full["/"], "/a": full["/a"]}
    resolved = run_txn(env, store, lambda txn: ops.resolve(txn, "/a/f", known=hints))
    assert resolved["/a/f"].id == full["/a/f"].id


def test_collect_subtree_enumerates_everything(setup):
    env, store, ops = setup
    ops.install_paths(["/t", "/t/sub"], ["/t/f1", "/t/sub/f2"])
    collected = run_txn(env, store, lambda txn: ops.collect_subtree(txn, "/t"))
    paths = [path for path, _ in collected]
    assert paths[0] == "/t"
    assert set(paths) == {"/t", "/t/f1", "/t/sub", "/t/sub/f2"}


def test_collect_subtree_on_file(setup):
    env, store, ops = setup
    ops.install_paths([], ["/solo"])
    collected = run_txn(env, store, lambda txn: ops.collect_subtree(txn, "/solo"))
    assert [path for path, _ in collected] == ["/solo"]


def write(env, store, ops, op, path, **fields):
    request = MetadataRequest(op=op, path=path, request_id=0, **fields)
    return run_txn(env, store, lambda txn: ops.write(txn, request))


def test_write_reports_what_each_op_touched(setup):
    env, store, ops = setup
    made = write(env, store, ops, OpType.MKDIRS, "/a/b/c")
    assert made.value.name == "c" and made.removed == []
    assert sorted(made.new_entries) == ["/a", "/a/b", "/a/b/c"]
    # The parent of the topmost new directory lists a new child.
    assert made.affected == ["/a/b/c", "/"]
    created = write(env, store, ops, OpType.CREATE_FILE, "/a/f")
    assert created.affected == ["/a/f", "/a"] and not created.broadcast
    moved = write(env, store, ops, OpType.MV, "/a/f", dst_path="/a/b/g")
    assert moved.new_entries == {"/a/b/g": moved.value}
    assert moved.removed == ["/a/f"]
    assert moved.affected == ["/a/f", "/a/b/g", "/a", "/a/b"]
    deleted = write(env, store, ops, OpType.DELETE, "/a/b/g")
    assert deleted.value is True and deleted.new_entries == {}
    # Only a directory's own metadata change reaches every cache.
    chmod_dir = write(env, store, ops, OpType.SET_PERMISSION, "/a", payload=0o700)
    assert chmod_dir.broadcast and chmod_dir.value.permission == 0o700
    write(env, store, ops, OpType.CREATE_FILE, "/a/h")
    chmod_file = write(env, store, ops, OpType.SET_PERMISSION, "/a/h",
                       payload=0o600)
    assert not chmod_file.broadcast


def test_subtree_phases_delete_a_directory(setup):
    env, store, ops = setup
    ops.install_paths(["/t/sub"], ["/t/f1", "/t/sub/f2"])
    root = run_txn(env, store, lambda txn: ops.take_subtree_flag(txn, "/t"))
    assert store.peek(("st_lock", root.id)) is True
    # A second subtree op on the same root is refused while flagged.
    with pytest.raises(TransactionAborted):
        run_txn(env, store, lambda txn: ops.take_subtree_flag(txn, "/t"))
    collected = run_txn(env, store, lambda txn: ops.collect_subtree(txn, "/t"))
    actions = ops.subtree_actions(OpType.DELETE, "/t", collected)
    assert sorted(action[-1] for action in actions) == ["f1", "f2", "sub"]
    assert run_txn(env, store, lambda txn: ops.apply_batch(txn, actions)) == 3
    request = MetadataRequest(op=OpType.DELETE, path="/t", recursive=True,
                              request_id=0)
    assert run_txn(env, store, lambda txn: ops.apply_subtree_root(
        txn, request, "/t", root)) is True
    run_txn(env, store, lambda txn: ops.release_subtree_flag(txn, root))
    assert store.peek(("st_lock", root.id)) is None
    assert store.peek(dirent_key(ROOT_INODE_ID, "t")) is None
    assert store.peek(inode_key(root.id)) is None


def test_full_chain_needs_every_ancestor():
    inode = object()
    assert NamespaceOps.full_chain("/a/b", {"/": inode, "/a": inode, "/a/b": inode})
    assert not NamespaceOps.full_chain("/a/b", {"/": inode, "/a/b": inode})
    assert not NamespaceOps.full_chain("/a/b", {"/a": inode, "/a/b": inode})


def test_install_paths_bulk(setup):
    _env, store, ops = setup
    ops.install_paths(["/x/y"], ["/x/y/f0", "/x/y/f1"])
    parent = store.peek(dirent_key(ROOT_INODE_ID, "x"))
    assert parent is not None
    assert len(store.keys_with_prefix(("dirent", store.peek(inode_key(parent))))) >= 0


def test_id_allocator_monotonic():
    allocator = IdAllocator()
    first = allocator.next_id()
    second = allocator.next_id()
    assert second == first + 1
    assert first > ROOT_INODE_ID
