"""Namespace operations executed as transactions against the store.

This layer is shared by every MDS in the repository: λFS NameNodes,
HopsFS NameNodes (stateless and cached), and — through an adapter —
the IndexFS port.  All methods are generators executed inside a
simulation process; they charge the store for row accesses and take
row locks, so contention effects (hot directories, writer
serialization) are emergent rather than scripted.

λFS and HopsFS run the same transaction bodies: :meth:`NamespaceOps.write`
for every single-INode write, and the subtree-protocol phases
(Appendix D) from the flag take to the root apply.  What stays with
each NameNode is how it retries, keeps caches coherent, spreads
subtree batches and traces.

Path resolution mirrors HopsFS: the INode hint cache makes the
primary keys along a path known in advance, so resolution costs one
*batched* primary-key read instead of one round trip per component
(§2, "INode Hint Cache").  Stale hints are detected against the
locked authoritative rows and retried.
"""

from __future__ import annotations

from itertools import count
from typing import Dict, Generator, Iterable, List, NamedTuple, Optional, Tuple

from repro.core.errors import (
    AccessDeniedError,
    AlreadyExistsError,
    FsError,
    NotADirectoryError,
    NotDirEmptyError,
    NotFoundError,
)
from repro.core.messages import MetadataRequest, OpType
from repro.metastore.errors import TransactionAborted
from repro.metastore.ndb import NdbStore, Transaction
from repro.namespace.inode import (
    INode,
    ROOT_INODE_ID,
    dirent_key,
    dirent_prefix,
    inode_key,
)
from repro.namespace.paths import (
    components,
    is_descendant,
    join,
    normalize,
    parent_of,
    split,
)


class IdAllocator:
    """Monotonic INode id allocation.

    HopsFS pre-allocates id ranges per NameNode from NDB so that id
    assignment is never a bottleneck; we model that by making
    allocation free of simulated time.
    """

    def __init__(self) -> None:
        self._ids = count(ROOT_INODE_ID + 1)

    def next_id(self) -> int:
        return next(self._ids)


class WriteResult(NamedTuple):
    """What one write did, for the NameNode that commits it."""

    value: object
    """The op's reply value."""
    resolved: Dict[str, INode]
    """Every INode the op read or wrote, by path."""
    new_entries: Dict[str, INode]
    """Paths the op created or changed."""
    removed: List[str]
    """Paths the op removed."""
    affected: List[str]
    """Paths whose cached copies go stale: the op's targets and the
    directories whose listings change."""
    broadcast: bool
    """A directory's own metadata changed: every cache holding it as
    an ancestor is stale, not only the path's owner."""


class NamespaceOps:
    """Namespace operation implementations over an :class:`NdbStore`."""

    def __init__(self, store: NdbStore) -> None:
        from repro.core.blocks import BlockManager

        self.store = store
        self.allocator = IdAllocator()
        self.blocks = BlockManager()

    # -- bootstrap ----------------------------------------------------
    def format(self) -> None:
        """Install the root directory (instantaneous, setup only)."""
        self.store.load_bulk({inode_key(ROOT_INODE_ID): INode.root()})

    def install_paths(self, directories: List[str], files: List[str]) -> None:
        """Bulk-create a namespace off the simulated clock (setup).

        Experiments pre-create their directory trees; doing this
        through timed transactions would only burn wall-clock time.
        """
        rows: Dict[tuple, object] = {}
        ids: Dict[str, int] = {"/": ROOT_INODE_ID}

        def ensure_dir(path: str) -> int:
            path = normalize(path)
            if path in ids:
                return ids[path]
            parent, name = split(path)
            parent_id = ensure_dir(parent)
            new_id = self.allocator.next_id()
            ids[path] = new_id
            rows[inode_key(new_id)] = INode(
                id=new_id, parent_id=parent_id, name=name, is_dir=True
            )
            rows[dirent_key(parent_id, name)] = new_id
            return new_id

        for directory in directories:
            ensure_dir(directory)
        for file_path in files:
            parent, name = split(file_path)
            parent_id = ensure_dir(parent)
            new_id = self.allocator.next_id()
            rows[inode_key(new_id)] = INode(
                id=new_id, parent_id=parent_id, name=name, is_dir=False,
                block_ids=self.blocks.allocate(),
            )
            rows[dirent_key(parent_id, name)] = new_id
        self.store.load_bulk(rows)

    # -- resolution ----------------------------------------------------
    def resolve(
        self,
        txn: Transaction,
        path: str,
        known: Optional[Dict[str, INode]] = None,
        exclusive_paths: Iterable[str] = (),
    ) -> Generator:
        """Resolve every INode along ``path``.

        ``known`` supplies already-trusted INodes (from a NameNode's
        local cache); only the missing suffix is fetched, in one
        batched read.  ``exclusive_paths`` names components this
        transaction intends to modify: their rows are locked in write
        mode *up front* (HopsFS-style lock strength planning — taking
        shared locks and upgrading later deadlocks under concurrent
        writers).  Returns ``{path: INode}`` for every component
        including the root.  Raises :class:`NotFoundError` if any
        component is missing and :class:`NotADirectoryError` if a file
        shows up mid-path.
        """
        path = normalize(path)
        known = dict(known or {})
        strong_paths = {normalize(p) for p in exclusive_paths}
        for attempt in range(3):
            resolved, keys_needed, strong_keys = self._plan_resolution(
                txn, path, known, strong_paths
            )
            if not keys_needed:
                self._validate_chain(path, resolved)
                return resolved
            rows = yield from txn.read_many(keys_needed, exclusive_keys=strong_keys)
            fresh, stale = self._merge_rows(txn, path, resolved, rows)
            if not stale:
                self._validate_chain(path, fresh)
                return fresh
            known = {}  # hints were stale: re-walk from the store
        raise NotFoundError(f"resolution of {path!r} kept racing")

    def _plan_resolution(
        self,
        txn: Transaction,
        path: str,
        known: Dict[str, INode],
        strong_paths: Optional[set] = None,
    ) -> Tuple[Dict[str, INode], List[tuple], List[tuple]]:
        """Walk hints to find which primary keys must be fetched."""
        strong_paths = strong_paths or set()
        resolved: Dict[str, INode] = {}
        keys: List[tuple] = []
        strong_keys: List[tuple] = []
        current = "/"
        root = known.get("/")
        if root is not None:
            resolved["/"] = root
            parent_id: Optional[int] = root.id
        else:
            keys.append(inode_key(ROOT_INODE_ID))
            if "/" in strong_paths:
                strong_keys.append(inode_key(ROOT_INODE_ID))
            parent_id = ROOT_INODE_ID
        for part in components(path):
            current = join(current, part)
            cached = known.get(current)
            if cached is not None and cached.parent_id == parent_id:
                resolved[current] = cached
                parent_id = cached.id
                continue
            # Hint-cache walk: peek the dirent to learn the child id.
            child_id = txn._visible(dirent_key(parent_id, part)) if parent_id is not None else None
            keys.append(dirent_key(parent_id, part))
            if current in strong_paths:
                strong_keys.append(dirent_key(parent_id, part))
            if child_id is None:
                # Unknown beyond here; fetch what we listed and let the
                # merge step report NotFound if the row truly misses.
                break
            keys.append(inode_key(child_id))
            if current in strong_paths:
                strong_keys.append(inode_key(child_id))
            parent_id = child_id
        return resolved, keys, strong_keys

    def _merge_rows(
        self,
        txn: Transaction,
        path: str,
        resolved: Dict[str, INode],
        rows: Dict[tuple, object],
    ) -> Tuple[Dict[str, INode], bool]:
        """Re-walk the path against locked rows; detect stale hints."""
        merged = dict(resolved)
        parent_id = ROOT_INODE_ID
        current = "/"
        if "/" not in merged:
            root = rows.get(inode_key(ROOT_INODE_ID)) or txn._visible(
                inode_key(ROOT_INODE_ID)
            )
            if root is None:
                raise NotFoundError("namespace is not formatted (no root)")
            merged["/"] = root
        for part in components(path):
            current = join(current, part)
            if current in merged:
                parent_id = merged[current].id
                continue
            dkey = dirent_key(parent_id, part)
            if dkey in rows:
                child_id = rows[dkey]
            else:
                return merged, True  # hint walk missed this key: stale
            if child_id is None:
                raise NotFoundError(f"{current!r} does not exist")
            ikey = inode_key(child_id)
            inode = rows.get(ikey)
            if inode is None:
                inode = txn._visible(ikey)
                if inode is None or inode.parent_id != parent_id:
                    return merged, True
            merged[current] = inode
            parent_id = child_id
        return merged, False

    def resolve_prefix(
        self,
        txn: Transaction,
        path: str,
        known: Optional[Dict[str, INode]] = None,
    ) -> Generator:
        """Resolve the longest *existing* prefix of ``path``.

        Like :meth:`resolve` but never raises on missing components:
        returns ``{path: INode}`` for root plus every component that
        exists, in a single batched read.  Used by ``mkdirs`` to find
        the deepest existing ancestor in one store round trip.
        """
        path = normalize(path)
        known = dict(known or {})
        resolved, keys, _strong = self._plan_resolution(txn, path, known, set())
        if keys:
            rows = yield from txn.read_many(keys)
        else:
            rows = {}
        merged = dict(resolved)
        if "/" not in merged:
            root = rows.get(inode_key(ROOT_INODE_ID)) or txn._visible(
                inode_key(ROOT_INODE_ID)
            )
            if root is None:
                raise NotFoundError("namespace is not formatted (no root)")
            merged["/"] = root
        parent_id = merged["/"].id
        current = "/"
        for part in components(path):
            current = join(current, part)
            if current in merged:
                parent_id = merged[current].id
                continue
            dkey = dirent_key(parent_id, part)
            child_id = rows[dkey] if dkey in rows else txn._visible(dkey)
            if child_id is None:
                break
            ikey = inode_key(child_id)
            inode = rows.get(ikey) or txn._visible(ikey)
            if inode is None:
                break
            merged[current] = inode
            parent_id = child_id
        return merged

    # -- permissions -----------------------------------------------------
    @staticmethod
    def check_traversal(path: str, resolved: Dict[str, INode]) -> None:
        """Every ancestor directory must carry an execute bit.

        HDFS-style permission enforcement on the resolution path
        (§1: clients "acquire a file's permission ... from the MDS").
        """
        normalized = normalize(path)
        for ancestor, inode in resolved.items():
            if ancestor == normalized or not is_descendant(normalized, ancestor):
                continue
            if inode.is_dir and not inode.permission & 0o111:
                raise AccessDeniedError(
                    f"{ancestor!r} is not traversable (mode {inode.permission:o})"
                )

    @staticmethod
    def check_readable(path: str, inode: INode) -> None:
        if not inode.permission & 0o444:
            raise AccessDeniedError(
                f"{path!r} is not readable (mode {inode.permission:o})"
            )

    @staticmethod
    def check_writable(path: str, inode: INode) -> None:
        if not inode.permission & 0o222:
            raise AccessDeniedError(
                f"{path!r} is not writable (mode {inode.permission:o})"
            )

    def set_permission(
        self, txn: Transaction, path: str, permission: int, known=None
    ) -> Generator:
        """Change an INode's permission bits (like HDFS setPermission)."""
        if not 0 <= permission <= 0o777:
            raise AccessDeniedError(f"invalid mode {permission:o}")
        path = normalize(path)
        resolved = yield from self.resolve(
            txn, path, known, exclusive_paths=[path]
        )
        self.check_traversal(path, resolved)
        updated = resolved[path].with_updates(permission=permission)
        yield from txn.write(inode_key(updated.id), updated)
        resolved[path] = updated
        return updated, resolved

    @classmethod
    def check_read(cls, path: str, resolved: Dict[str, INode]) -> INode:
        """The INode at ``path`` once its ancestors are traversable and
        it is readable."""
        inode = resolved[path]
        cls.check_traversal(path, resolved)
        cls.check_readable(path, inode)
        return inode

    @staticmethod
    def full_chain(path: str, known: Dict[str, INode]) -> bool:
        """True when every component of ``path`` (and the root) is
        cached — required for a safe cache hit, since permission
        enforcement must see every ancestor."""
        if "/" not in known or path not in known:
            return False
        current = ""
        for part in components(path):
            current = f"{current}/{part}"
            if current not in known:
                return False
        return True

    @staticmethod
    def _validate_chain(path: str, resolved: Dict[str, INode]) -> None:
        current = "/"
        chain = [current]
        for part in components(path):
            current = join(current, part)
            chain.append(current)
        for ancestor in chain[:-1]:
            inode = resolved.get(ancestor)
            if inode is None:
                raise NotFoundError(f"{ancestor!r} does not exist")
            if not inode.is_dir:
                raise NotADirectoryError(f"{ancestor!r} is not a directory")
        if resolved.get(chain[-1]) is None:
            raise NotFoundError(f"{path!r} does not exist")

    # -- reads --------------------------------------------------------
    def stat(self, txn: Transaction, path: str) -> Generator:
        resolved = yield from self.resolve(txn, path)
        return resolved

    def ls(self, txn: Transaction, path: str, known=None) -> Generator:
        """Directory listing (or the single entry for a file)."""
        resolved = yield from self.resolve(txn, path, known)
        target = resolved[normalize(path)]
        if not target.is_dir:
            return resolved, [target.name]
        rows = yield from txn.scan_prefix(dirent_prefix(target.id))
        names = sorted(key[-1] for key in rows)
        return resolved, names

    # -- writes --------------------------------------------------------
    def create_file(self, txn: Transaction, path: str, known=None) -> Generator:
        """Create an empty file; returns (new INode, resolved parents)."""
        path = normalize(path)
        parent_path, name = split(path)
        # The parent chain is read under shared locks only: like
        # HopsFS, creates do not write-lock the parent row, so
        # same-directory creates proceed concurrently (parent mtime /
        # quota bookkeeping is asynchronous in HopsFS).
        resolved = yield from self.resolve(txn, parent_path, known)
        parent = resolved[parent_path]
        if not parent.is_dir:
            raise NotADirectoryError(f"{parent_path!r} is not a directory")
        self.check_traversal(parent_path, resolved)
        self.check_writable(parent_path, parent)
        yield from txn.lock(dirent_key(parent.id, name), exclusive=True)
        existing = txn._visible(dirent_key(parent.id, name))
        if existing is not None:
            raise AlreadyExistsError(f"{path!r} already exists")
        inode = INode(
            id=self.allocator.next_id(),
            parent_id=parent.id,
            name=name,
            is_dir=False,
            mtime=0.0,
            block_ids=self.blocks.allocate(),
        )
        yield from txn.write(inode_key(inode.id), inode)
        yield from txn.write(dirent_key(parent.id, name), inode.id)
        return inode, resolved

    def mkdirs(self, txn: Transaction, path: str, known=None) -> Generator:
        """Create a directory chain (like ``mkdir -p``)."""
        path = normalize(path)
        created: List[INode] = []
        resolved: Dict[str, INode] = dict(known or {})
        # One batched read finds the deepest existing ancestor.
        existing = yield from self.resolve_prefix(txn, path, known)
        target = existing.get(path)
        if target is not None:
            if not target.is_dir:
                raise NotADirectoryError(f"{path!r} exists and is a file")
            resolved.update(existing)
            return target, resolved, created
        deepest = max(
            (p for p in existing if is_descendant(path, p)),
            key=len,
            default="/",
        )
        parent = existing[deepest]
        if not parent.is_dir:
            raise NotADirectoryError(f"{deepest!r} is not a directory")
        resolved.update(existing)
        current = deepest
        for part in components(path)[len(components(deepest)):]:
            yield from txn.lock(dirent_key(parent.id, part), exclusive=True)
            race = txn._visible(dirent_key(parent.id, part))
            if race is not None:
                raced_inode = txn._visible(inode_key(race))
                if raced_inode is None or not raced_inode.is_dir:
                    raise NotADirectoryError(f"{join(current, part)!r} raced")
                parent = raced_inode
                current = join(current, part)
                resolved[current] = parent
                continue
            inode = INode(
                id=self.allocator.next_id(),
                parent_id=parent.id,
                name=part,
                is_dir=True,
            )
            yield from txn.write(inode_key(inode.id), inode)
            yield from txn.write(dirent_key(parent.id, part), inode.id)
            current = join(current, part)
            resolved[current] = inode
            created.append(inode)
            parent = inode
        return parent, resolved, created

    def delete_single(self, txn: Transaction, path: str, known=None) -> Generator:
        """Delete one file or *empty* directory."""
        path = normalize(path)
        resolved = yield from self.resolve(
            txn, path, known, exclusive_paths=[path]
        )
        target = resolved[path]
        if target.is_dir:
            children = yield from txn.scan_prefix(dirent_prefix(target.id))
            if children:
                raise NotDirEmptyError(f"{path!r} is not empty")
        parent_path, name = split(path)
        parent = resolved[parent_path]
        self.check_traversal(path, resolved)
        self.check_writable(parent_path, parent)
        yield from txn.delete(dirent_key(parent.id, name))
        yield from txn.delete(inode_key(target.id))
        return target, resolved

    def mv_single(
        self, txn: Transaction, src: str, dst: str, known=None
    ) -> Generator:
        """Rename one file or directory (the subtree moves with it,
        since descendants key off the directory's id)."""
        src = normalize(src)
        dst = normalize(dst)
        resolved = yield from self.resolve(
            txn, src, known, exclusive_paths=[src]
        )
        target = resolved[src]
        dst_parent_path, dst_name = split(dst)
        dst_resolved = yield from self.resolve(txn, dst_parent_path, known)
        dst_parent = dst_resolved[dst_parent_path]
        if not dst_parent.is_dir:
            raise NotADirectoryError(f"{dst_parent_path!r} is not a directory")
        yield from txn.lock(dirent_key(dst_parent.id, dst_name), exclusive=True)
        if txn._visible(dirent_key(dst_parent.id, dst_name)) is not None:
            raise AlreadyExistsError(f"{dst!r} already exists")
        src_parent_path, src_name = split(src)
        src_parent = resolved[src_parent_path]
        self.check_traversal(src, resolved)
        self.check_writable(src_parent_path, src_parent)
        self.check_writable(dst_parent_path, dst_parent)
        moved = target.with_updates(parent_id=dst_parent.id, name=dst_name)
        yield from txn.delete(dirent_key(src_parent.id, src_name))
        yield from txn.write(dirent_key(dst_parent.id, dst_name), moved.id)
        yield from txn.write(inode_key(moved.id), moved)
        resolved.update(dst_resolved)
        return moved, resolved

    def write(
        self, txn: Transaction, request: MetadataRequest, known=None
    ) -> Generator:
        """Run one single-INode write op in ``txn``; returns a
        :class:`WriteResult`.  The caller commits (or retries) it."""
        path = normalize(request.path)
        op = request.op
        broadcast = False
        if op is OpType.CREATE_FILE:
            inode, resolved = yield from self.create_file(txn, path, known)
            affected = [path, parent_of(path)]
            new_entries = {path: inode}
            removed: List[str] = []
            value: object = inode
        elif op is OpType.MKDIRS:
            target, resolved, created = yield from self.mkdirs(txn, path, known)
            new_entries = {p: i for p, i in resolved.items() if i in created}
            affected = [path]
            if new_entries:
                # The topmost new directory's parent lists a new child.
                affected.append(parent_of(min(new_entries, key=len)))
            removed = []
            value = target
        elif op is OpType.DELETE:
            target, resolved = yield from self.delete_single(txn, path, known)
            affected = [path, parent_of(path)]
            new_entries = {}
            removed = [path]
            value = True
        elif op is OpType.MV:
            dst = normalize(request.dst_path)
            moved, resolved = yield from self.mv_single(txn, path, dst, known)
            affected = [path, dst, parent_of(path), parent_of(dst)]
            new_entries = {dst: moved}
            removed = [path]
            value = moved
        elif op is OpType.SET_PERMISSION:
            updated, resolved = yield from self.set_permission(
                txn, path, request.payload, known
            )
            affected = [path]
            # Directory INodes are cached as *ancestors* by every
            # cache resolving paths beneath them.
            broadcast = updated.is_dir
            new_entries = {path: updated}
            removed = []
            value = updated
        else:  # pragma: no cover - dispatch guard
            raise FsError(f"unhandled write op {op}")
        return WriteResult(value, resolved, new_entries, removed, affected,
                           broadcast)

    # -- subtree support (Appendix D) ----------------------------------------
    def take_subtree_flag(self, txn: Transaction, root_path: str) -> Generator:
        """Phase 1: resolve the root directory and set its subtree-lock
        flag (subtree isolation); returns the root INode."""
        resolved = yield from self.resolve(txn, root_path)
        root = resolved[root_path]
        if not root.is_dir:
            raise FsError(f"{root_path!r} is not a directory")
        flag = yield from txn.read(("st_lock", root.id))
        if flag:
            raise TransactionAborted(f"subtree op already active on {root_path!r}")
        yield from txn.write(("st_lock", root.id), True)
        return root

    @staticmethod
    def release_subtree_flag(txn: Transaction, root: INode) -> Generator:
        yield from txn.delete(("st_lock", root.id))

    def collect_subtree(self, txn: Transaction, root_path: str) -> Generator:
        """Quiesce and enumerate a subtree (Appendix D, phases 1–2).

        Takes write locks level by level in a predefined total order
        and returns ``[(path, INode)]`` for the whole subtree, root
        first.
        """
        root_path = normalize(root_path)
        resolved = yield from self.resolve(txn, root_path)
        root = resolved[root_path]
        yield from txn.lock(inode_key(root.id), exclusive=True)
        collected: List[Tuple[str, INode]] = [(root_path, root)]
        if not root.is_dir:
            return collected
        frontier: List[Tuple[str, INode]] = [(root_path, root)]
        while frontier:
            next_frontier: List[Tuple[str, INode]] = []
            for dir_path, directory in frontier:
                rows = yield from txn.scan_prefix(dirent_prefix(directory.id))
                child_ids = sorted(rows.values())
                inode_rows = yield from txn.read_many(
                    [inode_key(child_id) for child_id in child_ids]
                )
                by_id = {
                    inode.id: inode
                    for inode in inode_rows.values()
                    if inode is not None
                }
                for key, child_id in sorted(rows.items()):
                    child = by_id.get(child_id)
                    if child is None:
                        continue
                    child_path = join(dir_path, key[-1])
                    collected.append((child_path, child))
                    if child.is_dir:
                        next_frontier.append((child_path, child))
            frontier = next_frontier
        return collected

    @staticmethod
    def subtree_actions(
        op: OpType, root_path: str, collected: List[Tuple[str, INode]]
    ) -> List[Tuple]:
        """Phase 3's sub-operations over a quiesced subtree: one per
        descendant of the root, which the root apply handles itself."""
        descendants = [(p, i) for p, i in collected if p != root_path]
        if op is OpType.DELETE:
            return [
                ("delete_inode", inode.id, inode.parent_id, split(path)[1])
                for path, inode in descendants
            ]
        return [("touch_inode", inode.id) for _path, inode in descendants]

    @staticmethod
    def apply_batch(txn: Transaction, actions: List[Tuple]) -> Generator:
        """Run one batch of sub-operations; returns how many ran."""
        for action in actions:
            if action[0] == "delete_inode":
                _, target_id, parent_id, name = action
                yield from txn.delete(dirent_key(parent_id, name))
                yield from txn.delete(inode_key(target_id))
            else:
                _, target_id = action
                inode = txn._visible(inode_key(target_id))
                if inode is not None:
                    yield from txn.write(inode_key(target_id), inode)
        return len(actions)

    def apply_subtree_root(
        self, txn: Transaction, request: MetadataRequest, root_path: str,
        root: INode,
    ) -> Generator:
        """Final phase: delete or move the subtree's root itself."""
        if request.op is OpType.DELETE:
            parent_path, name = split(root_path)
            resolved = yield from self.resolve(txn, parent_path)
            parent = resolved[parent_path]
            yield from txn.delete(dirent_key(parent.id, name))
            yield from txn.delete(inode_key(root.id))
            return True
        moved, _resolved = yield from self.mv_single(
            txn, root_path, normalize(request.dst_path)
        )
        return moved
