"""The INode record: one row per file or directory.

This mirrors the schema HopsFS keeps in MySQL NDB: INodes are keyed
by id, and directory entries (``dirent`` rows) map
``(parent_id, name)`` to a child id, which lets path resolution run as
batched primary-key lookups.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

ROOT_INODE_ID = 1
"""The well-known id of "/". Ids below this are never allocated."""


@dataclass(frozen=True)
class INode:
    """An immutable snapshot of one file-system object's metadata.

    Instances are value objects: stores and caches exchange copies, so
    mutating shared state is impossible by construction (the coherence
    protocol, not aliasing, keeps caches in sync).
    """

    id: int
    parent_id: Optional[int]
    name: str
    is_dir: bool
    permission: int = 0o755
    owner: str = "hdfs"
    group: str = "hdfs"
    size: int = 0
    mtime: float = 0.0
    block_ids: tuple = field(default_factory=tuple)

    def with_updates(self, **changes) -> "INode":
        """A copy of this INode with the given fields replaced."""
        return replace(self, **changes)

    @staticmethod
    def root() -> "INode":
        """The canonical root directory INode."""
        return INode(id=ROOT_INODE_ID, parent_id=None, name="", is_dir=True)


def inode_key(inode_id: int) -> tuple:
    """Store key for an INode row."""
    return ("inode", inode_id)


def dirent_key(parent_id: int, name: str) -> tuple:
    """Store key for a directory-entry row."""
    return ("dirent", parent_id, name)


def dirent_prefix(parent_id: int) -> tuple:
    """Store scan prefix covering every entry of one directory."""
    return ("dirent", parent_id)
