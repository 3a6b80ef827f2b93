"""Synthetic directory-tree generation for experiments.

The paper's benchmarks pre-create directory trees ("an existing
directory tree", §5.3) and then run operations against random files.
:func:`generate_tree` builds such a tree deterministically and returns
the file/directory path lists so workloads can sample targets.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List


@dataclass(frozen=True)
class TreeSpec:
    """Shape of a generated namespace.

    ``depth`` levels of directories, ``dirs_per_dir`` fanout, and
    ``files_per_dir`` files in each leaf-most directory level.
    """

    depth: int = 3
    dirs_per_dir: int = 4
    files_per_dir: int = 8
    root: str = "/bench"
    seed: int = 0


@dataclass
class GeneratedTree:
    """Paths produced by :func:`generate_tree`."""

    directories: List[str] = field(default_factory=list)
    files: List[str] = field(default_factory=list)

    def sample_files(self, rng: random.Random, count: int) -> List[str]:
        """``count`` file paths sampled uniformly with replacement."""
        return [rng.choice(self.files) for _ in range(count)]

def generate_tree(spec: TreeSpec) -> GeneratedTree:
    """Generate directory and file paths for ``spec`` (no I/O).

    Directories at every level receive files, so caches see both
    shallow and deep paths; the result is deterministic in ``spec``.
    """
    tree = GeneratedTree()
    tree.directories.append(spec.root)

    def expand(path: str, level: int) -> None:
        for file_index in range(spec.files_per_dir):
            tree.files.append(f"{path}/f{level}_{file_index}")
        if level >= spec.depth:
            return
        for dir_index in range(spec.dirs_per_dir):
            child = f"{path}/d{level}_{dir_index}"
            tree.directories.append(child)
            expand(child, level + 1)

    expand(spec.root, 0)
    return tree


def flat_directory(root: str, file_count: int, prefix: str = "f") -> GeneratedTree:
    """A single directory holding ``file_count`` files.

    Used by the subtree-operation experiments (Table 3), which move
    directories of 2^18..2^20 files.
    """
    tree = GeneratedTree()
    tree.directories.append(root)
    tree.files = [f"{root}/{prefix}{index}" for index in range(file_count)]
    return tree
