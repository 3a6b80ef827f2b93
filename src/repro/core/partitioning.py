"""Namespace partitioning across function deployments (§3.1, §3.3).

λFS registers *n* uniquely named NameNode deployments and partitions
the namespace among them by consistently hashing the **parent
directory** of each file or directory.  All metadata for the entries
of one directory therefore lands on one deployment (fast `ls`, cheap
invalidation fan-out), while hot directories still scale because a
deployment can run arbitrarily many instances.
"""

from __future__ import annotations

from typing import Dict, List

from repro._util import stable_hash
from repro.namespace.paths import normalize, parent_of


class NamespacePartitioner:
    """Maps paths to deployment names by parent-directory hash."""

    def __init__(self, num_deployments: int, prefix: str = "NameNode") -> None:
        if num_deployments < 1:
            raise ValueError("need at least one deployment")
        self.num_deployments = num_deployments
        self.prefix = prefix
        self._names = [f"{prefix}{index}" for index in range(num_deployments)]
        # anchor directory -> deployment index (bounded by the number
        # of directories; hashing is the hot part of every routing).
        self._index: Dict[str, int] = {}

    def deployment_names(self) -> List[str]:
        return list(self._names)

    def index_for(self, path: str) -> int:
        """Deployment index responsible for caching ``path``."""
        normalized = normalize(path)
        anchor = "/" if normalized == "/" else parent_of(normalized)
        index = self._index.get(anchor)
        if index is None:
            index = self._index[anchor] = stable_hash(anchor) % self.num_deployments
        return index

    def deployment_for(self, path: str) -> str:
        """Deployment name responsible for caching ``path``."""
        return self._names[self.index_for(path)]
