"""Persistent metadata stores.

* :class:`NdbStore` — a MySQL-Cluster-NDB-like store: sharded,
  transactional (two-phase locking with shared/exclusive row locks),
  with a finite per-shard service capacity that makes it a realistic
  bottleneck under write-heavy or cache-less load.
* :class:`SSTableStore` — a LevelDB-like store (memtable + sorted
  runs) used by the IndexFS/λIndexFS port.

Both are driven by the DES: every operation that costs time is a
generator to be ``yield from``-ed inside a simulation process.
"""

from repro.metastore.errors import (
    LockTimeout,
    StoreError,
    TransactionAborted,
)
from repro.metastore.locks import LockManager, LockMode
from repro.metastore.ndb import NdbConfig, NdbStore, Transaction
from repro.metastore.sstable import SSTableStore

__all__ = [
    "LockManager",
    "LockMode",
    "LockTimeout",
    "NdbConfig",
    "NdbStore",
    "SSTableStore",
    "StoreError",
    "Transaction",
    "TransactionAborted",
]
