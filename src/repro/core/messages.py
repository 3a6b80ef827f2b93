"""Metadata RPC request/response messages."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from itertools import count
from typing import Any, Optional, Tuple


class OpType(enum.Enum):
    """The file-system operations from the paper's workloads (Table 2)."""

    CREATE_FILE = "create file"
    MKDIRS = "mkdirs"
    DELETE = "delete file/dir"
    MV = "mv file/dir"
    READ_FILE = "read file"
    STAT = "stat file/dir"
    LS = "ls file/dir"
    SET_PERMISSION = "set permission"
    EXEC_BATCH = "exec batch"
    """Internal: a batch of subtree sub-operations offloaded to a
    helper NameNode (Appendix D, "serverless offloading")."""

    @property
    def is_write(self) -> bool:
        return self in _WRITE_OPS

    @property
    def is_subtree_capable(self) -> bool:
        """Ops that may span a whole directory subtree (§3.5)."""
        return self in (OpType.MV, OpType.DELETE)


_WRITE_OPS = frozenset(
    {OpType.CREATE_FILE, OpType.MKDIRS, OpType.DELETE, OpType.MV,
     OpType.SET_PERMISSION}
)

_request_ids = count(1)


@dataclass(slots=True)
class MetadataRequest:
    """One metadata RPC.

    ``tcp_servers`` carries the client VM's TCP server handles inside
    HTTP payloads so NameNodes can proactively connect back (§3.2).
    """

    op: OpType
    path: str
    dst_path: Optional[str] = None
    recursive: bool = False
    request_id: int = field(default_factory=lambda: next(_request_ids))
    client_id: str = ""
    tcp_servers: Tuple = ()
    attempt: int = 1
    payload: Any = None
    trace_parent: Optional[int] = None
    """Span id of the client-side RPC attempt (set only while a
    :class:`repro.trace.Tracer` is installed), so server-side spans
    attach to the issuing operation's causal tree."""
    deadline_ms: Optional[float] = None
    """Absolute sim-time deadline for the whole op (resilience mode).
    Every hop — gateway, FaaS queue, NameNode admission, metastore
    txn — computes its remaining budget from this and sheds the
    request once it has expired instead of executing dead work."""


@dataclass(slots=True)
class MetadataResponse:
    """The reply to one metadata RPC."""

    request_id: int
    ok: bool
    value: Any = None
    error: Optional[str] = None
    served_by: str = ""
    cache_hit: bool = False
    shed: bool = False
    """Explicit pushback: a hop refused the request (deadline expired
    or load shed) without executing it.  Clients may retry if their
    budget and deadline allow, but must not treat it as a crash."""
    stale: bool = False
    """Served from an invalidated cache entry under shed pressure
    (bounded staleness; see ``staleness_ms``)."""
    staleness_ms: Optional[float] = None
