"""Metadata RPC request/response messages."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Generator, Optional, Tuple


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
    request_id: int = field(kw_only=True)
    """Unique within its run: callers pass ``env.next_id("request")``."""
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
    replies: Optional[dict] = field(default=None, compare=False, repr=False)
    """NameNode member id -> the :class:`MetadataResponse` it gave this
    request: the result cache that answers resubmits (§3.2).  Every
    attempt and duplicate delivers this same object, so a reply is
    kept exactly as long as some delivery can still look it up, and
    is freed with the request."""


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


class ClientOps:
    """One method per namespace op, over a client's
    ``execute(op, path, dst_path=None, recursive=False)``."""

    def create_file(self, path: str) -> Generator:
        return (yield from self.execute(OpType.CREATE_FILE, path))

    def mkdirs(self, path: str) -> Generator:
        return (yield from self.execute(OpType.MKDIRS, path))

    def read_file(self, path: str) -> Generator:
        return (yield from self.execute(OpType.READ_FILE, path))

    def stat(self, path: str) -> Generator:
        return (yield from self.execute(OpType.STAT, path))

    def ls(self, path: str) -> Generator:
        return (yield from self.execute(OpType.LS, path))

    def delete(self, path: str) -> Generator:
        return (yield from self.execute(OpType.DELETE, path))

    def mv(self, src: str, dst: str) -> Generator:
        return (yield from self.execute(OpType.MV, src, dst_path=dst))


class PayloadClientOps(ClientOps):
    """:class:`ClientOps` plus the op that needs ``execute``'s
    ``payload`` argument."""

    def set_permission(self, path: str, mode: int) -> Generator:
        return (yield from self.execute(OpType.SET_PERMISSION, path, payload=mode))
