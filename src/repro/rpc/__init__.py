"""RPC fabric: latency models, TCP connections, retry policies (§3.2).

λFS clients reach NameNodes two ways: HTTP invocations through the
FaaS API gateway (8–20 ms, FaaS-aware, triggers scale-out) and direct
TCP connections (1–2 ms, FaaS-invisible).  This package provides the
shared latency model, the per-VM TCP-server/connection registry with
the "connection sharing" mechanism of Figure 4, and exponential
backoff with jitter for HTTP resubmission.
"""

from repro.rpc.connections import ClientVM, ConnectionDropped, TcpConnection, TcpServer
from repro.rpc.latency import LatencyModel
from repro.rpc.retry import RetryPolicy

__all__ = [
    "ClientVM",
    "ConnectionDropped",
    "LatencyModel",
    "RetryPolicy",
    "TcpConnection",
    "TcpServer",
]
