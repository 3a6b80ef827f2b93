"""TCP servers, connections, and per-VM connection sharing (Fig. 4).

Every client VM runs one or more TCP servers; by default all clients
on a VM share one server, and users may cap clients-per-server so new
servers are created as clients are added.  A NameNode that serves an
HTTP request "connects back" to every TCP server advertised in the
request payload.  When a client's own server lacks a connection to
the target deployment, it borrows one from a sibling server on the
same VM (one extra intra-VM hop), exactly as in Figure 4.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional

from repro.rpc.latency import LatencyModel
from repro.sim import Environment


class ConnectionDropped(Exception):
    """The TCP peer went away mid-request."""


class TcpConnection:
    """A live TCP connection between a TCP server and a NameNode."""

    def __init__(self, server: "TcpServer", instance: Any) -> None:
        self.id = server.env.next_id("connection")
        self.server = server
        self.instance = instance
        self.alive = True

    @property
    def deployment(self) -> str:
        return self.instance.deployment_name

    def close(self) -> None:
        if self.alive:
            env = self.server.env
            if env.metrics is not None:
                env.metrics.inc(
                    "tcp_connections_closed_total", deployment=self.deployment
                )
            tracer = env.tracer
            if tracer is not None:
                tracer.connection_closed()
        self.alive = False
        self.server._drop(self)

    def call(self, request: Any) -> Generator:
        """Issue ``request`` over this connection and await the reply.

        Raises :class:`ConnectionDropped` if the peer dies before or
        during the exchange (the caller's retry logic handles it).
        """
        env = self.server.env
        latency = self.server.latency
        tracer = env.tracer
        chaos = env.chaos
        parent = getattr(request, "trace_parent", None)
        if not self.alive or not self.instance.is_alive:
            self.close()
            if tracer is not None:
                tracer.point("tcp.drop", f"conn{self.id}", parent=parent,
                             deployment=self.deployment, when="pre-send")
            raise ConnectionDropped(f"connection {self.id} is down")
        if chaos is not None:
            extra = chaos.tcp_extra_delay_ms(self.deployment)
            if extra > 0.0:
                yield env.timeout(extra)
            if chaos.tcp_should_drop(self.deployment):
                # Message loss, not connection loss: the connection
                # stays up and the client's retry resubmits over it.
                if tracer is not None:
                    tracer.point("chaos.tcp_drop", f"conn{self.id}",
                                 parent=parent, deployment=self.deployment)
                raise ConnectionDropped(
                    f"request lost on connection {self.id} (chaos)"
                )
        if tracer is not None:
            tracer.point("tcp.send", f"conn{self.id}", parent=parent,
                         deployment=self.deployment)
        yield env.timeout(latency.tcp_oneway())
        if not self.instance.is_alive:
            self.close()
            if tracer is not None:
                tracer.point("tcp.drop", f"conn{self.id}", parent=parent,
                             deployment=self.deployment, when="in-flight")
            raise ConnectionDropped(f"{self.deployment} died before serving")
        response = yield from self.instance.serve(request, via="tcp")
        if (
            chaos is not None
            and self.instance.is_alive
            and chaos.tcp_should_duplicate(self.deployment)
        ):
            # Duplicate delivery: the same request is served twice;
            # the NameNode's result cache must answer the replay with
            # the original result instead of re-running the op.
            if tracer is not None:
                tracer.point("chaos.tcp_duplicate", f"conn{self.id}",
                             parent=parent, deployment=self.deployment)
            response = yield from self.instance.serve(request, via="tcp")
        if not self.alive or not self.instance.is_alive:
            self.close()
            if tracer is not None:
                tracer.point("tcp.drop", f"conn{self.id}", parent=parent,
                             deployment=self.deployment, when="mid-request")
            raise ConnectionDropped(f"{self.deployment} died mid-request")
        yield env.timeout(latency.tcp_oneway())
        if tracer is not None:
            tracer.point("tcp.recv", f"conn{self.id}", parent=parent,
                         deployment=self.deployment)
        return response


class TcpServer:
    """One TCP endpoint on a client VM."""

    def __init__(self, env: Environment, vm: "ClientVM", latency: LatencyModel) -> None:
        self.id = env.next_id("tcp-server")
        self.env = env
        self.vm = vm
        self.latency = latency
        self._by_deployment: Dict[str, List[TcpConnection]] = {}
        self._rotation: Dict[str, int] = {}

    def connect_from(self, instance: Any) -> TcpConnection:
        """Accept a connection initiated by a NameNode instance."""
        for existing in self._by_deployment.get(instance.deployment_name, ()):
            if existing.alive and existing.instance is instance:
                return existing
        connection = TcpConnection(self, instance)
        self._by_deployment.setdefault(instance.deployment_name, []).append(connection)
        instance.attach_connection(connection)
        if self.env.metrics is not None:
            self.env.metrics.inc(
                "tcp_connections_opened_total",
                deployment=instance.deployment_name,
            )
        tracer = self.env.tracer
        if tracer is not None:
            tracer.connection_opened()
            tracer.point(
                "tcp.connect_back", f"server{self.id}",
                deployment=instance.deployment_name, instance=instance.id,
            )
        return connection

    def find(self, deployment: str) -> Optional[TcpConnection]:
        """A live connection to ``deployment``, or None.

        Rotates round-robin over the live connections so clients
        spread TCP load across every instance of a deployment that
        has connected back, instead of pinning the first one.
        """
        connections = self._by_deployment.get(deployment, [])
        if not connections:
            return None
        start = self._rotation.get(deployment, 0)
        count = len(connections)
        for offset in range(count):
            connection = connections[(start + offset) % count]
            if connection.alive and connection.instance.is_alive:
                self._rotation[deployment] = (start + offset + 1) % count
                return connection
        return None

    def connection_count(self) -> int:
        return sum(
            len([c for c in conns if c.alive])
            for conns in self._by_deployment.values()
        )

    def _drop(self, connection: TcpConnection) -> None:
        connections = self._by_deployment.get(connection.deployment, [])
        try:
            connections.remove(connection)
        except ValueError:
            pass


class ClientVM:
    """A client VM hosting clients and their TCP servers."""

    def __init__(
        self,
        env: Environment,
        latency: LatencyModel,
        clients_per_server: int = 128,
    ) -> None:
        if clients_per_server <= 0:
            raise ValueError("clients_per_server must be positive")
        self.id = env.next_id("vm")
        self.env = env
        self.latency = latency
        self.clients_per_server = clients_per_server
        self.servers: List[TcpServer] = []
        self._client_count = 0

    def assign_server(self) -> TcpServer:
        """Server for the next client (new servers created as needed)."""
        index = self._client_count // self.clients_per_server
        self._client_count += 1
        while len(self.servers) <= index:
            self.servers.append(TcpServer(self.env, self, self.latency))
        return self.servers[index]

    def find_shared(
        self,
        deployment: str,
        own_server: TcpServer,
        trace_parent: Any = None,
    ) -> Generator:
        """Connection-sharing lookup (Figure 4).

        Checks the client's own server first; then the sibling servers
        on this VM, paying one intra-VM hop.  Returns a live
        connection or None.
        """
        metrics = self.env.metrics
        connection = own_server.find(deployment)
        if connection is not None:
            if metrics is not None:
                metrics.inc("tcp_connection_reuse_total", source="own")
            return connection
        for server in self.servers:
            if server is own_server:
                continue
            connection = server.find(deployment)
            if connection is not None:
                if metrics is not None:
                    metrics.inc("tcp_connection_reuse_total", source="sibling")
                tracer = self.env.tracer
                hop_span = None
                if tracer is not None:
                    hop_span = tracer.begin(
                        "rpc.sibling_hop", f"vm{self.id}",
                        parent=trace_parent, deployment=deployment,
                        server=server.id,
                    )
                yield self.env.timeout(self.latency.intra_vm())
                if tracer is not None:
                    tracer.end(hop_span)
                return connection
        return None
