"""Shared machinery for serverful metadata-server baselines."""

from __future__ import annotations

from typing import Callable, Generator

from repro.sim import Environment, Resource


class MetadataServer:
    """One serverful metadata server (a VM-hosted Java process).

    CPU is a slot pool sized by vCPUs; ``rpc_handlers`` caps how many
    requests are concurrently in flight (HopsFS NameNodes run 200
    handler threads).  Excess requests queue at the handler pool, so
    overload shows up as latency, exactly like a saturated server.
    """

    def __init__(
        self,
        env: Environment,
        vcpus: int,
        rpc_handlers: int,
        cpu_ms_per_op: float,
    ) -> None:
        self.env = env
        self.id = f"mds{env.next_id('mds')}"
        self.cpu = Resource(env, capacity=max(1, int(vcpus)))
        self.handlers = Resource(env, capacity=rpc_handlers)
        self.cpu_ms_per_op = cpu_ms_per_op
        self.requests_served = 0
        self.busy_cpu_ms = 0.0

    def serve(self, body: Callable[[], Generator]) -> Generator:
        """Admit one request: handler slot, base CPU, then ``body``."""
        with self.handlers.request() as handler:
            yield handler
            yield from self.compute(self.cpu_ms_per_op)
            result = yield from body()
            self.requests_served += 1
            return result

    def compute(self, cpu_ms: float) -> Generator:
        if cpu_ms <= 0:
            return
        with self.cpu.request() as slot:
            yield slot
            self.busy_cpu_ms += cpu_ms
            yield self.env.timeout(cpu_ms)

