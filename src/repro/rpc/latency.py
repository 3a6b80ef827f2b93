"""Network latency distributions.

Calibrated from §3.2: end-to-end read latency was 1–2 ms over TCP and
8–20 ms over HTTP; TCP also shows much lower variance.  One-way
network components are set so that round trips (plus server-side
processing) land in those windows.
"""

from __future__ import annotations

import random

TCP_ONEWAY_MIN_MS = 0.25
TCP_ONEWAY_MAX_MS = 0.55
HTTP_ONEWAY_MIN_MS = 3.5
HTTP_ONEWAY_MAX_MS = 8.5
#: Extra queueing/routing at the FaaS API gateway per invocation.
GATEWAY_OVERHEAD_MS = 0.8
#: Hop between co-located TCP servers (connection sharing).
INTRA_VM_MS = 0.05


class LatencyModel:
    """Draws latencies from a dedicated RNG stream.

    The bound ``uniform`` method and the module's bounds are cached at
    construction (the per-draw handles of docs/kernel.md): ``tcp_oneway``
    runs several times per simulated RPC, and the cached handle makes
    each draw one call with two float locals instead of four attribute
    chases.  The draw sequence is identical to calling
    ``rng.uniform`` directly.
    """

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self._uniform = rng.uniform
        self._tcp_lo = TCP_ONEWAY_MIN_MS
        self._tcp_hi = TCP_ONEWAY_MAX_MS
        self._http_lo = HTTP_ONEWAY_MIN_MS
        self._http_hi = HTTP_ONEWAY_MAX_MS

    def tcp_oneway(self) -> float:
        return self._uniform(self._tcp_lo, self._tcp_hi)

    def http_oneway(self) -> float:
        return self._uniform(self._http_lo, self._http_hi)

    def gateway(self) -> float:
        return GATEWAY_OVERHEAD_MS

    def intra_vm(self) -> float:
        return INTRA_VM_MS
