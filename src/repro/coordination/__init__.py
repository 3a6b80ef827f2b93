"""The "Coordinator" service (§3.5).

λFS uses a coordination service to (a) track which NameNode instances
are alive in which deployments and (b) deliver the INV/ACK messages of
the cache-coherence protocol.  The paper deploys ZooKeeper; its
latencies are the module constants beside the Coordinator.
"""

from repro.coordination.coordinator import (
    Coordinator,
    CoordinatorConfig,
    Invalidation,
)

__all__ = [
    "Coordinator",
    "CoordinatorConfig",
    "Invalidation",
]
