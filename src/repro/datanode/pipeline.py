"""Pipelined chunk writes: client → DN1 → DN2 → DN3 ack chain.

HDFS writes stream a block down a replica pipeline: the client sends
to the first DataNode, which forwards to the second while persisting
locally, and acks travel back up the chain.  The simulation keeps the
same shape at chunk granularity — one forward network hop plus one
disk write per position, then an ack hop back per surviving node —
so per-stage tracer spans (``dn.pipeline`` → ``dn.xfer`` /
``dn.disk`` / ``dn.ack``) attribute the latency exactly.

The chain breaks at the first dead node: downstream replicas are
simply not written (partial success), which is what leaves blocks
under-replicated for the scanner to repair.  Every stage is a pure
timeout, so a pipeline can never wedge the run's liveness gate.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, List, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from repro.datanode.fleet import DataNodeFleet

#: One network hop (client→DN1, DN→DN), plus a seeded jitter draw of
#: up to ``NET_JITTER_MS``; an ack hop back up the chain is cheaper.
NET_MS_PER_HOP = 0.8
NET_JITTER_MS = 0.2
ACK_MS_PER_HOP = 0.2


def write_pipeline(
    fleet: "DataNodeFleet",
    block_id: int,
    targets: Sequence[str],
    actor: str,
) -> Generator:
    """Write one chunk of ``block_id`` through the target pipeline.

    Returns the list of DataNode ids that durably stored the replica
    (a prefix of ``targets``; empty if DN1 was already dead).
    """
    env = fleet.env
    tracer = env.tracer
    metrics = env.metrics
    root = None
    if tracer is not None:
        root = tracer.begin(
            "dn.pipeline", actor, block=block_id, width=len(targets)
        )
    stored: List[str] = []
    for position, node_id in enumerate(targets):
        # Forward network hop (client→DN1, then DN→DN).
        hop_ms = NET_MS_PER_HOP + fleet.rng.uniform(0.0, NET_JITTER_MS)
        xfer = None
        if tracer is not None:
            xfer = tracer.begin(
                "dn.xfer", node_id, parent=root, block=block_id, position=position
            )
        yield env.timeout(hop_ms)
        if tracer is not None:
            tracer.end(xfer)
        node = fleet.node(node_id)
        if node is None or not node.alive:
            # Chain breaks here; downstream targets never see the chunk.
            if tracer is not None:
                tracer.point(
                    "dn.pipeline_break", node_id, parent=root, position=position
                )
            if metrics is not None:
                metrics.inc("dn_pipeline_breaks_total")
            break
        disk = None
        if tracer is not None:
            disk = tracer.begin("dn.disk", node_id, parent=root, block=block_id)
        ok = yield from node.write_chunk(block_id)
        if tracer is not None:
            tracer.end(disk, ok=ok)
        if not ok:
            break
        stored.append(node_id)
    # Ack chain back up through the surviving prefix.
    for node_id in reversed(stored):
        yield env.timeout(ACK_MS_PER_HOP)
        if tracer is not None:
            tracer.point("dn.ack", node_id, parent=root, block=block_id)
    if stored:
        fleet.register_replicas(block_id, stored)
    if metrics is not None:
        metrics.inc("dn_chunks_total", amount=float(len(stored)))
        if len(stored) < len(targets):
            metrics.inc("dn_partial_pipelines_total")
    if tracer is not None:
        tracer.end(root, stored=len(stored))
    return stored
