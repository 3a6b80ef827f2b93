"""Serverless-compatible DFS maintenance (§1, §3).

Serverful NameNodes hold open heartbeat connections to DataNodes;
serverless NameNodes cannot (they come and go).  λFS re-implements
block reports and DataNode discovery by having DataNodes publish
their reports to the persistent metadata store on a regular
interval; NameNodes read the published rows when they need a fresh
view of the data layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, List, Optional

from repro.metastore.errors import TransactionAborted
from repro.metastore.ndb import NdbStore
from repro.sim import Environment


@dataclass(frozen=True)
class DataNodeConfig:
    count: int = 4
    report_interval_ms: float = 3_000.0
    blocks_per_report: int = 64


@dataclass
class BlockReport:
    """One published DataNode report row."""

    datanode_id: str
    published_at_ms: float
    block_count: int
    healthy: bool = True
    rack: Optional[str] = None
    """Rack label, when the publisher knows it (NameNodes then place
    replicas rack-aware, matching the fleet's own placement)."""


class DataNodeService:
    """Simulated DataNodes publishing reports into the store."""

    def __init__(
        self,
        env: Environment,
        store: NdbStore,
        config: DataNodeConfig | None = None,
    ) -> None:
        self.env = env
        self.store = store
        self.config = config or DataNodeConfig()
        self.datanode_ids: List[str] = [
            f"dn{index}" for index in range(self.config.count)
        ]
        self._started = False
        self.reports_published = 0
        self.reports_dropped = 0

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        for datanode_id in self.datanode_ids:
            self.env.process(self._report_loop(datanode_id))

    def _report_loop(self, datanode_id: str) -> Generator:
        while True:
            report = BlockReport(
                datanode_id=datanode_id,
                published_at_ms=self.env.now,
                block_count=self.config.blocks_per_report,
            )

            def body(txn, row=report):
                yield from txn.write(("datanode", row.datanode_id), row)

            try:
                yield from self.store.run_transaction(body)
            except TransactionAborted:
                # The store can stay unreachable past the txn retry
                # budget (shard outage, open circuit breaker).  A block
                # report is periodic soft state — drop this edition and
                # publish a fresh one next interval instead of letting
                # the reporter process die with the exception.
                self.reports_dropped += 1
            else:
                self.reports_published += 1
            yield self.env.timeout(self.config.report_interval_ms)
