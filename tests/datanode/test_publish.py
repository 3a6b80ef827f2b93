"""Block-report publishing when the metadata store rejects the write."""

import random

import pytest

from repro.datanode import DataNodeFleet, DataNodeFleetConfig
from repro.metastore import NdbStore, ndb
from repro.resilience import ResilienceConfig, ResilienceManager, primitives
from repro.sim import Environment

pytestmark = pytest.mark.datanode


def test_fleet_drops_aborted_reports_instead_of_crashing(monkeypatch):
    """Every shard breaker is open for the first 5 s, so each of the 3
    nodes' reports at 0 and 3,000 ms aborts and is dropped, as the
    legacy ``DataNodeService`` does."""
    monkeypatch.setattr(ndb, "RTT_MS", 0.0)
    monkeypatch.setattr(primitives, "BREAKER_FAILURE_THRESHOLD", 1)
    monkeypatch.setattr(primitives, "BREAKER_OPEN_MS", 5_000.0)
    env = Environment()
    store = NdbStore(env)
    store.resilience = ResilienceManager(
        env, ResilienceConfig(), random.Random(0))
    for index in range(store.config.shards):
        store.resilience.breaker("shard", str(index)).record_failure(0.0)
    fleet = DataNodeFleet(env, DataNodeFleetConfig(count=3), store=store)
    fleet.start()
    env.run(until=4_000.0)
    assert fleet.reports_published == 0
    assert fleet.reports_dropped == 6
