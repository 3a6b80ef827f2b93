"""Block-report publishing when the metadata store rejects the write."""

import random

import pytest

from repro.datanode import DataNodeFleet, DataNodeFleetConfig
from repro.metastore import NdbConfig, NdbStore
from repro.resilience import ResilienceConfig, ResilienceManager
from repro.sim import Environment

pytestmark = pytest.mark.datanode


def test_fleet_drops_aborted_reports_instead_of_crashing():
    """Every shard breaker is open for the first 5 s, so each of the 3
    nodes' reports at 0 and 3,000 ms aborts and is dropped, as the
    legacy ``DataNodeService`` does."""
    env = Environment()
    store = NdbStore(env, NdbConfig(rtt_ms=0.0))
    config = ResilienceConfig(breaker_failure_threshold=1,
                              breaker_open_ms=5_000.0)
    store.resilience = ResilienceManager(env, config, random.Random(0))
    for index in range(store.config.shards):
        store.resilience.breaker("shard", str(index)).record_failure(0.0)
    fleet = DataNodeFleet(env, DataNodeFleetConfig(count=3), store=store)
    fleet.start()
    env.run(until=4_000.0)
    assert fleet.reports_published == 0
    assert fleet.reports_dropped == 6
