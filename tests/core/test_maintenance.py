"""Unit tests for serverless-compatible DFS maintenance."""

import pytest

from repro.core import maintenance
from repro.core.maintenance import BlockReport, DataNodeConfig, DataNodeService
from repro.metastore import NdbStore, ndb
from repro.sim import Environment


@pytest.fixture(autouse=True)
def instant_store(monkeypatch):
    """A store with no round trip."""
    monkeypatch.setattr(ndb, "RTT_MS", 0.0)


def test_datanodes_publish_reports(monkeypatch):
    monkeypatch.setattr(maintenance, "REPORT_INTERVAL_MS", 100.0)
    env = Environment()
    store = NdbStore(env)
    service = DataNodeService(env, store, DataNodeConfig(count=3))
    service.start()
    env.run(until=1_000)
    assert service.reports_published >= 3 * 9
    for datanode_id in service.datanode_ids:
        report = store.peek(("datanode", datanode_id))
        assert isinstance(report, BlockReport)
        assert report.healthy


def test_reports_refresh_over_time(monkeypatch):
    monkeypatch.setattr(maintenance, "REPORT_INTERVAL_MS", 50.0)
    env = Environment()
    store = NdbStore(env)
    service = DataNodeService(env, store, DataNodeConfig(count=1))
    service.start()
    env.run(until=100)
    first = store.peek(("datanode", "dn0")).published_at_ms
    env.run(until=300)
    second = store.peek(("datanode", "dn0")).published_at_ms
    assert second > first


def test_start_is_idempotent(monkeypatch):
    monkeypatch.setattr(maintenance, "REPORT_INTERVAL_MS", 100.0)
    env = Environment()
    store = NdbStore(env)
    service = DataNodeService(env, store, DataNodeConfig(count=1))
    service.start()
    service.start()
    env.run(until=250)
    # One loop, not two: ~3 reports in 250 ms, not ~6.
    assert service.reports_published <= 4
