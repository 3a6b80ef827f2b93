"""Fixtures shared across the suite."""

import itertools

import pytest


@pytest.fixture
def reset_sim_counters(monkeypatch):
    """Reset global id counters so two runs in one process are comparable.

    Call the returned function to reset them again between runs.
    """
    from repro.core import client as client_mod
    from repro.core import messages
    from repro.faas import platform as platform_mod
    from repro.rpc import connections

    def reset():
        monkeypatch.setattr(
            client_mod.LambdaFSClient, "_ids", itertools.count(1))
        monkeypatch.setattr(connections.TcpConnection, "_ids", itertools.count(1))
        monkeypatch.setattr(connections.TcpServer, "_ids", itertools.count(1))
        monkeypatch.setattr(connections.ClientVM, "_ids", itertools.count(1))
        monkeypatch.setattr(
            platform_mod.FunctionInstance, "_ids", itertools.count(1))
        monkeypatch.setattr(messages, "_request_ids", itertools.count(1))

    reset()
    return reset
