"""Unit tests for the RPC fabric (latency and connections)."""

import random

import pytest

from repro.rpc import (
    ClientVM,
    ConnectionDropped,
    LatencyModel,
    TcpServer,
    latency,
)
from repro.sim import Environment


class FakeInstance:
    """Minimal NameNode stand-in for connection tests."""

    def __init__(self, env, deployment_name="NameNode0", service_ms=1.0):
        self.env = env
        self.deployment_name = deployment_name
        self.service_ms = service_ms
        self.is_alive = True
        self.served = []
        self.connections = []

    def serve(self, request, via):
        yield self.env.timeout(self.service_ms)
        self.served.append((request, via))
        return f"ok:{request}"

    def attach_connection(self, connection):
        self.connections.append(connection)


@pytest.fixture
def fixed_latency(monkeypatch):
    """A latency model with fixed draws: 0.5 ms TCP, 5 ms HTTP, 1 ms
    gateway and 0.1 ms intra-VM."""
    for name, value in dict(
        TCP_ONEWAY_MIN_MS=0.5, TCP_ONEWAY_MAX_MS=0.5,
        HTTP_ONEWAY_MIN_MS=5.0, HTTP_ONEWAY_MAX_MS=5.0,
        GATEWAY_OVERHEAD_MS=1.0, INTRA_VM_MS=0.1,
    ).items():
        monkeypatch.setattr(latency, name, value)
    return LatencyModel(random.Random(0))


def test_latency_draws_within_bounds():
    model = LatencyModel(random.Random(0))
    for _ in range(100):
        assert 0.25 <= model.tcp_oneway() <= 0.55
        assert 3.5 <= model.http_oneway() <= 8.5


def test_tcp_call_roundtrip_latency(fixed_latency):
    env = Environment()
    vm = ClientVM(env, fixed_latency)
    server = vm.assign_server()
    instance = FakeInstance(env)
    connection = server.connect_from(instance)
    results = []

    def client(env):
        response = yield from connection.call("req1")
        results.append((env.now, response))

    env.process(client(env))
    env.run()
    # 0.5 out + 1.0 service + 0.5 back = 2.0 ms.
    assert results == [(2.0, "ok:req1")]
    assert instance.served == [("req1", "tcp")]


def test_call_on_dead_instance_raises(fixed_latency):
    env = Environment()
    vm = ClientVM(env, fixed_latency)
    server = vm.assign_server()
    instance = FakeInstance(env)
    connection = server.connect_from(instance)
    instance.is_alive = False
    failures = []

    def client(env):
        try:
            yield from connection.call("req")
        except ConnectionDropped:
            failures.append(env.now)

    env.process(client(env))
    env.run()
    assert failures == [0]
    assert server.find("NameNode0") is None  # connection dropped


def test_connect_from_dedupes_same_instance(fixed_latency):
    env = Environment()
    vm = ClientVM(env, fixed_latency)
    server = vm.assign_server()
    instance = FakeInstance(env)
    c1 = server.connect_from(instance)
    c2 = server.connect_from(instance)
    assert c1 is c2
    assert server.connection_count() == 1


def test_clients_per_server_spawns_servers(fixed_latency):
    env = Environment()
    vm = ClientVM(env, fixed_latency,
                  clients_per_server=2)
    servers = [vm.assign_server() for _ in range(5)]
    assert servers[0] is servers[1]
    assert servers[2] is servers[3]
    assert servers[4] is not servers[0]
    assert len(vm.servers) == 3


def test_connection_sharing_across_servers(fixed_latency):
    env = Environment()
    vm = ClientVM(env, fixed_latency,
                  clients_per_server=1)
    own = vm.assign_server()
    other = vm.assign_server()
    instance = FakeInstance(env, deployment_name="NameNode5")
    other.connect_from(instance)
    found = []

    def client(env):
        connection = yield from vm.find_shared("NameNode5", own)
        found.append((env.now, connection))

    env.process(client(env))
    env.run()
    assert found[0][1] is not None
    assert found[0][0] == pytest.approx(0.1)  # one intra-VM hop


def test_find_shared_prefers_own_server(fixed_latency):
    env = Environment()
    vm = ClientVM(env, fixed_latency,
                  clients_per_server=1)
    own = vm.assign_server()
    vm.assign_server()
    instance = FakeInstance(env)
    own.connect_from(instance)
    found = []

    def client(env):
        connection = yield from vm.find_shared("NameNode0", own)
        found.append((env.now, connection))

    env.process(client(env))
    env.run()
    assert found[0][0] == 0  # no intra-VM hop paid


def test_find_shared_returns_none_when_absent(fixed_latency):
    env = Environment()
    vm = ClientVM(env, fixed_latency)
    own = vm.assign_server()
    result = []

    def client(env):
        connection = yield from vm.find_shared("NameNode9", own)
        result.append(connection)

    env.process(client(env))
    env.run()
    assert result == [None]


def test_vm_rejects_bad_clients_per_server():
    env = Environment()
    with pytest.raises(ValueError):
        ClientVM(env, LatencyModel(random.Random(0)), clients_per_server=0)


def test_find_rotates_over_live_connections(fixed_latency):
    env = Environment()
    vm = ClientVM(env, fixed_latency)
    server = vm.assign_server()
    first = FakeInstance(env, deployment_name="NN7")
    second = FakeInstance(env, deployment_name="NN7")
    c1 = server.connect_from(first)
    # connect_from dedupes per deployment+instance; add a second
    # instance's connection.
    c2 = server.connect_from(second)
    picks = [server.find("NN7") for _ in range(4)]
    # Round-robin spreads load across both connections.
    assert picks[0] is not picks[1]
    assert picks[0] is picks[2]
    assert {picks[0], picks[1]} == {c1, c2}


def test_find_skips_dead_connection_in_rotation(fixed_latency):
    env = Environment()
    vm = ClientVM(env, fixed_latency)
    server = vm.assign_server()
    alive = FakeInstance(env, deployment_name="NN8")
    dying = FakeInstance(env, deployment_name="NN8")
    server.connect_from(alive)
    server.connect_from(dying)
    dying.is_alive = False
    for _ in range(4):
        connection = server.find("NN8")
        assert connection.instance is alive
