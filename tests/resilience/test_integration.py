"""Resilience mechanisms on the live stack (docs/resilience.md).

These drive a real :class:`LambdaFS` with the resilience control
plane attached and verify the enforcement behaviors the chaos gate
relies on: sheds never reach the metastore, expired deadlines are
refused before execution, degraded reads stay within the declared
staleness bound (checked by the coherence checker, not trusted), and
the tracer's connection-leak tripwire reads zero after teardown.
"""

import pytest

from repro.coordination.coordinator import Invalidation
from repro.core import LambdaFS, LambdaFSConfig, OpType
from repro.core.client import ClientConfig
from repro.core.messages import MetadataRequest
from repro.core.namenode import STALE_READ_BOUND_MS
from repro.core.maintenance import REPORT_INTERVAL_MS
from repro.faas import FaaSConfig, platform
from repro.metastore import ndb
from repro.metastore.errors import TransactionAborted
from repro.resilience import ResilienceConfig
from repro.sim import Environment
from repro.trace import install_tracer

pytestmark = pytest.mark.resilience


@pytest.fixture(autouse=True)
def fast_cluster(monkeypatch):
    """A 10 ms app init and a 0.2 ms store round trip."""
    monkeypatch.setattr(platform, "APP_INIT_MS", 10.0)
    monkeypatch.setattr(ndb, "RTT_MS", 0.2)


def make_fs(env, **overrides):
    defaults = dict(
        num_deployments=2,
        resilience=ResilienceConfig(),
        faas=FaaSConfig(
            cluster_vcpus=64.0,
            vcpus_per_instance=4.0,
            concurrency_level=4,
            cold_start_min_ms=50.0,
            cold_start_max_ms=80.0,
            idle_reclaim_ms=60_000.0,
        ),
        client=ClientConfig(replacement_probability=0.0),
    )
    defaults.update(overrides)
    fs = LambdaFS(env, LambdaFSConfig(**defaults))
    fs.format()
    fs.start()
    return fs


def drive(env, generator):
    box = {}

    def proc(env):
        box["value"] = yield from generator

    done = env.process(proc(env))
    env.run(until=done)
    return box["value"]


def warm_instance(env, fs, deployment_index=0):
    """Prewarm and return one live NameNode instance."""
    drive(env, fs.prewarm())
    name = fs.partitioner.deployment_names()[deployment_index]
    return fs.platform.deployments[name].instances[0]


def force_pressure(namenode):
    """Latch a NameNode's CoDel shedder into the shedding state.

    ``target_ms = -1`` keeps every subsequent delay observation at or
    above target, so the in-handler observe() call cannot un-latch the
    state mid-test.
    """
    shedder = namenode._shedder
    shedder.target_ms = -1.0
    shedder.first_above_ms = 0.0
    shedder.shedding = True
    shedder.drop_next_ms = 0.0


def test_requests_are_stamped_with_absolute_deadline(monkeypatch):
    env = Environment()
    fs = make_fs(env)
    client = fs.new_client()
    stamped = []
    original = fs.resilience.stamp

    def spy(request):
        original(request)
        stamped.append((env.now, request.deadline_ms))

    monkeypatch.setattr(fs.resilience, "stamp", spy)
    result = drive(env, client.mkdirs("/d"))
    assert result.ok
    assert stamped
    for issued_at, deadline in stamped:
        assert deadline == issued_at + fs.config.resilience.deadline_ms


def test_shed_at_admission_never_reaches_the_store():
    env = Environment()
    fs = make_fs(env)
    instance = warm_instance(env, fs)
    force_pressure(instance.app)

    request = MetadataRequest(op=OpType.MKDIRS, path="/shedded",
                             request_id=env.next_id("request"),
                             client_id="probe")
    response = drive(env, instance.serve(request, via="tcp"))
    assert response.shed and not response.ok
    assert fs.resilience.sheds == 1

    # The refused write must have left no trace in the metastore: a
    # fresh (un-pressured) client sees the path as never created.
    instance.app._shedder.shedding = False
    instance.app._shedder.target_ms = 1e9
    client = fs.new_client()
    result = drive(env, client.stat("/shedded"))
    assert not result.ok and "NotFound" in result.error


def test_expired_deadline_is_refused_before_execution():
    env = Environment()
    fs = make_fs(env)
    instance = warm_instance(env, fs)

    def scenario(env):
        yield env.timeout(10.0)
        request = MetadataRequest(op=OpType.CREATE_FILE, path="/late",
                                 request_id=env.next_id("request"),
                                 client_id="probe",
                                 deadline_ms=env.now - 1.0)
        response = yield from instance.serve(request, via="tcp")
        return response

    response = drive(env, scenario(env))
    assert response.shed and not response.ok
    assert "deadline" in response.error
    assert fs.resilience.deadline_expirations == 1
    assert fs.resilience.sheds == 1

    client = fs.new_client()
    result = drive(env, client.stat("/late"))
    assert not result.ok and "NotFound" in result.error


def test_bounded_stale_read_verified_by_coherence_checker():
    env = Environment()
    tracer = install_tracer(env)
    fs = make_fs(env)
    instance = warm_instance(env, fs)
    namenode = instance.app
    client = fs.new_client()

    def scenario(env):
        yield from client.mkdirs("/d")
        yield from client.create_file("/d/f")
        first = yield from client.stat("/d/f")
        assert first.ok and not first.stale
        return True

    assert drive(env, scenario(env))

    # Deliver a real invalidation through the follower-side handler
    # (snapshot for bounded-staleness serving + cache drop), emitting
    # the same ``coord.inv_deliver`` point the coordinator would so
    # the checker records the invalidation time itself.
    assert namenode.cache.peek("/d/f") is not None
    tracer.point("coord.inv_deliver", namenode.member_id,
                 member=namenode.member_id, paths=("/d/f",))
    namenode._on_invalidation(
        Invalidation(inv_id=999, deployment=namenode.deployment_name,
                     paths=("/d/f",))
    )
    assert namenode.cache.peek("/d/f") is None
    force_pressure(namenode)

    def degraded(env):
        yield env.timeout(100.0)
        return (yield from instance.serve(
            MetadataRequest(op=OpType.STAT, path="/d/f",
                            request_id=env.next_id("request"),
                            client_id="probe"),
            via="tcp",
        ))

    response = drive(env, degraded(env))
    assert response.ok and response.stale
    bound = STALE_READ_BOUND_MS
    assert 0.0 < response.staleness_ms <= bound
    assert fs.resilience.stale_reads == 1
    # The checker *verified* the bound (it saw the bounded_stale hit);
    # a violation here would mean the degradation served too-old data.
    coherence = tracer.checkers[0]
    assert coherence.stale_hits_ok == 1
    assert tracer.violations() == []


def test_stale_snapshot_beyond_bound_is_not_served():
    env = Environment()
    fs = make_fs(env)
    instance = warm_instance(env, fs)
    namenode = instance.app
    client = fs.new_client()

    def setup(env):
        yield from client.mkdirs("/d")
        yield from client.create_file("/d/f")
        yield from client.stat("/d/f")
        return True

    assert drive(env, setup(env))
    namenode._on_invalidation(
        Invalidation(inv_id=999, deployment=namenode.deployment_name,
                     paths=("/d/f",))
    )
    force_pressure(namenode)

    def late_read(env):
        # Sleep past the staleness bound: the snapshot is now useless
        # and the read must take the normal store path instead.
        yield env.timeout(STALE_READ_BOUND_MS + 1.0)
        return (yield from instance.serve(
            MetadataRequest(op=OpType.STAT, path="/d/f",
                            request_id=env.next_id("request"),
                            client_id="probe"),
            via="tcp",
        ))

    response = drive(env, late_read(env))
    assert not response.stale
    assert fs.resilience.stale_reads == 0


def test_tracer_connection_counter_zero_after_teardown():
    env = Environment()
    tracer = install_tracer(env)
    fs = make_fs(env)
    client = fs.new_client()

    def scenario(env):
        yield from client.mkdirs("/d")
        yield from client.create_file("/d/f")
        yield from client.stat("/d/f")
        return True

    assert drive(env, scenario(env))
    # Connect-backs opened real TCP connections; the counter must
    # agree with the servers' own live-connection accounting.
    live = sum(server.connection_count() for server in client.vm.servers)
    assert tracer.open_connections == live > 0
    assert tracer.summary()["open_connections"] == live

    # Healthy teardown closes every connection the instances held.
    for instance in list(fs.all_instances()):
        instance.terminate(reason="test")
    assert tracer.open_connections == 0


def test_datanode_reports_survive_store_outage(monkeypatch):
    env = Environment()
    fs = make_fs(env)

    def always_aborts(*args, **kwargs):
        raise TransactionAborted("store unreachable")
        yield  # pragma: no cover - marks this as a generator function

    monkeypatch.setattr(fs.store, "run_transaction", always_aborts)
    env.run(until=REPORT_INTERVAL_MS * 3 + 1.0)
    # Every edition failed, none killed the reporter loops.
    assert fs.datanodes.reports_published == 0
    assert fs.datanodes.reports_dropped >= fs.datanodes.config.count * 3
