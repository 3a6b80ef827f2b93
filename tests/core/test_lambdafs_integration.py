"""Integration tests: the full λFS stack on the simulator."""

import pytest

from repro.core import LambdaFS, LambdaFSConfig, OpType
from repro.core.client import ClientConfig
from repro.core.messages import MetadataRequest
from repro.core.namenode import NameNodeConfig
from repro.faas import FaaSConfig, platform
from repro.metastore import ndb
from repro.sim import Environment


@pytest.fixture(autouse=True)
def fast_cluster(monkeypatch):
    """A 10 ms app init and a 0.2 ms store round trip."""
    monkeypatch.setattr(platform, "APP_INIT_MS", 10.0)
    monkeypatch.setattr(ndb, "RTT_MS", 0.2)


def make_fs(env, **overrides):
    """A λFS with fast cold starts so tests stay quick."""
    defaults = dict(
        num_deployments=4,
        faas=FaaSConfig(
            cluster_vcpus=128.0,
            vcpus_per_instance=4.0,
            concurrency_level=2,
            cold_start_min_ms=50.0,
            cold_start_max_ms=80.0,
            idle_reclaim_ms=60_000.0,
        ),
        client=ClientConfig(replacement_probability=0.01),
    )
    defaults.update(overrides)
    fs = LambdaFS(env, LambdaFSConfig(**defaults))
    fs.format()
    fs.start()
    return fs


def drive(env, generator):
    """Run a client generator to completion, return its value."""
    box = {}

    def proc(env):
        box["value"] = yield from generator

    done = env.process(proc(env))
    env.run(until=done)
    return box["value"]


def test_basic_lifecycle():
    env = Environment()
    fs = make_fs(env)
    client = fs.new_client()

    def scenario(env):
        r = yield from client.mkdirs("/data")
        assert r.ok
        r = yield from client.create_file("/data/f")
        assert r.ok
        r = yield from client.stat("/data/f")
        assert r.ok and r.value.name == "f"
        r = yield from client.ls("/data")
        assert r.ok and r.value == ["f"]
        r = yield from client.delete("/data/f")
        assert r.ok
        r = yield from client.stat("/data/f")
        assert not r.ok and "NotFound" in r.error
        return True

    assert drive(env, scenario(env))


def test_second_read_hits_cache():
    env = Environment()
    fs = make_fs(env)
    client = fs.new_client()

    def scenario(env):
        yield from client.mkdirs("/d")
        yield from client.create_file("/d/f")
        first = yield from client.stat("/d/f")
        second = yield from client.stat("/d/f")
        return first, second

    first, second = drive(env, scenario(env))
    assert second.ok
    # Same deployment serves both; the second must be a cache hit.
    assert second.cache_hit


def test_strong_consistency_across_clients():
    """A write by one client invalidates another NameNode's cache."""
    env = Environment()
    fs = make_fs(env)
    client_a = fs.new_client()
    client_b = fs.new_client(fs.new_vm())

    def scenario(env):
        yield from client_a.mkdirs("/d")
        yield from client_a.create_file("/d/f")
        # b caches /d/f by reading it.
        r1 = yield from client_b.stat("/d/f")
        assert r1.ok
        # a moves the file; the coherence protocol must invalidate
        # every cached copy before the write persists.
        r2 = yield from client_a.mv("/d/f", "/d/g")
        assert r2.ok, r2.error
        r3 = yield from client_b.stat("/d/f")
        r4 = yield from client_b.stat("/d/g")
        return r3, r4

    r3, r4 = drive(env, scenario(env))
    assert not r3.ok  # stale path must be gone everywhere
    assert r4.ok and r4.value.name == "g"


def test_invalidations_are_sent_for_writes():
    env = Environment()
    fs = make_fs(env)
    client = fs.new_client()

    def scenario(env):
        yield from client.mkdirs("/d")
        # Warm a second instance in the same deployment by reading
        # via HTTP-ish path: just ensure at least the leader exists.
        yield from client.create_file("/d/f")

    drive(env, scenario(env))
    assert fs.coordinator.invs_sent >= 0  # protocol ran without deadlock
    assert fs.metrics.records  # ops recorded


def test_subtree_delete_removes_descendants():
    env = Environment()
    fs = make_fs(env)
    client = fs.new_client()

    def scenario(env):
        yield from client.mkdirs("/top/sub")
        yield from client.create_file("/top/f1")
        yield from client.create_file("/top/sub/f2")
        r = yield from client.execute(OpType.DELETE, "/top", recursive=True)
        assert r.ok, r.error
        r1 = yield from client.stat("/top")
        r2 = yield from client.stat("/top/sub/f2")
        return r1, r2

    r1, r2 = drive(env, scenario(env))
    assert not r1.ok
    assert not r2.ok


def test_subtree_mv_renames_whole_tree():
    env = Environment()
    fs = make_fs(env)
    client = fs.new_client()

    def scenario(env):
        yield from client.mkdirs("/old/inner")
        yield from client.create_file("/old/inner/f")
        r = yield from client.mv("/old", "/new")
        assert r.ok, r.error
        moved = yield from client.stat("/new/inner/f")
        gone = yield from client.stat("/old/inner/f")
        return moved, gone

    moved, gone = drive(env, scenario(env))
    assert moved.ok
    assert not gone.ok


def test_mv_file_is_not_subtree():
    env = Environment()
    fs = make_fs(env)
    client = fs.new_client()

    def scenario(env):
        yield from client.mkdirs("/d")
        yield from client.create_file("/d/f")
        before = fs.store.stats.commits
        r = yield from client.mv("/d/f", "/d/g")
        assert r.ok
        return fs.store.stats.commits - before

    commits = drive(env, scenario(env))
    # Single-INode mv is one transaction, not the multi-phase
    # subtree protocol.
    assert commits == 1


def test_namenode_failure_is_transparent():
    env = Environment()
    fs = make_fs(env)
    client = fs.new_client()

    def scenario(env):
        yield from client.mkdirs("/d")
        yield from client.create_file("/d/f")
        # Kill every live NameNode; the next request must recover
        # via HTTP fallback and a fresh instance.
        for deployment in fs.platform.deployments.values():
            for instance in deployment.live_instances():
                instance.terminate(reason="fault")
        r = yield from client.stat("/d/f")
        return r

    response = drive(env, scenario(env))
    assert response.ok
    assert response.value.name == "f"


def test_failure_mid_request_retries():
    env = Environment()
    fs = make_fs(env)
    client = fs.new_client()

    def killer(env):
        # Kill NameNodes repeatedly while ops are in flight.
        for _ in range(5):
            yield env.timeout(40)
            for deployment in fs.platform.deployments.values():
                for instance in deployment.live_instances():
                    instance.terminate(reason="fault")

    def scenario(env):
        results = []
        yield from client.mkdirs("/d")
        for index in range(10):
            r = yield from client.create_file(f"/d/f{index}")
            results.append(r.ok)
        return results

    env.process(killer(env))
    results = drive(env, scenario(env))
    assert all(results)


def test_autoscaling_provisions_beyond_one_per_deployment():
    env = Environment()
    fs = make_fs(env, client=ClientConfig(replacement_probability=1.0))
    # replacement=1.0 -> every RPC is HTTP, maximal scaling signal.
    fs_dir = "/hot"
    clients = [fs.new_client(fs.new_vm()) for _ in range(8)]

    def setup(env):
        yield from clients[0].mkdirs(fs_dir)
        for index in range(8):
            yield from clients[0].create_file(f"{fs_dir}/f{index}")

    drive(env, setup(env))

    def reader(client, index):
        for _ in range(30):
            yield from client.read_file(f"{fs_dir}/f{index}")

    procs = [env.process(reader(client, i)) for i, client in enumerate(clients)]
    for proc in procs:
        env.run(until=proc) if not proc.triggered else None
    hot_deployment = fs.partitioner.deployment_for(f"{fs_dir}/f0")
    deployment = fs.platform.deployments[hot_deployment]
    assert len(deployment.all_instances) >= 2


def test_tcp_is_preferred_after_connect_back():
    env = Environment()
    fs = make_fs(env, client=ClientConfig(replacement_probability=0.0))
    client = fs.new_client()

    def scenario(env):
        yield from client.mkdirs("/d")
        yield from client.create_file("/d/f")
        for _ in range(20):
            yield from client.stat("/d/f")

    drive(env, scenario(env))
    # After first contact the NameNode connected back; with
    # replacement probability 0 every further RPC to that deployment
    # uses TCP.
    assert client.stats_tcp_rpcs > 10


def test_result_cache_dedupes_resubmission():
    env = Environment()
    fs = make_fs(env)
    client = fs.new_client()

    def scenario(env):
        yield from client.mkdirs("/d")
        return True

    drive(env, scenario(env))
    # Send the same request twice directly to a NameNode.
    deployment = fs.platform.deployments[fs.partitioner.deployment_for("/d/f")]
    from repro.core.messages import MetadataRequest

    request = MetadataRequest(op=OpType.CREATE_FILE, path="/d/f",
                              request_id=env.next_id("request"))
    out = {}

    def direct(env):
        r1, instance = yield from fs.platform.invoke(
            fs.partitioner.deployment_for("/d/f"), request
        )
        r2, _ = yield from fs.platform.invoke(
            fs.partitioner.deployment_for("/d/f"), request
        )
        out["pair"] = (r1, r2)

    done = env.process(direct(env))
    env.run(until=done)
    r1, r2 = out["pair"]
    assert r1.ok
    # Identical request_id: the retained result is returned, the op
    # is NOT re-executed (no AlreadyExists error).
    assert r2.ok and r2.value is r1.value


def _invoke_then_replay(env, fs, request, replay_on=lambda served: served,
                        gap_ms=0.0, between=None):
    """Invoke ``request`` on its deployment, wait ``gap_ms`` (running
    ``between`` if given), then deliver the same request object again
    over TCP to ``replay_on(serving instance)``."""
    deployment = fs.partitioner.deployment_for(request.path)

    def scenario(env):
        first, served = yield from fs.platform.invoke(deployment, request)
        yield env.timeout(gap_ms)
        if between is not None:
            yield from between()
        target = replay_on(served)
        yield target.started
        again = yield from target.serve(request, via="tcp")
        return first, served, again

    return drive(env, scenario(env))


def _create_request(env, path):
    return MetadataRequest(op=OpType.CREATE_FILE, path=path,
                           request_id=env.next_id("request"))


def test_result_cache_answers_a_replay_long_after_its_reply():
    # The reply rides the request, so no TTL drops it while the request
    # can still be delivered.
    env = Environment()
    fs = make_fs(env)
    drive(env, fs.new_client().mkdirs("/d"))
    first, _served, again = _invoke_then_replay(
        env, fs, _create_request(env, "/d/f"), gap_ms=40_000.0
    )
    assert first.ok
    # Answered from the cache: the op is not re-executed (a second
    # create would fail with AlreadyExists).
    assert again is first


def test_result_cache_is_per_namenode_instance():
    env = Environment()
    fs = make_fs(env)
    drive(env, fs.new_client().mkdirs("/d"))
    first, served, again = _invoke_then_replay(
        env, fs, _create_request(env, "/d/f"),
        replay_on=lambda served: fs.platform.provision(served.deployment),
    )
    assert first.ok and first.served_by == served.id
    # A sibling of the same deployment holds no reply for the request,
    # so it executes it, and the file already exists.
    siblings = {nn.id for nn in served.deployment.live_instances()} - {served.id}
    assert again.served_by in siblings
    assert not again.ok and again.error.startswith("AlreadyExistsError")


def test_result_cache_replays_a_failure_as_the_same_failure():
    env = Environment()
    fs = make_fs(env)
    client = fs.new_client()

    def make_parent():
        response = yield from client.mkdirs("/late")
        assert response.ok

    # The parent is created between the two deliveries, so executing
    # the replay would now succeed; the cached failure is returned.
    first, _served, again = _invoke_then_replay(
        env, fs, _create_request(env, "/late/f"), between=make_parent
    )
    assert not first.ok and first.error.startswith("NotFoundError")
    assert again is first


def test_read_file_returns_block_locations():
    env = Environment()
    fs = make_fs(env)
    client = fs.new_client()

    def scenario(env):
        yield from client.mkdirs("/d")
        yield from client.create_file("/d/f")
        yield env.timeout(5_000)  # allow DataNode reports to publish
        r = yield from client.read_file("/d/f")
        return r

    response = drive(env, scenario(env))
    assert response.ok
    assert response.value["locations"] == ["dn0", "dn1", "dn2", "dn3"]


def test_cost_accumulates_only_when_busy():
    env = Environment()
    fs = make_fs(env)
    client = fs.new_client()

    def scenario(env):
        yield from client.mkdirs("/d")
        cost_after_work = fs.cost_usd()
        yield env.timeout(30_000)  # long idle period
        return cost_after_work

    cost_after_work = drive(env, scenario(env))
    assert cost_after_work > 0
    # Pay-per-use: the idle period adds (almost) nothing.
    assert fs.cost_usd() < cost_after_work * 1.5
    # The simplified model keeps charging while provisioned.
    assert fs.simplified_cost_usd() > fs.cost_usd()
