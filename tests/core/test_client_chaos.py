"""Client-side safety under faults: resubmit duplicate-result safety
and anti-thrash cooldown re-entry counting."""

import pytest

from repro.chaos import FaultSpec, Scenario, install_chaos
from repro.core import LambdaFS, LambdaFSConfig
from repro.core import client as client_module
from repro.core.client import ClientConfig
from repro.faas import FaaSConfig, platform
from repro.sim import Environment
from repro.trace import install_tracer

pytestmark = pytest.mark.chaos


@pytest.fixture
def make_fs(monkeypatch):
    """Build a small λFS with a 5 ms app init: UPPER_CASE overrides
    patch ``repro.core.client``'s constants, the rest are
    ``ClientConfig`` fields."""
    monkeypatch.setattr(platform, "APP_INIT_MS", 5.0)

    def build(env, **overrides):
        for name in [name for name in overrides if name.isupper()]:
            monkeypatch.setattr(client_module, name, overrides.pop(name))
        config = LambdaFSConfig(
            num_deployments=2,
            faas=FaaSConfig(
                cluster_vcpus=64.0, vcpus_per_instance=4.0,
                cold_start_min_ms=20.0, cold_start_max_ms=30.0,
            ),
            client=ClientConfig(**overrides),
        )
        fs = LambdaFS(env, config)
        fs.format()
        fs.start()
        return fs
    return build


def drive(env, gen):
    box = {}

    def proc(env):
        box["v"] = yield from gen

    done = env.process(proc(env))
    env.run(until=done)
    return box["v"]


def warm(env, fs, client):
    def setup(env):
        yield from fs.prewarm(1)
        yield from client.mkdirs("/d")
        yield from client.create_file("/d/f")

    drive(env, setup(env))


def spans_of_kind(tracer, kind):
    return [s for s in tracer.spans.values() if s.kind == kind]


def test_straggler_resubmitted_write_is_served_from_result_cache(make_fs):
    """The abandoned first attempt still completes in the background;
    the resubmit carries the same request id and must get the cached
    original answer instead of re-running the write."""
    env = Environment()
    tracer = install_tracer(env)
    fs = make_fs(env, replacement_probability=0.0,
                 STRAGGLER_FLOOR_MS=10.0, STRAGGLER_THRESHOLD=2.0)
    client = fs.new_client()
    warm(env, fs, client)

    deployment = fs.platform.deployments[fs.partitioner.deployment_for("/d/f")]
    instance = deployment.live_instances()[0]

    def hog(env):
        with instance.cpu.request() as slot:
            yield slot
            yield env.timeout(120.0)

    for _ in range(instance.cpu.capacity):
        env.process(hog(env))

    response = drive(env, client.set_permission("/d/f", 0o644))
    assert response.ok
    assert client.stats_stragglers >= 1
    # The duplicate was answered from the in-flight table (racing its
    # original) or the result cache (original already finished) — it
    # must not have been re-executed.
    replays = (spans_of_kind(tracer, "nn.inflight")
               + spans_of_kind(tracer, "nn.result_cache"))
    assert replays, "resubmit was re-executed instead of replayed"
    executed = [
        s for s in spans_of_kind(tracer, "nn.handle")
        if s.attrs.get("op") == "set permission"
    ]
    assert len(executed) == 1, "write executed more than once"
    assert tracer.violations() == []


def test_chaos_tcp_duplicate_is_answered_by_result_cache(make_fs):
    """tcp_duplicate delivers every TCP request twice; the second
    serve must come out of the NameNode result cache."""
    env = Environment()
    tracer = install_tracer(env)
    fs = make_fs(env, replacement_probability=0.0)
    client = fs.new_client()
    warm(env, fs, client)

    engine = install_chaos(env, system=fs, seed=1)
    engine.start(Scenario("dup", faults=(
        FaultSpec("tcp_duplicate", at_ms=0.0, duration_ms=10_000.0,
                  params={"p": 1.0}),
    )))

    def reads(env):
        for _ in range(5):
            yield from client.stat("/d/f")

    drive(env, reads(env))
    engine.stop()
    duplicated = [e for e in engine.log if e.kind == "tcp_duplicate"
                  and e.action == "inject"]
    assert duplicated, "no duplicate was injected over TCP"
    assert spans_of_kind(tracer, "chaos.tcp_duplicate")
    assert spans_of_kind(tracer, "nn.result_cache")
    assert tracer.violations() == []


def test_antithrash_reentry_is_counted_once_per_cooldown(make_fs):
    env = Environment()
    fs = make_fs(env, ANTITHRASH_THRESHOLD=2.0, ANTITHRASH_COOLDOWN_MS=100.0)
    client = fs.new_client()
    for _ in range(4):
        client._observe(1.0)
    assert client.stats_antithrash_entries == 0

    client._observe(10.0)  # spike -> enter cooldown
    assert client._antithrash_active()
    assert client.stats_antithrash_entries == 1

    client._observe(50.0)  # spike during cooldown -> extension, not entry
    assert client._antithrash_active()
    assert client.stats_antithrash_entries == 1

    def wait(env):
        yield env.timeout(200.0)

    drive(env, wait(env))
    assert not client._antithrash_active()

    client._observe(500.0)  # fresh spike after expiry -> second entry
    assert client._antithrash_active()
    assert client.stats_antithrash_entries == 2
