"""λFS with its Coordinator, the ZooKeeper-backed one (§3.5)."""

from repro.coordination import Coordinator
from repro.core import LambdaFS, LambdaFSConfig
from repro.faas import FaaSConfig, platform
from repro.sim import Environment


def test_zookeeper_backend_works(monkeypatch):
    monkeypatch.setattr(platform, "APP_INIT_MS", 5.0)
    env = Environment()
    fs = LambdaFS(env, LambdaFSConfig(
        num_deployments=2,
        faas=FaaSConfig(
            cluster_vcpus=32.0, vcpus_per_instance=4.0,
            cold_start_min_ms=20.0, cold_start_max_ms=30.0,
        ),
    ))
    fs.format()
    fs.start()
    client = fs.new_client()
    box = {}

    def scenario(env):
        yield from client.mkdirs("/d")
        response = yield from client.create_file("/d/f")
        box["ok"] = response.ok
        check = yield from client.stat("/d/f")
        box["stat_ok"] = check.ok

    done = env.process(scenario(env))
    env.run(until=done)
    assert box["ok"] and box["stat_ok"]
    assert isinstance(fs.coordinator, Coordinator)
