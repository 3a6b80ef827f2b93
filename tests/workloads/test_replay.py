"""Unit tests for the trace replayer."""

import io

import pytest

from repro.core import LambdaFS, LambdaFSConfig
from repro.core.messages import OpType
from repro.faas import FaaSConfig, platform
from repro.sim import Environment
from repro.workloads.replay import (
    TraceParseError,
    TraceReplayer,
    load_trace,
    parse_trace,
)

SAMPLE = """
# a tiny audit log
0    mkdirs /logs
10   create /logs/a
20   stat   /logs/a
30   mv     /logs/a /logs/b
40   read   /logs/b
50   delete /logs/b
"""


def test_parse_trace():
    records = parse_trace(SAMPLE.splitlines())
    assert len(records) == 6
    assert records[0].op is OpType.MKDIRS
    assert records[3].op is OpType.MV
    assert records[3].dst_path == "/logs/b"
    assert [r.time_ms for r in records] == [0, 10, 20, 30, 40, 50]


def test_parse_sorts_by_time():
    records = parse_trace(["50 stat /x", "10 stat /y"])
    assert [r.path for r in records] == ["/y", "/x"]


def test_parse_rmr_sets_recursive():
    (record,) = parse_trace(["5 rmr /tree"])
    assert record.op is OpType.DELETE
    assert record.recursive


def test_parse_errors():
    with pytest.raises(TraceParseError, match="expected"):
        parse_trace(["10 stat"])
    with pytest.raises(TraceParseError, match="timestamp"):
        parse_trace(["abc stat /x"])
    with pytest.raises(TraceParseError, match="unknown op"):
        parse_trace(["1 chown /x"])
    with pytest.raises(TraceParseError, match="dst"):
        parse_trace(["1 mv /x"])


def test_load_trace_from_file_object():
    records = load_trace(io.StringIO(SAMPLE))
    assert len(records) == 6


def test_replay_end_to_end(monkeypatch):
    monkeypatch.setattr(platform, "APP_INIT_MS", 2.0)
    env = Environment()
    fs = LambdaFS(env, LambdaFSConfig(
        num_deployments=2,
        faas=FaaSConfig(
            cluster_vcpus=32.0, vcpus_per_instance=4.0,
            cold_start_min_ms=10.0, cold_start_max_ms=15.0,
        ),
    ))
    fs.format()
    fs.start()
    clients = [fs.new_client(), fs.new_client()]
    records = parse_trace(SAMPLE.splitlines())
    replayer = TraceReplayer(env, records)
    box = {}

    def main(env):
        box["r"] = yield from replayer.run(clients)

    done = env.process(main(env))
    env.run(until=done)
    result = box["r"]
    assert result.issued == 6
    assert result.failed == 0
    assert result.succeeded == 6
    assert result.throughput > 0
    # The delete happened: /logs is empty again.

    def check(env):
        box["ls"] = yield from clients[0].ls("/logs")

    done = env.process(check(env))
    env.run(until=done)
    assert box["ls"].value == []


def test_replay_respects_offsets():
    """Operations are not issued before their recorded time."""
    env = Environment()

    class SlowlessClient:
        def __init__(self, env):
            self.env = env
            self.issue_times = []

        def execute(self, op, path, dst_path=None, recursive=False):
            self.issue_times.append(self.env.now)
            yield self.env.timeout(0.1)

            class R:
                ok = True
            return R()

    client = SlowlessClient(env)
    records = parse_trace(["100 stat /a", "300 stat /b"])
    box = {}

    def main(env):
        box["r"] = yield from TraceReplayer(env, records).run([client])

    done = env.process(main(env))
    env.run(until=done)
    assert client.issue_times == [100.0, 300.0]


def test_replay_requires_clients():
    env = Environment()
    replayer = TraceReplayer(env, [])

    def main(env):
        with pytest.raises(ValueError):
            yield from replayer.run([])

    done = env.process(main(env))
    env.run(until=done)
