"""Pin the namespace transactions of HopsFS, HopsFS+Cache and λFS.

The committed goldens (kernel hashes, BENCH_profile.json, the scenario
families, the perfbench trace hashes) all run λFS and never a subtree
op, so none of them sees the HopsFS write and subtree paths or the
λFS subtree protocol.  These runs do:

* a mixed closed loop on each HopsFS variant: every client races for
  the same file names in one directory under a short lock-wait
  timeout (so writes abort and the NameNode's retry loop runs), makes
  a multi-level directory chain, lists and stats, while single
  clients change a directory's permission, move a directory and
  delete one recursively;
* Table 3's subtree ``mv`` at 1,024 and 4,096 files, where λFS
  offloads its batches to helper NameNodes and HopsFS runs them
  through its executor pool;
* a λFS recursive directory delete.

Each run is pinned by the tracer's event hash (every kernel step) and
the metrics recorder's outcome digest (every op's end state and sim
times), so the two systems' namespace code can be restructured only
if no store call moves.
"""

from repro.baselines import HopsFSCachedCluster, HopsFSCluster, HopsFSConfig, hopsfs
from repro.bench.experiments import table3_subtree_mv
from repro.bench.harness import build_lambdafs, drive
from repro.core import OpType
from repro.metastore import ndb
from repro.namespace.treegen import flat_directory
from repro.sim import AllOf, Environment
from repro.trace import install_tracer

HOPS_PINS = {
    False: ("fa034c4fa898db9011691f2caa5e3518",
            "5e43c0b162add9606539e6205e31ba2c"),
    True: ("c3ccf8169cd05ca0428ddce378ccad52",
           "380170f29494894bd3fa848c886590f9"),
}

TABLE3_ROWS = [
    {"files": 1024, "lambda": 282.7041394884309, "hopsfs": 366.9722483693058},
    {"files": 4096, "lambda": 743.5041394884306, "hopsfs": 1022.4472483693057},
]

LAMBDA_DELETE_PIN = ("4a8555cb9b5cea30def1cab487f2c368",
                     "67b15c2ec8119e026c9ec2dacbf535da")

CLIENTS = 16
STEPS = 6


def run_hops_loop(cached):
    env = Environment()
    tracer = install_tracer(env)
    cluster_class = HopsFSCachedCluster if cached else HopsFSCluster
    cluster = cluster_class(env, HopsFSConfig(
        num_namenodes=4, vcpus_per_namenode=4, seed=1,
    ))
    cluster.format()
    files = [f"/tree/{d}/f{i}" for d in "ab" for i in range(6)]
    files += [f"/mv/src/x/f{i}" for i in range(20)]
    files += [f"/rm/y/z/f{i}" for i in range(20)]
    files += [f"/rm/y/g{i}" for i in range(8)]
    cluster.install_namespace(
        ["/hot", "/tree/a", "/tree/b", "/mv/src/x", "/rm/y/z"], files
    )
    clients = [cluster.new_client() for _ in range(CLIENTS)]

    def loop(index, client):
        for step in range(STEPS):
            yield from client.create_file(f"/hot/f{step}")
            response = yield from client.mkdirs(f"/deep/c{index}/s{step}/leaf")
            assert response.ok, response.error
            yield from client.ls("/hot")
            yield from client.stat(f"/tree/a/f{step}")
            if (index, step) == (0, 2):
                response = yield from client.set_permission("/tree", 0o755)
                assert response.ok, response.error
            if (index, step) == (1, 2):
                response = yield from client.mv("/mv/src", "/mv/dst")
                assert response.ok, response.error
            if (index, step) == (2, 3):
                response = yield from client.execute(
                    OpType.DELETE, "/rm", recursive=True)
                assert response.ok, response.error

    def run():
        yield AllOf(env, [
            env.process(loop(i, client)) for i, client in enumerate(clients)
        ])

    drive(env, run())
    return tracer, cluster


def test_hopsfs_mixed_loop_is_pinned(monkeypatch):
    # 16 RPC handlers per NameNode and a 4 ms lock-wait timeout.
    monkeypatch.setattr(hopsfs, "RPC_HANDLERS", 16)
    monkeypatch.setattr(ndb, "LOCK_TIMEOUT_MS", 4.0)
    for cached in (False, True):
        tracer, cluster = run_hops_loop(cached)
        records = cluster.metrics.records
        assert len(records) == CLIENTS * STEPS * 4 + 3
        # One client wins each contended name; every loser fails.
        assert sum(not r.ok for r in records) == (CLIENTS - 1) * STEPS
        # Application errors abort their transaction too: more aborts
        # than failed ops means lock waits timed out and writes retried.
        assert cluster.store.stats.aborts > (CLIENTS - 1) * STEPS
        assert cluster.store.keys_with_prefix(("st_lock",)) == []
        assert (tracer.event_hash(), cluster.metrics.outcome_digest()) \
            == HOPS_PINS[cached], cached


def test_table3_rows_are_pinned():
    assert table3_subtree_mv(directory_sizes=(1024, 4096)) == TABLE3_ROWS


def test_lambdafs_recursive_delete_is_pinned():
    env = Environment()
    handle = build_lambdafs(
        env, flat_directory("/big", 1024), seed=1, deployments=8, trace=True
    )
    clients = handle.make_clients(4)
    drive(env, handle.prewarm())

    def run():
        for client in clients:
            response = yield from client.stat("/big/f1")
            assert response.ok, response.error
        response = yield from clients[0].execute(
            OpType.DELETE, "/big", recursive=True)
        assert response.ok, response.error
        response = yield from clients[1].stat("/big/f1")
        assert not response.ok

    drive(env, run())
    assert not handle.tracer.violations()
    assert (handle.tracer.event_hash(), handle.metrics.outcome_digest()) \
        == LAMBDA_DELETE_PIN
