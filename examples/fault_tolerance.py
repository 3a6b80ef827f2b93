"""Kill NameNodes while clients hammer the system (§5.6).

Every 2 seconds a live serverless NameNode is terminated round-robin
across deployments.  Clients detect dropped TCP connections and
resubmit transparently (other connections → sibling TCP servers →
HTTP fallback), so every operation still completes.

Run with:  python examples/fault_tolerance.py
"""

import random

from repro.bench.harness import build_lambdafs, drive
from repro.chaos.faults import NameNodeKiller
from repro.namespace.treegen import TreeSpec, generate_tree
from repro.sim import AllOf, Environment

CLIENTS = 64
OPS_PER_CLIENT = 600
KILL_INTERVAL_MS = 150.0


def main() -> None:
    tree = generate_tree(TreeSpec(depth=3, dirs_per_dir=4, files_per_dir=8))
    env = Environment()
    handle = build_lambdafs(env, tree)
    fs = handle.system
    clients = handle.make_clients(CLIENTS)
    drive(env, handle.prewarm())

    killer = NameNodeKiller(env, fs.platform, KILL_INTERVAL_MS)
    killer.start()
    outcomes = {"ok": 0, "failed": 0}

    def worker(env, client, index):
        rng = random.Random(index)
        for _ in range(OPS_PER_CLIENT):
            response = yield from client.read_file(rng.choice(tree.files))
            outcomes["ok" if response.ok else "failed"] += 1

    def run_all(env):
        procs = [
            env.process(worker(env, client, i))
            for i, client in enumerate(clients)
        ]
        yield AllOf(env, procs)

    drive(env, run_all(env))
    killer.stop()

    total = outcomes["ok"] + outcomes["failed"]
    retries = sum(c.stats_retries for c in clients)
    print(f"operations completed : {outcomes['ok']}/{total}")
    print(f"NameNodes killed     : {len(killer.kills)}")
    for kill in killer.kills[:8]:
        print(f"   t={kill.time_ms / 1000:6.1f}s  terminated {kill.instance_id}")
    if len(killer.kills) > 8:
        print(f"   ... and {len(killer.kills) - 8} more")
    print(f"client-side retries  : {retries}")
    print(f"avg latency          : {handle.metrics.average_latency():.2f} ms")
    print("\nEvery operation completed despite the failures — clients "
          "recovered via resubmission and fresh instances.")


if __name__ == "__main__":
    main()
