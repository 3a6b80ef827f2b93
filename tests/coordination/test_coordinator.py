"""Unit tests for the Coordinator (membership + INV/ACK)."""

from repro.coordination import Coordinator, Invalidation
from repro.sim import Environment


def run(env, *procs):
    handles = [env.process(p) for p in procs]
    env.run()
    return handles


def test_register_and_live_members():
    env = Environment()
    coord = Coordinator(env)
    coord.register("d1", "nn1", lambda inv: None)
    coord.register("d1", "nn2", lambda inv: None)
    coord.register("d2", "nn3", lambda inv: None)
    assert coord.live_members("d1") == {"nn1", "nn2"}
    assert coord.live_count("d2") == 1


def test_deregister_removes_member():
    env = Environment()
    coord = Coordinator(env)
    coord.register("d1", "nn1", lambda inv: None)
    coord.deregister("d1", "nn1")
    assert coord.live_members("d1") == set()


def test_invalidate_delivers_to_all_members():
    env = Environment()
    coord = Coordinator(env)
    received = []

    def handler(name):
        def inner(inv):
            received.append((name, inv.paths))
        return inner

    coord.register("d1", "nn1", handler("nn1"))
    coord.register("d1", "nn2", handler("nn2"))

    done = []

    def leader(env):
        contacted = yield from coord.invalidate("d1", paths=["/a"])
        done.append((env.now, contacted))

    run(env, leader(env))
    assert sorted(received) == [("nn1", ("/a",)), ("nn2", ("/a",))]
    assert done[0][1] == 2
    assert done[0][0] > 0  # INV + ACK latency elapsed


def test_invalidate_excludes_leader():
    env = Environment()
    coord = Coordinator(env)
    received = []
    coord.register("d1", "leader", lambda inv: received.append("leader"))
    coord.register("d1", "nn2", lambda inv: received.append("nn2"))

    def leader(env):
        yield from coord.invalidate("d1", paths=["/a"], exclude=["leader"])

    run(env, leader(env))
    assert received == ["nn2"]


def test_invalidate_empty_deployment_completes_immediately():
    env = Environment()
    coord = Coordinator(env)
    done = []

    def leader(env):
        contacted = yield from coord.invalidate("ghost", paths=["/a"])
        done.append((env.now, contacted))

    run(env, leader(env))
    assert done == [(0, 0)]


def test_dead_member_does_not_block_acks():
    env = Environment()
    coord = Coordinator(env)
    # nn2's handler never acks because we kill it mid-flight.
    coord.register("d1", "nn1", lambda inv: None)
    coord.register("d1", "nn2", lambda inv: None)
    done = []

    def leader(env):
        yield from coord.invalidate("d1", paths=["/a"])
        done.append(env.now)

    def killer(env):
        yield env.timeout(0.1)  # before delivery latency elapses
        coord.deregister("d1", "nn2")

    run(env, leader(env), killer(env))
    assert done  # completed despite nn2 never ACKing


def test_subtree_invalidation_flag():
    inv = Invalidation(inv_id=1, deployment="d", prefix="/foo")
    assert inv.is_subtree
    inv2 = Invalidation(inv_id=2, deployment="d", paths=("/a",))
    assert not inv2.is_subtree


def test_watch_death_fires():
    env = Environment()
    coord = Coordinator(env)
    deaths = []
    coord.register("d1", "nn1", lambda inv: None)
    coord.watch_death("nn1", lambda member: deaths.append((env.now, member)))

    def killer(env):
        yield env.timeout(5)
        coord.deregister("d1", "nn1")

    run(env, killer(env))
    assert len(deaths) == 1
    assert deaths[0][1] == "nn1"
    assert deaths[0][0] > 5  # watch latency applied

