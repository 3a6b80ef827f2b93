"""Invariant checker tests: unit-fed span streams plus end-to-end
runs (a clean one that must be violation-free, and a deliberately
broken coherence path the checker must catch)."""

import re

import pytest

from repro.bench.harness import drive
from repro.coordination import Coordinator
from repro.core import LambdaFS, LambdaFSConfig
from repro.faas import FaaSConfig, platform
from repro.sim import Environment
from repro.trace import (
    CoherenceChecker,
    InvariantViolation,
    LockDisciplineChecker,
    Tracer,
    install_tracer,
    invariants,
)


def make(checker):
    env = Environment()
    tracer = Tracer(env)
    tracer.add_checker(checker)
    return tracer


# -- CoherenceChecker, unit-fed ------------------------------------------

def test_commit_before_ack_flagged():
    checker = CoherenceChecker()
    tracer = make(checker)
    inv = tracer.begin(
        "coord.inv", "nn1", inv_id=1, initiator="nn1", paths=("/a",), prefix=None
    )
    tracer.point("nn.commit", "nn1", paths=("/a",))
    tracer.end(inv)
    assert [v.rule for v in checker.violations] == ["commit-before-ack"]
    assert checker.commits_checked == 1


def test_commit_after_ack_is_clean():
    checker = CoherenceChecker()
    tracer = make(checker)
    inv = tracer.begin(
        "coord.inv", "nn1", inv_id=1, initiator="nn1", paths=("/a",), prefix=None
    )
    tracer.end(inv)
    tracer.point("nn.commit", "nn1", paths=("/a",))
    assert checker.violations == []


def test_commit_by_other_initiator_not_flagged():
    # nn2's open round must not block nn1's unrelated commit.
    checker = CoherenceChecker()
    tracer = make(checker)
    tracer.begin(
        "coord.inv", "nn2", inv_id=7, initiator="nn2", paths=("/a",), prefix=None
    )
    tracer.point("nn.commit", "nn1", paths=("/a",))
    assert checker.violations == []


def test_concurrent_write_not_blamed_for_siblings_round():
    # One NameNode serves writes concurrently: txn B committing must
    # not be flagged against txn A's still-open round on the same
    # path.  Rounds and commits are matched by originating request
    # (shared causal parent), not just by actor.
    checker = CoherenceChecker()
    tracer = make(checker)
    req_a = tracer.begin("nn.handle", "nn1", op="create file")
    req_b = tracer.begin("nn.handle", "nn1", op="create file")
    tracer.begin(
        "coord.inv", "nn1", parent=req_a,
        inv_id=1, initiator="nn1", paths=("/dir",), prefix=None,
    )
    inv_b = tracer.begin(
        "coord.inv", "nn1", parent=req_b,
        inv_id=2, initiator="nn1", paths=("/dir",), prefix=None,
    )
    tracer.end(inv_b)
    tracer.point("nn.commit", "nn1", parent=req_b, paths=("/dir",))
    assert checker.violations == []
    # But committing request A while its own round is open is flagged.
    tracer.point("nn.commit", "nn1", parent=req_a, paths=("/dir",))
    assert [v.rule for v in checker.violations] == ["commit-before-ack"]


def test_commit_under_open_prefix_round_flagged():
    checker = CoherenceChecker()
    tracer = make(checker)
    tracer.begin(
        "coord.inv", "nn1", inv_id=2, initiator="nn1", paths=(), prefix="/dir"
    )
    tracer.point("nn.commit", "nn1", paths=("/dir/child",))
    assert [v.rule for v in checker.violations] == ["commit-before-ack"]


def test_stale_cache_hit_flagged():
    checker = CoherenceChecker()
    tracer = make(checker)
    tracer.point("nn.cache_put", "nn2", path="/a")
    tracer.point("nn.cache_hit", "nn2", path="/a")        # still valid
    tracer.point("coord.inv_deliver", "nn2", paths=("/a",))
    tracer.point("nn.cache_hit", "nn2", path="/a")        # now stale
    assert [v.rule for v in checker.violations] == ["stale-cache-hit"]
    assert checker.hits_checked == 2


def test_stale_hit_under_prefix_invalidation():
    checker = CoherenceChecker()
    tracer = make(checker)
    tracer.point("nn.cache_put", "nn2", path="/d/x")
    tracer.point("coord.inv_deliver", "nn2", paths=(), prefix="/d")
    tracer.point("nn.cache_hit", "nn2", path="/d/x")
    assert [v.rule for v in checker.violations] == ["stale-cache-hit"]


def test_reput_after_invalidation_revalidates():
    checker = CoherenceChecker()
    tracer = make(checker)
    tracer.point("coord.inv_deliver", "nn2", paths=("/a",))
    tracer.point("nn.cache_put", "nn2", path="/a")        # fresh fetch
    tracer.point("nn.cache_hit", "nn2", path="/a")
    assert checker.violations == []


def test_fail_fast_raises(monkeypatch):
    monkeypatch.setattr(invariants, "FAIL_FAST", True)
    checker = CoherenceChecker()
    tracer = make(checker)
    tracer.point("coord.inv_deliver", "nn2", paths=("/a",))
    with pytest.raises(InvariantViolation):
        tracer.point("nn.cache_hit", "nn2", path="/a")


# -- LockDisciplineChecker, unit-fed -------------------------------------

def test_shared_holders_coexist_exclusive_conflicts():
    checker = LockDisciplineChecker()
    tracer = make(checker)
    tracer.point("lock.acquire", "t1", key="k", mode="shared")
    tracer.point("lock.acquire", "t2", key="k", mode="shared")
    assert checker.violations == []
    tracer.point("lock.acquire", "t3", key="k", mode="exclusive")
    assert [v.rule for v in checker.violations] == [
        "mutual-exclusion", "mutual-exclusion"  # conflicts with t1 and t2
    ]


def test_release_without_acquire_flagged():
    checker = LockDisciplineChecker()
    tracer = make(checker)
    tracer.point("lock.release", "t1", key="k")
    assert [v.rule for v in checker.violations] == ["release-without-acquire"]


def test_acquire_release_reacquire_is_clean():
    checker = LockDisciplineChecker()
    tracer = make(checker)
    tracer.point("lock.acquire", "t1", key="k", mode="exclusive")
    tracer.point("lock.release", "t1", key="k")
    tracer.point("lock.acquire", "t2", key="k", mode="exclusive")
    tracer.point("lock.release", "t2", key="k")
    tracer.point("txn.end", "t1", committed=True)
    tracer.point("txn.end", "t2", committed=True)
    assert checker.violations == []
    assert checker.acquires == 2 and checker.releases == 2


def test_out_of_order_wait_flagged():
    checker = LockDisciplineChecker()
    tracer = make(checker)
    tracer.point("lock.acquire", "t1", key="k2", mode="exclusive")
    tracer.point("lock.wait", "t1", key="k1", mode="exclusive")
    assert [v.rule for v in checker.violations] == ["out-of-order-wait"]


def test_in_order_wait_is_clean():
    checker = LockDisciplineChecker()
    tracer = make(checker)
    tracer.point("lock.acquire", "t1", key="k1", mode="exclusive")
    tracer.point("lock.wait", "t1", key="k2", mode="exclusive")
    assert checker.violations == []


def test_cross_batch_wait_order_is_legitimate():
    # The canonical-order promise holds per lock_many batch; a txn
    # that locked k2 in batch 1 may block on k1 in batch 2 (that
    # deadlock risk is handled by timeout+retry, not ordering).
    checker = LockDisciplineChecker()
    tracer = make(checker)
    tracer.point("lock.acquire", "t1", key="k2", mode="exclusive", epoch=1)
    tracer.point("lock.wait", "t1", key="k1", mode="exclusive", epoch=2)
    assert checker.violations == []
    tracer.point("lock.acquire", "t1", key="k3", mode="exclusive", epoch=3)
    tracer.point("lock.wait", "t1", key="k0", mode="exclusive", epoch=3)
    assert [v.rule for v in checker.violations] == ["out-of-order-wait"]


def test_locks_held_past_txn_end_flagged():
    checker = LockDisciplineChecker()
    tracer = make(checker)
    tracer.point("lock.acquire", "t1", key="k", mode="exclusive")
    tracer.point("txn.end", "t1", committed=True)
    assert [v.rule for v in checker.violations] == ["locks-held-past-txn-end"]
    # State was reclaimed: another owner can take the key cleanly.
    tracer.point("lock.acquire", "t2", key="k", mode="exclusive")
    assert len(checker.violations) == 1


# -- end-to-end ----------------------------------------------------------

DIRS = ["/d0", "/d1"]


def build_fs(env):
    config = LambdaFSConfig(
        num_deployments=2,
        faas=FaaSConfig(
            cluster_vcpus=32.0, vcpus_per_instance=4.0,
            cold_start_min_ms=10.0, cold_start_max_ms=15.0,
        ),
    )
    fs = LambdaFS(env, config)
    fs.format()
    fs.start()
    fs.install_namespace(DIRS, ["/d0/seed", "/d1/seed"])
    return fs


def test_clean_run_has_zero_violations(monkeypatch):
    monkeypatch.setattr(platform, "APP_INIT_MS", 2.0)
    env = Environment()
    tracer = install_tracer(env)
    fs = build_fs(env)
    alice = fs.new_client(fs.new_vm())
    bob = fs.new_client(fs.new_vm())

    def scenario(env):
        yield from bob.stat("/d0/seed")          # warm bob's cache
        yield from alice.create_file("/d0/new")
        yield from alice.mkdirs("/d1/sub")
        yield from alice.mv("/d0/new", "/d1/new")
        yield from bob.stat("/d0/seed")
        yield from bob.ls("/d1")
        yield from alice.set_permission("/d1/seed", 0o640)
        yield from alice.delete("/d1/new")
        yield from bob.stat("/d1/seed")

    done = env.process(scenario(env))
    env.run(until=done)
    assert tracer.violations() == []
    checkers = {type(c).__name__: c for c in tracer.checkers}
    assert checkers["CoherenceChecker"].commits_checked > 0
    assert checkers["LockDisciplineChecker"].acquires > 0


def test_broken_coherence_is_caught(monkeypatch):
    monkeypatch.setattr(platform, "APP_INIT_MS", 2.0)
    """Skip the ACK wait before commit — the checker must notice.

    The patched ``Coordinator.invalidate`` fires the INV round but
    returns without awaiting the ACKs, so the write transaction commits
    while the round it initiated is still open: exactly the ordering
    bug Algorithm 1 exists to prevent.  Two NameNodes per deployment are
    prewarmed so the rounds have remote members to wait on; a round
    with no member settles at once and could not be caught.
    """
    invalidate = Coordinator.invalidate

    def fire_and_forget(self, *args, **kwargs):
        self.env.process(invalidate(self, *args, **kwargs))
        yield self.env.timeout(0.0)   # does NOT wait for the ACKs

    monkeypatch.setattr(Coordinator, "invalidate", fire_and_forget)

    env = Environment()
    tracer = install_tracer(env)
    fs = build_fs(env)
    drive(env, fs.prewarm(2))
    alice = fs.new_client(fs.new_vm())
    bob = fs.new_client(fs.new_vm())

    def scenario(env):
        yield from bob.stat("/d0/seed")
        yield from alice.create_file("/d0/new")
        yield from alice.delete("/d0/seed")

    done = env.process(scenario(env))
    env.run(until=done)
    flagged = [
        v for v in tracer.violations() if v.rule == "commit-before-ack"
    ]
    assert flagged
    members = {
        span.attrs["inv_id"]: span.attrs["members"]
        for span in tracer.spans.values() if span.kind == "coord.inv"
    }
    flagged_rounds = {
        int(re.search(r"INV round (\d+)", v.message).group(1)) for v in flagged
    }
    assert all(members[inv_id] >= 1 for inv_id in flagged_rounds)
