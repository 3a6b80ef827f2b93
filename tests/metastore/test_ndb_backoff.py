"""Transaction-retry backoff: full jitter, capped, seed-deterministic."""

import random

import pytest

from repro.metastore import NdbConfig, NdbStore, ndb
from repro.rpc.retry import RetryPolicy
from repro.sim import Environment

pytestmark = pytest.mark.chaos


def test_full_jitter_delay_is_capped():
    policy = RetryPolicy(base_ms=2.0, factor=2.0, max_ms=64.0)
    rng = random.Random(0)
    for attempt in range(1, 40):
        for _ in range(20):
            assert 0.0 <= policy.full_jitter_delay(attempt, rng) <= 64.0
    # Far past the cap the exponential term would be astronomically
    # large; the bound must still be max_ms, not overflow territory.
    assert policy.full_jitter_delay(1000, rng) <= 64.0


def test_full_jitter_delay_upper_bound_tracks_exponential_below_cap():
    policy = RetryPolicy(base_ms=2.0, factor=2.0, max_ms=64.0)
    rng = random.Random(1)
    for attempt, bound in ((1, 2.0), (2, 4.0), (3, 8.0), (6, 64.0), (7, 64.0)):
        samples = [policy.full_jitter_delay(attempt, rng) for _ in range(200)]
        assert max(samples) <= bound
        # Full jitter spans the whole interval, not a centred band.
        assert min(samples) < 0.2 * bound


def test_full_jitter_delay_is_one_based():
    policy = RetryPolicy()
    with pytest.raises(ValueError):
        policy.full_jitter_delay(0, random.Random(0))


def test_full_jitter_delay_is_seed_deterministic():
    policy = RetryPolicy(base_ms=2.0, max_ms=64.0)
    a = [policy.full_jitter_delay(i, random.Random(7)) for i in range(1, 9)]
    b = [policy.full_jitter_delay(i, random.Random(7)) for i in range(1, 9)]
    assert a == b


class RecordingRng(random.Random):
    """Records every uniform() bound run_transaction asks for."""

    def __init__(self):
        super().__init__(0)
        self.uniform_calls = []

    def uniform(self, a, b):
        self.uniform_calls.append((a, b))
        return super().uniform(a, b)


def test_run_transaction_backoff_uses_capped_full_jitter(monkeypatch):
    monkeypatch.setattr(ndb, "RTT_MS", 0.0)
    monkeypatch.setattr(ndb, "LOCK_TIMEOUT_MS", 20.0)
    monkeypatch.setattr(ndb, "TXN_BACKOFF_CAP_MS", 16.0)
    env = Environment()
    store = NdbStore(env, NdbConfig(
        shards=2, workers_per_shard=2,
        read_service_ms=1.0, write_service_ms=2.0, commit_service_ms=1.0,
    ))
    rng = RecordingRng()
    store._retry_rng = rng
    store.load_bulk({"row": 0})

    def holder(txn):
        yield from txn.read("row")
        yield env.timeout(60.0)  # a few lock-timeout windows long
        yield from txn.commit()

    def contender(env):
        yield env.timeout(1.0)
        yield from store.run_transaction(
            body=lambda txn: txn.write("row", 1),
            retries=6,
        )

    hold_txn = store.begin()
    done_holder = env.process(holder(hold_txn))
    done = env.process(contender(env))
    env.run(until=500.0)
    assert done.triggered and done_holder.triggered

    # Every abort drew uniform(0, min(2 * 2^(attempt-1), 16)).
    assert rng.uniform_calls, "no abort ever happened"
    expected = [2.0, 4.0, 8.0, 16.0, 16.0, 16.0]
    for index, (low, high) in enumerate(rng.uniform_calls):
        assert low == 0.0
        assert high == pytest.approx(expected[index])
        assert high <= 16.0
