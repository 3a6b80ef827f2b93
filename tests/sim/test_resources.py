"""Unit tests for Resource."""

import pytest

from repro.sim import Environment, Resource


def test_resource_grants_up_to_capacity():
    env = Environment()
    res = Resource(env, capacity=2)
    grants = []

    def user(env, name, hold):
        with res.request() as req:
            yield req
            grants.append((name, env.now))
            yield env.timeout(hold)

    env.process(user(env, "a", 10))
    env.process(user(env, "b", 10))
    env.process(user(env, "c", 10))
    env.run()
    assert grants == [("a", 0), ("b", 0), ("c", 10)]


def test_resource_release_on_exception():
    env = Environment()
    res = Resource(env, capacity=1)
    grants = []

    def crasher(env):
        try:
            with res.request() as req:
                yield req
                yield env.timeout(5)
                raise ValueError("die")
        except ValueError:
            pass

    def follower(env):
        with res.request() as req:
            yield req
            grants.append(env.now)

    env.process(crasher(env))
    env.process(follower(env))
    env.run()
    assert grants == [5]


def test_resource_rejects_bad_capacity():
    env = Environment()
    with pytest.raises(ValueError):
        Resource(env, capacity=0)


def test_resource_cancel_pending_request():
    env = Environment()
    res = Resource(env, capacity=1)
    order = []

    def holder(env):
        with res.request() as req:
            yield req
            yield env.timeout(10)

    def canceller(env):
        req = res.request()
        yield env.timeout(1)
        req.cancel()
        order.append("cancelled")

    def last(env):
        yield env.timeout(2)
        with res.request() as req:
            yield req
            order.append(("last", env.now))

    env.process(holder(env))
    env.process(canceller(env))
    env.process(last(env))
    env.run()
    assert order == ["cancelled", ("last", 10)]
