"""Unit tests for Resource, Container and Store."""

import pytest

from repro.sim import Container, Environment, Resource, Store


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


def test_container_get_blocks_until_put():
    env = Environment()
    tank = Container(env, capacity=100, init=0)
    log = []

    def consumer(env):
        yield tank.get(30)
        log.append(("got", env.now))

    def producer(env):
        yield env.timeout(5)
        yield tank.put(50)

    env.process(consumer(env))
    env.process(producer(env))
    env.run()
    assert log == [("got", 5)]
    assert tank.level == 20


def test_container_put_blocks_at_capacity():
    env = Environment()
    tank = Container(env, capacity=10, init=10)
    log = []

    def producer(env):
        yield tank.put(5)
        log.append(("put", env.now))

    def consumer(env):
        yield env.timeout(7)
        yield tank.get(6)

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert log == [("put", 7)]
    assert tank.level == 9


def test_container_validates_bounds():
    env = Environment()
    with pytest.raises(ValueError):
        Container(env, capacity=0)
    with pytest.raises(ValueError):
        Container(env, capacity=5, init=6)
    tank = Container(env, capacity=5)
    with pytest.raises(ValueError):
        tank.get(0)
    with pytest.raises(ValueError):
        tank.put(-1)


def test_store_fifo_order():
    env = Environment()
    store = Store(env)
    got = []

    def consumer(env):
        for _ in range(3):
            item = yield store.get()
            got.append(item)

    def producer(env):
        for item in "xyz":
            yield env.timeout(1)
            store.put(item)

    env.process(consumer(env))
    env.process(producer(env))
    env.run()
    assert got == ["x", "y", "z"]


def test_store_predicate_get():
    env = Environment()
    store = Store(env)
    got = []

    def consumer(env):
        item = yield store.get(lambda i: i % 2 == 0)
        got.append(item)

    def producer(env):
        for item in (1, 3, 4, 5):
            yield env.timeout(1)
            store.put(item)

    env.process(consumer(env))
    env.process(producer(env))
    env.run()
    assert got == [4]
    assert list(store.items) == [1, 3, 5]


def test_store_len():
    env = Environment()
    store = Store(env)
    store.put("a")
    store.put("b")
    assert len(store) == 2
