"""ACK redelivery and the deregister/INV races under injected ACK loss.

These drive the Coordinator directly with a stub ``env.chaos`` that
implements only ``ack_should_drop`` — the one chaos hook the round's
delivery process (``_deliver``) consults, once per member per ACK leg —
so the retry loop, the "no ACK required from terminated NameNodes"
rule and a round spanning several deployments can be pinned down
without a full system.
"""

import pytest

from repro.coordination.coordinator import Coordinator, CoordinatorConfig
from repro.sim import Environment
from repro.trace import Tracer

pytestmark = pytest.mark.chaos


class AckChaos:
    """Drop the first N ACKs per member (None = drop forever)."""

    def __init__(self, drops_by_member):
        self.drops = dict(drops_by_member)
        self.calls = []

    def ack_should_drop(self, deployment, member_id):
        self.calls.append((deployment, member_id))
        remaining = self.drops.get(member_id, 0)
        if remaining is None:
            return True
        if remaining > 0:
            self.drops[member_id] = remaining - 1
            return True
        return False


def make_env_and_coord(**config_overrides):
    env = Environment()
    coord = Coordinator(env)
    if config_overrides:
        coord.config = CoordinatorConfig(**config_overrides)
    return env, coord


def start_invalidate(env, coord, deployment="d", paths=("/x",)):
    return env.process(coord.invalidate(deployment, paths=paths))


def test_redelivery_collects_ack_after_drops():
    env, coord = make_env_and_coord()
    handled = []
    coord.register("d", "b", lambda inv: handled.append(inv.inv_id))
    env.chaos = AckChaos({"b": 2})

    done = start_invalidate(env, coord)
    env.run(until=60.0)
    assert done.triggered

    # Two dropped ACKs -> the whole INV is redelivered twice; the
    # idempotent handler ran three times but exactly one ACK landed.
    assert handled == [1, 1, 1]
    assert coord.acks_received == 1
    # publish + ack = 0.8 per attempt, plus 5 ms retry backoff between
    # attempts: 0.8 + 2 * (5.0 + 0.8) = 12.4 ms to completion.
    assert done.value == 1
    assert len(env.chaos.calls) == 3


def test_completion_time_includes_retry_backoff():
    env, coord = make_env_and_coord()
    coord.register("d", "b", lambda inv: None)
    env.chaos = AckChaos({"b": 2})
    finished = []

    def writer(env):
        yield from coord.invalidate("d", paths=("/x",))
        finished.append(env.now)

    env.process(writer(env))
    env.run(until=60.0)
    assert finished == [pytest.approx(12.4)]


def test_deregister_mid_retry_releases_the_waiter():
    """A member that keeps dropping ACKs and then dies must not strand
    the writer: deregistration drops it from the pending set."""
    env, coord = make_env_and_coord()
    coord.register("d", "a", lambda inv: None)
    coord.register("d", "b", lambda inv: None)
    env.chaos = AckChaos({"b": None})  # b never ACKs

    done = start_invalidate(env, coord)
    env.run(until=10.0)
    assert not done.triggered  # still waiting on b
    assert coord.acks_received == 1  # a's ACK landed

    coord.deregister("d", "b")
    env.run(until=40.0)
    assert done.triggered
    # b's in-flight redelivery hits the liveness check and exits the
    # loop without a late ACK: no double count, no hung waiter.
    assert coord.acks_received == 1
    assert coord._pending == {}


def test_retry_disabled_strands_writer_until_deregister():
    """ack_max_retries=0 is the deliberately broken path: one dropped
    ACK and the deliver loop gives up for good."""
    env, coord = make_env_and_coord(ack_max_retries=0)
    coord.register("d", "b", lambda inv: None)
    env.chaos = AckChaos({"b": 1})  # a single drop is now fatal

    done = start_invalidate(env, coord)
    env.run(until=100.0)
    assert not done.triggered
    assert coord.acks_received == 0

    coord.deregister("d", "b")
    env.run(until=110.0)
    assert done.triggered


def test_deregister_racing_inflight_ack_does_not_double_trigger():
    """b's ACK is already in flight when b deregisters: the round
    completes via the deregister release, and the late ack() finds
    the pending entry gone and must be a harmless no-op."""
    env, coord = make_env_and_coord()
    coord.register("d", "b", lambda inv: None)

    done = start_invalidate(env, coord)

    def killer(env):
        yield env.timeout(0.6)  # after handler (0.4), before ACK (0.8)
        coord.deregister("d", "b")

    env.process(killer(env))
    env.run(until=10.0)
    assert done.triggered
    # The deliver loop still records its ACK at t=0.8 (the message was
    # in flight), but the pending entry is gone: nothing re-triggers.
    assert coord.acks_received == 1
    assert coord._pending == {}


def test_late_ack_for_unknown_inv_is_harmless():
    env, coord = make_env_and_coord()
    coord.register("d", "b", lambda inv: None)
    done = start_invalidate(env, coord)
    env.run(until=10.0)
    assert done.triggered
    coord.ack(1, "b")  # round long gone
    assert coord.acks_received == 2  # counted, but nothing to trigger
    assert coord._pending == {}


# -- rounds with several members ------------------------------------------
# One delivery process serves a whole round; these pin that each member
# still sees exactly the timeline a process of its own would give it.

def register_counting(coord, members):
    handled = {member_id: 0 for member_id in members}

    def handler_for(member_id):
        def handler(inv):
            handled[member_id] += 1
        return handler

    for member_id in members:
        coord.register("d", member_id, handler_for(member_id))
    return handled


def test_multi_member_round_redelivers_each_member_by_its_drops():
    env, coord = make_env_and_coord(ack_max_retries=3)
    handled = register_counting(coord, ["a", "b", "c", "d"])
    env.chaos = AckChaos({"b": 1, "c": 3, "d": None})

    done = start_invalidate(env, coord)
    env.run(until=25.0)
    # Each handler runs once plus once per dropped ACK; d drops forever
    # and gives up after 1 + ack_max_retries deliveries.
    assert handled == {"a": 1, "b": 2, "c": 4, "d": 4}
    assert coord.invs_sent == 4
    assert coord.acks_received == 3
    assert sorted(env.chaos.calls) == sorted(
        [("d", "a")] + [("d", "b")] * 2 + [("d", "c")] * 4 + [("d", "d")] * 4
    )
    # d never ACKs, so the writer waits until d deregisters.
    assert not done.triggered
    assert coord._pending[1].waiting == {"d"}
    coord.deregister("d", "d")
    env.run(until=30.0)
    assert done.triggered
    assert done.value == 4
    assert coord._pending == {}


def test_multi_member_round_releases_writer_at_slowest_ack():
    env, coord = make_env_and_coord()
    handled = register_counting(coord, ["a", "b", "c"])
    env.chaos = AckChaos({"b": 1, "c": 3})
    finished = []

    def writer(env):
        yield from coord.invalidate("d", paths=("/x",))
        finished.append(env.now)

    env.process(writer(env))
    env.run(until=60.0)
    # publish + ack, then one (retry + publish + ack) per drop of the
    # slowest member: 0.8 + 3 * (5.0 + 0.8) = 18.2 ms.
    assert finished == [pytest.approx(18.2)]
    assert handled == {"a": 1, "b": 2, "c": 4}
    assert coord.acks_received == 3


def test_deregister_mid_round_releases_only_that_member():
    env, coord = make_env_and_coord()
    handled = register_counting(coord, ["a", "b", "c"])
    env.chaos = AckChaos({"b": None, "c": None})

    done = start_invalidate(env, coord)
    env.run(until=10.0)
    assert coord.acks_received == 1  # a's ACK landed
    assert coord._pending[1].waiting == {"b", "c"}

    coord.deregister("d", "b")
    assert coord._pending[1].waiting == {"c"}
    b_deliveries = handled["b"]
    c_deliveries = handled["c"]
    env.run(until=30.0)
    # c still holds the writer and keeps being redelivered; b's
    # redeliveries stop at the liveness check.
    assert not done.triggered
    assert handled["b"] == b_deliveries
    assert handled["c"] > c_deliveries

    coord.deregister("d", "c")
    env.run(until=40.0)
    assert done.triggered
    assert coord.acks_received == 1
    assert coord._pending == {}


def test_each_member_gets_one_span_with_its_outcome():
    env, coord = make_env_and_coord(ack_max_retries=1)
    tracer = Tracer(env)
    register_counting(coord, ["a", "b", "c", "gone"])
    env.chaos = AckChaos({"b": 1, "c": None})

    def killer(env):
        yield env.timeout(0.2)  # before the first publish lands
        coord.deregister("d", "gone")

    start_invalidate(env, coord)
    env.process(killer(env))
    env.run(until=40.0)

    member_spans = [
        span for span in tracer.spans.values() if span.kind == "coord.member"
    ]
    assert sorted(span.actor for span in member_spans) == ["a", "b", "c", "gone"]
    outcome = {span.actor: span for span in member_spans}
    round_span = next(
        span for span in tracer.spans.values() if span.kind == "coord.inv"
    )
    for span in member_spans:
        assert span.parent_id == round_span.span_id
        assert span.start_ms == 0.0
        assert span.end_ms is not None
    assert outcome["a"].attrs.get("delivered") is True
    assert "acked" not in outcome["a"].attrs
    assert outcome["a"].end_ms == pytest.approx(0.8)
    assert outcome["b"].attrs.get("delivered") is True
    assert "acked" not in outcome["b"].attrs
    assert outcome["b"].end_ms == pytest.approx(6.6)
    # c exhausts its single redelivery: delivered but never ACKed.
    assert outcome["c"].attrs.get("delivered") is True
    assert outcome["c"].attrs.get("acked") is False
    assert outcome["c"].end_ms == pytest.approx(6.6)
    assert outcome["gone"].attrs.get("delivered") is False
    assert outcome["gone"].end_ms == pytest.approx(0.4)


# -- rounds spanning several deployments -----------------------------------
# One write's INVs to several deployments share one round: one delivery
# walks every deployment's members on one timeline and the writer waits
# on one event.  Each deployment still settles on its own: its
# ``coord.inv`` span ends, and its ``coord_ack_latency_ms`` is observed,
# when its own last ACK or deregistration releases it.

class Observations:
    """Stands in for ``env.metrics``: records every observation."""

    def __init__(self, env):
        self.env = env
        self.observed = []

    def inc(self, name, amount=1.0, **labels):
        pass

    def observe(self, name, value, **labels):
        self.observed.append((name, value, self.env.now))


def register_recording(coord, deployment, members, handled):
    for member_id in members:
        coord.register(
            deployment, member_id,
            lambda inv, member_id=member_id: handled.append(
                (member_id, inv.deployment, inv.paths)
            ),
        )


def inv_spans(tracer):
    return {
        span.attrs["deployment"]: span
        for span in tracer.spans.values() if span.kind == "coord.inv"
    }


def test_two_deployment_round_settles_each_deployment_on_its_own():
    env, coord = make_env_and_coord()
    tracer = Tracer(env)
    metrics = Observations(env)
    env.metrics = metrics
    handled = []
    # d1: the writer w (excluded), a, and b, whose first ACK is lost.
    # d2: c, and e, which never ACKs and deregisters mid-round.
    register_recording(coord, "d1", ["w", "a", "b"], handled)
    register_recording(coord, "d2", ["c", "e"], handled)
    env.chaos = AckChaos({"b": 1, "e": None})
    finished = []

    def writer(env):
        contacted = yield from coord.invalidate(
            {"d1": ["/p/f"], "d2": ["/p"]}, exclude=["w"], initiator="w",
        )
        finished.append((env.now, contacted))

    def killer(env):
        yield env.timeout(3.0)
        coord.deregister("d2", "e")

    env.process(writer(env))
    env.process(killer(env))
    env.run(until=60.0)

    # d2 settles when e deregisters (c ACKed at 0.8); d1 when b's
    # redelivered ACK lands: 0.8 + 5.0 retry + 0.8 = 6.6 ms.
    spans = inv_spans(tracer)
    assert spans["d2"].end_ms == pytest.approx(3.0)
    assert spans["d1"].end_ms == pytest.approx(6.6)
    assert spans["d1"].attrs["members"] == 2
    assert spans["d2"].attrs["members"] == 2
    assert spans["d1"].attrs["inv_id"] != spans["d2"].attrs["inv_id"]
    latencies = [
        (value, at) for name, value, at in metrics.observed
        if name == "coord_ack_latency_ms"
    ]
    assert latencies == [
        (pytest.approx(3.0), pytest.approx(3.0)),
        (pytest.approx(6.6), pytest.approx(6.6)),
    ]
    # The writer resumes when the last deployment settles.
    assert finished == [(pytest.approx(6.6), 4)]
    assert coord._pending == {}
    # One delivery walks d1's members, then d2's, on every leg.
    assert handled[:4] == [
        ("a", "d1", ("/p/f",)), ("b", "d1", ("/p/f",)),
        ("c", "d2", ("/p",)), ("e", "d2", ("/p",)),
    ]
    assert env.chaos.calls[:4] == [
        ("d1", "a"), ("d1", "b"), ("d2", "c"), ("d2", "e"),
    ]
    assert ("w", "d1", ("/p/f",)) not in handled
    # Each member span hangs off its own deployment's round span.
    member_parent = {
        span.actor: span.parent_id
        for span in tracer.spans.values() if span.kind == "coord.member"
    }
    assert member_parent == {
        "a": spans["d1"].span_id, "b": spans["d1"].span_id,
        "c": spans["d2"].span_id, "e": spans["d2"].span_id,
    }


def test_round_with_no_targets_settles_without_delivering():
    env, coord = make_env_and_coord()
    tracer = Tracer(env)
    handled = []
    register_recording(coord, "d1", ["w"], handled)
    finished = []

    def writer(env):
        contacted = yield from coord.invalidate(
            {"d1": ["/a"], "ghost": ["/b"]}, exclude=["w"], initiator="w",
        )
        finished.append((env.now, contacted))

    env.process(writer(env))
    env.run()
    assert finished == [(0.0, 0)]
    assert handled == []
    assert coord.invs_sent == 0
    assert coord._pending == {}
    spans = inv_spans(tracer)
    assert sorted(spans) == ["d1", "ghost"]
    assert all(span.end_ms == 0.0 for span in spans.values())
    kinds = {span.kind for span in tracer.spans.values()}
    assert "coord.member" not in kinds
    assert "coord.inv_deliver" not in kinds


def test_writer_resumes_same_hops_after_settling_for_any_deployment_count():
    """Same-instant writers resume in the order their rounds settled,
    however many deployments each round spans."""
    env, coord = make_env_and_coord()
    for deployment in ("d1", "d2", "d3"):
        coord.register(deployment, f"m-{deployment}", lambda inv: None)
    resumed = []

    def writer(env, name, shares):
        yield from coord.invalidate(shares)
        resumed.append((name, env.now))

    # The two-deployment round is started (so settles) first.
    env.process(writer(env, "wide", {"d1": ["/a"], "d2": ["/b"]}))
    env.process(writer(env, "narrow", {"d3": ["/c"]}))
    env.run()
    assert resumed == [("wide", pytest.approx(0.8)), ("narrow", pytest.approx(0.8))]
