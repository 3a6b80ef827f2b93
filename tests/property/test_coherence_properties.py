"""Property-based end-to-end test: λFS never serves stale metadata.

Random sequences of namespace operations are issued through two
clients (whose NameNodes cache independently); after every operation
the responses must agree with a plain dict model of the namespace.
The coherence protocol (INV/ACK before persist) is what makes this
hold — any missed invalidation shows up as a stale stat/ls.
"""

from unittest.mock import patch

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import LambdaFS, LambdaFSConfig
from repro.faas import FaaSConfig, platform
from repro.sim import Environment

NAMES = ["a", "b", "c"]
DIRS = ["/d0", "/d1"]

operation = st.one_of(
    st.tuples(st.just("create"), st.sampled_from(DIRS), st.sampled_from(NAMES)),
    st.tuples(st.just("delete"), st.sampled_from(DIRS), st.sampled_from(NAMES)),
    st.tuples(st.just("mv"), st.sampled_from(DIRS), st.sampled_from(NAMES)),
    st.tuples(st.just("stat"), st.sampled_from(DIRS), st.sampled_from(NAMES)),
    st.tuples(st.just("ls"), st.sampled_from(DIRS), st.just("")),
)


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
    fs.install_namespace(DIRS, [])
    return fs


@settings(max_examples=25, deadline=None)
@given(st.lists(operation, min_size=1, max_size=25), st.randoms())
def test_two_client_view_matches_model(ops, rng):
    with patch.object(platform, "APP_INIT_MS", 2.0):
        env = Environment()
        fs = build_fs(env)
        clients = [fs.new_client(fs.new_vm()), fs.new_client(fs.new_vm())]
        model = {directory: set() for directory in DIRS}
        failures = []

        def scenario(env):
            for kind, directory, name in ops:
                client = clients[rng.randrange(2)]
                path = f"{directory}/{name}"
                if kind == "create":
                    response = yield from client.create_file(path)
                    expected_ok = name not in model[directory]
                    if response.ok != expected_ok:
                        failures.append(("create", path, response.ok, expected_ok))
                    if response.ok:
                        model[directory].add(name)
                elif kind == "delete":
                    response = yield from client.delete(path)
                    expected_ok = name in model[directory]
                    if response.ok != expected_ok:
                        failures.append(("delete", path, response.ok, expected_ok))
                    if response.ok:
                        model[directory].discard(name)
                elif kind == "mv":
                    other = DIRS[1 - DIRS.index(directory)]
                    response = yield from client.mv(path, f"{other}/{name}")
                    expected_ok = (
                        name in model[directory] and name not in model[other]
                    )
                    if response.ok != expected_ok:
                        failures.append(("mv", path, response.ok, expected_ok))
                    if response.ok:
                        model[directory].discard(name)
                        model[other].add(name)
                elif kind == "stat":
                    response = yield from client.stat(path)
                    expected_ok = name in model[directory]
                    if response.ok != expected_ok:
                        failures.append(("stat", path, response.ok, expected_ok))
                else:  # ls
                    response = yield from client.ls(directory)
                    if sorted(response.value) != sorted(model[directory]):
                        failures.append(
                            ("ls", directory, response.value, sorted(model[directory]))
                        )

        done = env.process(scenario(env))
        env.run(until=done)
        assert failures == []
