"""Property-based test: NamespaceOps equals a path-set model.

Sequential random create/mkdir/delete/mv programs against the real
transactional store must leave exactly the namespace a plain
set-of-paths model predicts.
"""

from unittest.mock import patch

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import FsError
from repro.core.operations import NamespaceOps
from repro.metastore import NdbStore, ndb
from repro.metastore.errors import TransactionAborted
from repro.namespace.paths import is_descendant, parent_of
from repro.sim import Environment

NAMES = ["x", "y"]
DIRS = ["/", "/a", "/a/b"]

operation = st.one_of(
    st.tuples(st.just("create"), st.sampled_from(DIRS), st.sampled_from(NAMES)),
    st.tuples(st.just("mkdirs"), st.sampled_from(DIRS), st.sampled_from(NAMES)),
    st.tuples(st.just("delete"), st.sampled_from(DIRS), st.sampled_from(NAMES)),
    st.tuples(st.just("mv"), st.sampled_from(DIRS), st.sampled_from(NAMES)),
)


class Model:
    """Plain model: path -> is_dir."""

    def __init__(self):
        self.entries = {"/": True, "/a": True, "/a/b": True}

    def exists(self, path):
        return path in self.entries

    def create(self, path):
        parent = parent_of(path)
        if not self.entries.get(parent) or path in self.entries:
            return False
        self.entries[path] = False
        return True

    def mkdirs(self, path):
        if path in self.entries:
            return self.entries[path]  # ok iff it's a directory
        parent = parent_of(path)
        if parent not in self.entries:
            self.mkdirs(parent)
        if not self.entries.get(parent):
            return False
        self.entries[path] = True
        return True

    def delete(self, path):
        # Non-recursive: only files or empty dirs.
        if path not in self.entries:
            return False
        if self.entries[path] and any(
            p != path and is_descendant(p, path) for p in self.entries
        ):
            return False
        del self.entries[path]
        return True

    def mv(self, src, dst):
        if src not in self.entries or dst in self.entries:
            return False
        parent = parent_of(dst)
        if not self.entries.get(parent):
            return False
        moved = {
            p: d for p, d in self.entries.items() if is_descendant(p, src)
        }
        for p in moved:
            del self.entries[p]
        for p, d in moved.items():
            self.entries[dst + p[len(src):]] = d
        return True


@settings(max_examples=50, deadline=None)
@given(st.lists(operation, min_size=1, max_size=20))
def test_namespace_ops_match_model(program):
    with patch.object(ndb, "RTT_MS", 0.0):
        env = Environment()
        store = NdbStore(env)
        ops = NamespaceOps(store)
        ops.format()
        ops.install_paths(["/a/b"], [])
        model = Model()
        mismatches = []

        def run_op(txn_body):
            return store.run_transaction(txn_body)

        def scenario(env):
            serial = 0
            for kind, directory, name in program:
                serial += 1
                path = f"{directory}/{name}".replace("//", "/")
                try:
                    if kind == "create":
                        yield from run_op(lambda txn: ops.create_file(txn, path))
                        ok = True
                    elif kind == "mkdirs":
                        yield from run_op(lambda txn: ops.mkdirs(txn, path))
                        ok = True
                    elif kind == "delete":
                        yield from run_op(lambda txn: ops.delete_single(txn, path))
                        ok = True
                    else:
                        dst = f"{directory}/mv{serial}".replace("//", "/")
                        yield from run_op(lambda txn: ops.mv_single(txn, path, dst))
                        ok = True
                except (FsError, TransactionAborted):
                    ok = False

                if kind == "create":
                    expected = model.create(path)
                elif kind == "mkdirs":
                    expected = model.mkdirs(path)
                elif kind == "delete":
                    expected = model.delete(path)
                else:
                    expected = model.mv(path, dst)
                if ok != expected:
                    mismatches.append((kind, path, ok, expected))

        done = env.process(scenario(env))
        env.run(until=done)
        assert mismatches == []
        # The store's committed rows agree with the model's survivors.
        for path, is_dir in model.entries.items():
            if path == "/":
                continue
            box = {}

            def check(env, path=path):
                box["r"] = yield from store.run_transaction(
                    lambda txn: ops.resolve(txn, path)
                )

            done = env.process(check(env))
            env.run(until=done)
            assert box["r"][path].is_dir == is_dir
