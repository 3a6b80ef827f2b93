"""Every defaulted parameter is passed by some caller.

The parameter form of ``tests/test_config_fields.py``'s rule: a
defaulted parameter of a function or method under ``src/`` that no
run-code call passes is a constant wearing a knob's clothes.  This
test parses ``src/``, ``benchmarks/``, ``perfbench/``, ``scripts/`` and
``examples/`` (not ``tests/``: a test that needs another value patches
the module constant) and fails naming each such parameter.

Callees are resolved by name: ``f(...)`` and ``x.f(...)`` call every
function or method named ``f``.  ``C(...)`` calls the ``__init__``
that ``C`` defines or inherits, and ``super().__init__(...)`` and
``Base.__init__(self, ...)`` call the one above the class they sit in.
A call passes a parameter by keyword, by position, or by any
``*args`` / ``**kwargs`` it spreads.  A function used as a value
(stored in a dict, passed as a callback, used as a decorator) may be
called with anything, so it counts as passed everything.  A bare name
that an enclosing function binds (a parameter, an assignment, a
``for``/``with``/``except`` target) is that local, not a function used
as a value, as in ``tests/test_reachability.py``.
"""

import ast
import functools
import textwrap
from pathlib import Path

from tests.test_reachability import SCOPES, _locals

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src", "benchmarks", "perfbench", "scripts", "examples")
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _trees(directory):
    for path in sorted((ROOT / directory).rglob("*.py")):
        yield ast.parse(path.read_text(encoding="utf-8"))


@functools.lru_cache(maxsize=None)
def scan():
    """``{directory: trees}`` for every run-code directory."""
    return {directory: tuple(_trees(directory)) for directory in SCANNED}


def _decorators(node):
    return {ast.unparse(d).split("(")[0] for d in node.decorator_list}


class Callee:
    """One function or method and its defaulted parameters."""

    def __init__(self, qualname, function, bound):
        args = function.args
        self.qualname = qualname
        positional = args.posonlyargs + args.args
        self.positional = [a.arg for a in positional[bound:]]
        first_default = len(positional) - len(args.defaults)
        self.defaulted = [a.arg for a in positional[max(first_default, bound):]]
        self.defaulted += [
            a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults)
            if d is not None
        ]
        self.passed = set()

    def record(self, call, offset=0):
        """Mark what ``call`` passes; ``offset`` counts the positional
        arguments that fill ``self`` (``Base.__init__(self, ...)``)."""
        if any(isinstance(a, ast.Starred) for a in call.args) or any(
                k.arg is None for k in call.keywords):
            self.passed.update(self.defaulted)
            return
        self.passed.update(self.positional[:len(call.args) - offset])
        self.passed.update(k.arg for k in call.keywords)

    def unpassed(self):
        return [f"{self.qualname}({name})" for name in self.defaulted
                if name not in self.passed]


class Program:
    """The callees under ``src/`` and the class graph, by name."""

    def __init__(self, src):
        self.by_name = {}    # callable name -> [Callee]
        self.inits = {}      # class -> its own __init__ Callee
        self.bases = {}      # class -> [base class names]
        for tree in src:
            for node in tree.body:
                if isinstance(node, FUNCTIONS):
                    self._add(node.name, node.name, node, 0)
                elif isinstance(node, ast.ClassDef):
                    self._add_class(node)

    def _add(self, name, qualname, function, bound):
        self.by_name.setdefault(name, []).append(
            Callee(qualname, function, bound))

    def _add_class(self, node):
        self.bases[node.name] = [
            ast.unparse(b).split(".")[-1] for b in node.bases]
        for item in node.body:
            if not isinstance(item, FUNCTIONS):
                continue
            bound = 0 if "staticmethod" in _decorators(item) else 1
            qualname = f"{node.name}.{item.name}"
            if item.name == "__init__":
                self.inits[node.name] = Callee(qualname, item, bound)
            else:
                self._add(item.name, qualname, item, bound)
        if "dataclass" in {d.split(".")[-1] for d in _decorators(node)}:
            self.inits.setdefault(node.name, None)

    def init_of(self, cls):
        """The ``__init__`` that ``cls`` defines or inherits."""
        seen = set()
        stack = [cls]
        while stack:
            name = stack.pop(0)
            if name in seen:
                continue
            seen.add(name)
            if name in self.inits:
                return self.inits[name]
            stack.extend(self.bases.get(name, ()))
        return None

    def above(self, cls):
        """The ``__init__`` a ``super().__init__`` in ``cls`` calls."""
        for base in self.bases.get(cls, ()):
            init = self.init_of(base)
            if init is not None:
                return init
        return None

    def callees(self, name):
        found = list(self.by_name.get(name, ()))
        init = self.init_of(name) if name in self.bases else None
        return found + ([init] if init is not None else [])

    def record(self, tree):
        """Record every call in ``tree``, and every callee it uses as a
        value.  A call is walked before its ``func``, so ``called``
        holds each ``func`` by the time the walk reaches it."""
        called = set()
        for cls, hidden, node in _walk(tree):
            if isinstance(node, ast.Call):
                called.add(id(node.func))
                self._record_call(cls, node)
                continue
            name = _name(node)
            if (name is not None and id(node) not in called
                    and isinstance(node.ctx, ast.Load)
                    and not (isinstance(node, ast.Name) and name in hidden)):
                for callee in self.callees(name):
                    callee.passed.update(callee.defaulted)

    def _record_call(self, cls, call):
        func = call.func
        if isinstance(func, ast.Attribute) and func.attr == "__init__":
            owner = func.value
            if (isinstance(owner, ast.Call) and isinstance(owner.func, ast.Name)
                    and owner.func.id == "super" and cls is not None):
                init, offset = self.above(cls), 0
            else:
                init = self.init_of(_name(owner) or "")
                offset = 1
            if init is not None:
                init.record(call, offset)
            return
        name = _name(func)
        if name is None:
            return
        if name == "cls" and cls is not None:
            name = cls
        for callee in self.callees(name):
            callee.record(call)

    def every(self):
        found = [c for callees in self.by_name.values() for c in callees]
        return found + [c for c in self.inits.values() if c is not None]


def _name(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _walk(tree):
    """``(enclosing class name or None, names the enclosing functions
    bind, node)`` for every node."""
    stack = [(None, frozenset(), tree)]
    while stack:
        cls, hidden, node = stack.pop()
        yield cls, hidden, node
        inner = node.name if isinstance(node, ast.ClassDef) else cls
        if isinstance(node, SCOPES):
            hidden = hidden | _locals(node)
        stack.extend(
            (inner, hidden, child) for child in ast.iter_child_nodes(node))


def unpassed_parameters(src, every):
    program = Program(src)
    for tree in every:
        program.record(tree)
    return sorted(p for callee in program.every() for p in callee.unpassed())


def unpassed_in(trees_by_directory):
    """:func:`unpassed_parameters` of the ``src`` trees over every
    run-code tree; any other directory (``tests``) is ignored."""
    return unpassed_parameters(trees_by_directory["src"], [
        tree for directory in SCANNED
        for tree in trees_by_directory.get(directory, ())])


def defaulted_count(src):
    return sum(len(c.defaulted) for c in Program(src).every())


def test_the_scan_sees_the_tree():
    trees = scan()
    assert all(trees[directory] for directory in SCANNED)
    assert defaulted_count(trees["src"]) > 200


def test_every_defaulted_parameter_is_passed_by_some_caller():
    unpassed = unpassed_in(scan())
    assert not unpassed, (
        f"{len(unpassed)} defaulted parameter(s) no run code passes; drop "
        f"each and inline its default (or make it a module-level "
        f"constant beside its reader): {', '.join(unpassed)}"
    )


def _synthetic(*sources):
    return tuple(ast.parse(textwrap.dedent(source)) for source in sources)


def test_inherited_super_and_spread_calls_pass_parameters():
    src = _synthetic('''
        class Base:
            def __init__(self, a=1, b=2, c=3):
                pass

        class Child(Base):
            pass

        class Other(Base):
            def __init__(self, d=4):
                super().__init__(b=d)

        def spread(x=1, y=2):
            pass

        def unused(z=0):
            pass
    ''')
    callers = _synthetic('''
        Child(a=5)
        Other(d=6)
        Base.__init__(object(), 1, 2, 3)
        spread(**{"x": 1})
        unused()
    ''')
    assert unpassed_parameters(src, src + callers) == ["unused(z)"]


def test_a_parameter_only_tests_pass_is_flagged():
    src, run, tests = _synthetic('''
        def plot(series, width=72, height=14):
            pass
    ''', '''
        plot([], width=40)
    ''', '''
        plot([], height=4)
    ''')
    assert unpassed_in({"src": (src,), "examples": (run,),
                        "tests": (tests,)}) == ["plot(height)"]


def test_a_local_of_the_same_name_is_not_a_use():
    src = _synthetic('''
        def stop(final=True):
            pass

        def sample(every=1):
            pass

        def hook(when=0):
            pass
    ''')
    callers = _synthetic('''
        def run(stop):
            return stop

        def last(ends):
            sample = ends[-1]
            try:
                pass
            except ValueError as sample:
                pass
            for sample in ends:
                pass
            return sample

        stop()
        sample()
        callbacks = [hook]
    ''')
    assert unpassed_parameters(src, src + callers) == [
        "sample(every)", "stop(final)"]
