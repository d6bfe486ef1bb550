"""Every parameter of a function in `src/mdl` is read in the function's
body, every defaulted one is set by some caller in `src/mdl` or
`perfbench`, and every name imported in `src/mdl` or `tests` is read in its
module.  A parameter that is accepted and never read is a knob that does
nothing, and its caller is told something false; one that only tests set
is a mode that no result of the program goes through."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "mdl"

#: (file, function, parameter) -> why it stays unread
ALLOWED: dict = {}


def _unread_parameters():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.Lambda)):
                continue
            args = node.args
            params = args.posonlyargs + args.args + args.kwonlyargs + \
                [a for a in (args.vararg, args.kwarg) if a is not None]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {n.id for stmt in body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            name = getattr(node, "name", "<lambda>")
            found |= {(path.name, name, p.arg) for p in params
                      if p.arg not in ("self", "cls") and p.arg not in read}
    return found


def test_every_parameter_is_read():
    unread = _unread_parameters()
    assert sorted(unread - ALLOWED.keys()) == []
    # an entry whose parameter is read again, or gone, is dropped here too
    assert sorted(ALLOWED.keys() - unread) == []


TESTS = SRC.parents[1] / "tests"

#: (file, imported name) -> why it stays unread
ALLOWED_IMPORTS: dict = {}


def _unread_imports():
    found = set()
    for path in sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")):
        tree = ast.parse(path.read_text())
        bound = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound |= {a.asname or a.name.split(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom) and \
                    node.module != "__future__":
                bound |= {a.asname or a.name for a in node.names}
        read = {n.id for n in ast.walk(tree)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        found |= {(f"{path.parent.name}/{path.name}", name)
                  for name in bound - read}
    return found


def test_every_import_is_read():
    """An imported name that nothing reads is dead weight, and it hides
    what a module really depends on."""
    unread = _unread_imports()
    assert sorted(unread - ALLOWED_IMPORTS.keys()) == []
    assert sorted(ALLOWED_IMPORTS.keys() - unread) == []


PERFBENCH = SRC.parents[1] / "perfbench"

#: (file, function, parameter) -> why no caller outside the tests sets it
ALLOWED_OPTIONS = {
    ("arith.py", "factorize", "sieve_bound"):
        "the seam that lets the tests compare the Pollard-Brent route with "
        "the sieve on every q the sieve covers",
    ("realnum.py", "eval", "cap"):
        "RealExpr is a test oracle that the benchmark's tracer still wraps",
}


def _defaulted_parameters():
    """(file, function, parameter, called name, position) for each
    parameter with a default; the position counts the call's own
    positional arguments (None for keyword-only ones), and `__init__` is
    called by its class name."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        scopes = [(tree, False)] + [(n, True) for n in ast.walk(tree)
                                    if isinstance(n, ast.ClassDef)]
        for scope, in_class in scopes:
            for node in scope.body:
                if not isinstance(node, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                    continue
                args = node.args
                pos = args.posonlyargs + args.args
                bound = in_class and not any(
                    isinstance(d, ast.Name) and d.id == "staticmethod"
                    for d in node.decorator_list)
                called = scope.name if node.name == "__init__" else node.name
                first = len(pos) - len(args.defaults)
                found += [(path.name, node.name, p.arg, called, i - bound)
                          for i, p in enumerate(pos) if i >= first]
                found += [(path.name, node.name, p.arg, called, None)
                          for p, d in zip(args.kwonlyargs, args.kw_defaults)
                          if d is not None]
    return found


def _unset_options():
    calls: dict = {}
    for path in sorted(SRC.glob("*.py")) + sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                f = node.func
                name = getattr(f, "id", None) or getattr(f, "attr", None)
                calls.setdefault(name, []).append(node)

    def sets(call, param, i):
        if any(k.arg in (param, None) for k in call.keywords):
            return True
        return i is not None and (len(call.args) > i or any(
            isinstance(a, ast.Starred) for a in call.args))

    return {(file, fn, param)
            for file, fn, param, called, i in _defaulted_parameters()
            if not any(sets(c, param, i) for c in calls.get(called, ()))}


def test_every_option_is_set_by_a_caller():
    """A defaulted parameter that no call in the library or the benchmark
    passes, by keyword or by position, runs only under the tests: keep the
    value the callers use as a constant instead.  Calls are matched by the
    function's name, and `__init__` by its class's name."""
    unset = _unset_options()
    assert sorted(unset - ALLOWED_OPTIONS.keys()) == []
    assert sorted(ALLOWED_OPTIONS.keys() - unset) == []


def _definitions():
    """(file, qualified name, name) of every `def` and `class` in `src/mdl`
    but the dunders and the `@command` handlers, which the CLI reaches
    through its command table."""
    found = set()

    def visit(node, path, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                name = child.name
                handler = any(isinstance(d, ast.Call) and
                              getattr(d.func, "id", None) == "command"
                              for d in child.decorator_list)
                dunder = name.startswith("__") and name.endswith("__")
                if not (handler or dunder):
                    found.add((path.name, ".".join(scope + (name,)), name))
                visit(child, path, scope + (name,))
            else:
                visit(child, path, scope)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path, ())
    return found


def _named():
    """Every name that `src/mdl` or `perfbench` reads: a Name, an
    attribute, an imported name, and in `perfbench` each dotted part of a
    string constant (its tracer wraps functions by their dotted names)."""
    names = set()
    for path in sorted(SRC.glob("*.py")) + sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.update(node.name.split("."))
            elif path.parent == PERFBENCH and isinstance(node, ast.Constant) \
                    and isinstance(node.value, str):
                names.update(node.value.split("."))
    return names


def test_every_definition_is_named_outside_the_tests():
    """A function or class of `src/mdl` that neither the library nor the
    benchmark names runs only under the tests: it belongs in
    `tests/oracles.py`, or nowhere."""
    named = _named()
    assert sorted(q for file, q, name in _definitions()
                  if name not in named) == []
