"""Every parameter of a function in `src/mdl` is read in the function's
body, and every name imported in `src/mdl` or `tests` is read in its
module.  A parameter that is accepted and never read is a knob that does
nothing, and its caller is told something false."""

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
