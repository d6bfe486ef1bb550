"""A predicate on a form is decided by `FormEvaluator.decide`, the one
precision ladder for it.  Any other loop over `precision_ladder` in
`src/mdl` raises something other than a form's precision, and says what
here; a new one fails this test until it does.

Likewise a pinned form meets the 2^-64 grid in one place: only
`realnum.form_lane` reads the 64-bit pins, and only `realnum._wrap` lets
numpy wrap around.  And only `realnum` reads a pin table at all: every
other module takes its windows from `FormEvaluator`, whose walk
`run_windows` steps a pinned sum for the fibre and the ETK shells."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "mdl"

#: (module, function) -> why it climbs a ladder of its own
ALLOWED = {
    ("realnum", "FormEvaluator.decide"):
        "the one ladder of a predicate on a form",
    ("discrepancy", "star_discrepancy_1d"):
        "separates the sorted order of all Q orbit points at one rung, not "
        "one form; its first rung also feeds the uint64 orbit lane",
    ("cfrac", "expand"):
        "refines the parameter's own enclosure through a chain of "
        "reciprocals, not a form modulo 1",
    ("cfrac", "_best_candidate"):
        "compares two exponents -log2||form|| / log2(height), whose log2 "
        "bounds take the rung's precision too",
    ("circlesets", "master_check"):
        "raises the precision of gamma's pin in the pair kernel's measure, "
        "not of a form",
}


def _callers(matches):
    """(module, function) of every call in `src/mdl` that `matches`."""
    found = set()

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, module, scope + (child.name,))
                continue
            if isinstance(child, ast.Call):
                f = child.func
                name = f.id if isinstance(f, ast.Name) else \
                    f.attr if isinstance(f, ast.Attribute) else None
                if matches(name, child.args):
                    found.add((module, ".".join(scope) or "<module>"))
            visit(child, module, scope)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, ())
    return found


def test_every_ladder_is_decide_or_says_why():
    callers = _callers(lambda name, _: name == "precision_ladder")
    assert sorted(callers - ALLOWED.keys()) == []
    # an entry whose function no longer climbs a ladder is dropped here too
    assert sorted(ALLOWED.keys() - callers) == []


def _pins_at_64(name, args):
    return name == "pin" and len(args) == 1 and \
        isinstance(args[0], ast.Constant) and args[0].value == 64


def test_one_lane_reads_the_64_bit_pins():
    assert _callers(_pins_at_64) == {("realnum", "form_lane")}
    assert _callers(lambda name, _: name == "errstate") == {("realnum", "_wrap")}


def test_only_realnum_reads_pin_tables():
    outside = {(module, function) for module, function
               in _callers(lambda name, _: name == "pin")
               if module != "realnum"}
    assert sorted(outside) == []
