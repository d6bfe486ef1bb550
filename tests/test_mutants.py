"""The mutant catalogue stays applicable: each `old` text occurs exactly
once in its file, each named test file exists, and each killer written
`file::test_name` names a test function defined in that file."""

import ast

from mutants import MUTANTS, ROOT


def test_each_mutant_applies_exactly_once():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
    for m in MUTANTS:
        text = (ROOT / "src" / "mdl" / m.file).read_text()
        assert text.count(m.old) == 1, m.name
        assert m.new != m.old, m.name
        for killer in m.killers:
            path, _, test = killer.partition("::")
            assert (ROOT / path).is_file(), m.name
            if test:
                tree = ast.parse((ROOT / path).read_text())
                defined = {n.name for n in tree.body
                           if isinstance(n, ast.FunctionDef)}
                assert test in defined, (m.name, killer)
