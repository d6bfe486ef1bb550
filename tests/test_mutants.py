"""The mutant catalogue stays applicable: each `old` text occurs exactly
once in its file, and each named test file exists."""

from mutants import MUTANTS, ROOT


def test_each_mutant_applies_exactly_once():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
    for m in MUTANTS:
        text = (ROOT / "src" / "mdl" / m.file).read_text()
        assert text.count(m.old) == 1, m.name
        assert m.new != m.old, m.name
        for killer in m.killers:
            assert (ROOT / killer.partition("::")[0]).is_file(), m.name
