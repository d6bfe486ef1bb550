"""Golden CLI output: one or more small invocations per command, the README
block and one `--format json` run, each pinned to its exit code and stdout
bytes in data/cli_golden.json.

After an intended change to the records, rewrite the file from the current
code with

    PYTHONPATH=src python tests/test_cli_golden.py

and say in the change log which cases moved and why."""

import contextlib
import io
import json
import shlex
from pathlib import Path

import pytest

from mdl import cli

GOLDEN = Path(__file__).resolve().parent / "data" / "cli_golden.json"
CASES = json.loads(GOLDEN.read_text())


def run(argv: str):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(shlex.split(argv))
    return rc, out.getvalue()


@pytest.mark.parametrize("case", CASES, ids=[c["argv"] for c in CASES])
def test_golden_output(case):
    assert run(case["argv"]) == (case["exit"], case["stdout"])


def test_every_command_has_a_golden_case():
    assert {shlex.split(c["argv"])[0] for c in CASES} == set(cli.COMMANDS)


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_help_exits_0(command, capsys):
    with pytest.raises(SystemExit) as e:
        cli.main([command, "--help"])
    assert e.value.code == 0
    assert f"usage: mdl {command}" in capsys.readouterr().out


if __name__ == "__main__":
    cases = [{"argv": c["argv"], "exit": rc, "stdout": out}
             for c in CASES for rc, out in [run(c["argv"])]]
    GOLDEN.write_text(json.dumps(cases, indent=1) + "\n")
