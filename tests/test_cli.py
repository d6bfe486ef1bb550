import argparse
import csv
import io
import json
import os
import shlex
import signal
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from mdl import cli, discrepancy, gallagher
from mdl.cli import main
from mdl.realnum import CapExceeded, DependenceError, parse_param

F = Fraction


def run_cli(*args):
    r = subprocess.run([sys.executable, "-m", "mdl.cli", *args],
                       capture_output=True, text=True)
    return r.returncode, r.stdout, r.stderr


def cells(out):
    lines = [l for l in out.strip().splitlines()[1:] if l]
    return [l.split(",") for l in lines]


def test_bc_ratio_example():
    rc, out, _ = run_cli("bc-ratio", "--psi", "const:1/10",
                         "--gamma", "rat:0", "--Q", "3")
    assert rc == 0
    row = cells(out)[0]
    assert row[0] == "bc-ratio"
    assert F(int(row[3]), int(row[4])) == F(27, 80)


def test_sigma_pair_example():
    rc, out, _ = run_cli("sigma-pair", "--gamma", "sqrt:2",
                         "--beta", "sqrt:3", "--N", "2")
    assert rc == 0
    rows = cells(out)
    val = F(int(rows[0][3]), int(rows[0][4]))
    assert abs(float(val) - 4.33) < 1e-2
    assert rows[1][3] == "1" and rows[2][3] == "-2"


def test_etk_example():
    rc, out, _ = run_cli("etk", "--alpha", "const:golden", "--N", "10",
                         "--H", "1")
    assert rc == 0
    row = cells(out)[0]
    assert abs(float(F(int(row[3]), int(row[4]))) - 184.249) < 1e-2


def test_no_bare_floats_in_csv():
    rc, out, _ = run_cli("disc", "--alpha", "sqrt:2", "--Q", "50")
    assert rc == 0
    for row in cells(out):
        for cell in row[3:7]:
            int(cell)      # every numeric cell is an exact integer pair


def test_json_format():
    rc, out, _ = run_cli("f-avg", "--Q", "100", "--format", "json")
    assert rc == 0
    data = json.loads(out)
    assert data[0]["experiment"] == "f-average"
    int(data[0]["value_num"])


def test_unknown_config_key(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("Q=3\nwibble=1\n")
    rc, out, err = run_cli("bc-ratio", "--psi", "const:1/10",
                           "--gamma", "rat:0", "--Q", "3",
                           "--config", str(cfg))
    assert rc == 1
    assert "wibble" in err


def test_config_supplies_and_flags_override(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("# experiment configuration\npsi=const:1/10\ngamma=rat:0\nQ=3\n")
    rc, out, _ = run_cli("bc-ratio", "--psi", "const:1/10",
                         "--gamma", "rat:0", "--Q", "2", "--config", str(cfg))
    assert rc == 0
    # Q=2 came from the flag, not the file
    assert cells(out)[0][2] == "2"


def test_config_malformed_line(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("Q 3\n")
    rc, _, err = run_cli("f-avg", "--Q", "5", "--config", str(cfg))
    assert rc == 1 and "1" in err


def test_bad_parameter_is_config_error():
    rc, _, err = run_cli("sigma", "--gamma", "sqrt:4", "--N", "5")
    assert rc == 1
    assert "config error" in err


def test_undecided_exit_code():
    """A decimal fibre parameter whose window straddles the support edge
    cannot be decided at any precision: exit code 2."""
    rc, out, _ = run_cli("div-sum", "--psi", "const:1/10",
                         "--beta", "dec:0.25@1e-12", "--gamma-prime", "rat:0",
                         "--omega", "1", "--Q", "4",
                         "--precision-bits", "256")
    assert rc == 2, out


def test_threads_do_not_change_output():
    args = ("mc-survey", "--psi", "overq:1/4", "--gamma", "sqrt:3",
            "--beta", "sqrt:2", "--Q", "200", "--samples", "8",
            "--seed", "7", "--direct")
    rc1, out1, _ = run_cli(*args, "--threads", "1")
    rc2, out2, _ = run_cli(*args, "--threads", "3")
    assert rc1 == rc2 == 0
    assert out1 == out2


def _counting_forks(monkeypatch):
    """Count the forks made from this process from now on."""
    forks, fork = [], os.fork

    def counted():
        forks.append(1)
        return fork()
    monkeypatch.setattr(os, "fork", counted)
    return forks


@pytest.mark.parametrize("argv, chunks", [
    ("master-sweep --psi overq:1/4 --gamma sqrt:2 --Q 3", 2),
    ("mc-survey --psi overq:1/4 --gamma sqrt:3 --beta sqrt:2 --Q 100 "
     "--samples 3 --direct", 3)])
def test_pool_starts_at_most_one_worker_per_chunk(argv, chunks, monkeypatch,
                                                 capsys):
    """--threads n forks min(n, chunks) - 1 children: the command's own
    process runs the first chunk."""
    assert main(shlex.split(argv + " --threads 1")) == 0
    serial = capsys.readouterr().out
    forks = _counting_forks(monkeypatch)
    for threads in (2, 3, 64):
        forks.clear()
        assert main(shlex.split(argv + f" --threads {threads}")) == 0
        assert len(forks) == min(threads, chunks) - 1, threads
        assert capsys.readouterr().out == serial


@pytest.mark.parametrize("fibre", [
    "--psi overq:1/4 --beta sqrt:2 --direct",
    "--psi log2sq:1/2 --beta sqrt:3 --omega 1/4"])
def test_mc_survey_builds_one_sweep_at_any_thread_count(fibre, tmp_path,
                                                        monkeypatch, capsys):
    """One `_HitSweep` per run, made before the fork, whatever --threads
    says; each build appends a line to a file, so a build in a child
    counts too."""
    log = tmp_path / "builds"
    init = gallagher._HitSweep.__init__

    def logged(self, *args, **kwargs):
        fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
        os.write(fd, b"build\n")
        os.close(fd)
        init(self, *args, **kwargs)
    monkeypatch.setattr(gallagher._HitSweep, "__init__", logged)
    outs = []
    for threads in (1, 2, 3):
        log.write_text("")
        assert main(shlex.split(f"mc-survey --gamma sqrt:3 {fibre} --Q 300 "
                                f"--samples 7 --seed 3 --threads {threads}")) == 0
        outs.append(capsys.readouterr().out)
        assert log.read_text() == "build\n", threads
    assert outs[0] == outs[1] == outs[2]


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _raise(error):
    raise error


@pytest.mark.parametrize("error", [
    cli.ConfigError("--samples must be >= 1"),
    DependenceError((2, -1), "distance cannot be separated from 0"),
    CapExceeded("needs more than 64 bits")])
def test_a_worker_error_is_raised_unchanged(error):
    """An error raised in a child comes back with its class and text, and
    the earliest failing chunk's error wins, as in a serial run; the
    child still sleeping past it is killed and reaped."""
    work = [None, lambda: _raise(error), lambda: _raise(ValueError("later")),
            lambda: time.sleep(60)]
    start = time.monotonic()
    with pytest.raises(type(error)) as caught:
        cli._pmap(lambda w: w and w(), work)
    assert str(caught.value) == str(error)
    assert time.monotonic() - start < 30
    _no_child_left()


@pytest.mark.parametrize("death", [
    lambda: os._exit(1),
    lambda: os.kill(os.getpid(), signal.SIGKILL)])
def test_a_worker_that_dies_is_an_error_not_a_hang(death):
    with pytest.raises(RuntimeError, match="ended without a result"):
        cli._pmap(lambda w: w and w(), [None, death])
    _no_child_left()


def test_a_failing_first_chunk_leaves_no_child():
    """The first chunk runs in this process: when it raises, the children
    are killed and reaped before the error goes on."""
    start = time.monotonic()
    with pytest.raises(CapExceeded, match="parent"):
        cli._pmap(lambda w: w(), [lambda: _raise(CapExceeded("parent")),
                                  lambda: time.sleep(60)])
    assert time.monotonic() - start < 30
    _no_child_left()


def test_pmap_runs_the_first_chunk_here_and_keeps_the_order():
    parts = cli._pmap(lambda w: (w, os.getpid()), [0, 1, 2])
    assert [w for w, _ in parts] == [0, 1, 2]
    assert parts[0][1] == os.getpid() and len({pid for _, pid in parts}) == 3
    _no_child_left()


def test_master_sweep_records_do_not_depend_on_threads():
    """Worker i takes q = 2+i, 2+i+n, ...: the counts add up and min C0 is
    a maximum, so any split gives the same records."""
    args = ("master-sweep", "--psi", "const:2/5", "--gamma", "const:golden",
            "--Q", "16", "--H", "10", "--C0", "3/2")
    outs = [run_cli(*args, "--threads", t) for t in ("1", "2", "3")]
    assert [rc for rc, _, _ in outs] == [0, 0, 0]
    assert outs[0][1] == outs[1][1] == outs[2][1]
    rows = {r[0]: r for r in cells(outs[0][1])}
    assert int(rows["master-case-II"][3]) > 0


def test_master_sweep_small():
    rc, out, _ = run_cli("master-sweep", "--psi", "overq:1/4",
                         "--gamma", "sqrt:2", "--Q", "40", "--H", "3",
                         "--C0", "100")
    assert rc == 0
    rows = {r[0]: r for r in cells(out)}
    assert rows["master-violations"][3] == "0"
    assert int(rows["master-pairs"][3]) == 39 * 40 // 2


def test_main_entry_direct(capsys):
    assert main(["omega", "--q", "4", "--c", "1"]) == 0
    out = capsys.readouterr().out
    assert "omega-main2" in out


def test_gl_census_cli():
    rc, out, _ = run_cli("gl-census", "--beta", "sqrt:2", "--omega", "1",
                         "--Q", "4", "--members")
    assert rc == 0
    rows = cells(out)
    assert any(r[0] == "gl-census-member" and r[3] == "4" for r in rows)


def test_gl_census_reports_its_undecided_q(capsys):
    """At a 4-bit cap 16 of the 20 q are undecided (1, 2, 3 and 5 lie
    outside the support): one record says so, and the run exits 2."""
    rc = main(["gl-census", "--beta", "sqrt:2", "--omega", "1/2", "--Q", "20",
               "--precision-bits", "4"])
    assert rc == 2
    assert cells(capsys.readouterr().out) == [
        ["gl-census-undecided", "beta=sqrt:2;gp=rat:0;omega=1/2", "20",
         "16", "1", "0", "1", "16"]]


def _subparser(ap, name):
    return next(a for a in ap._actions
                if isinstance(a, argparse._SubParsersAction)).choices[name]


@pytest.mark.parametrize("name", list(cli.COMMANDS))
def test_a_command_parser_built_alone_matches_the_full_one(name):
    """`main` builds only the parser of the command it runs: its help and
    the top-level usage read as in the parser of every command."""
    alone, full = cli.build_parser(name), cli.build_parser()
    assert alone.format_usage() == full.format_usage()
    assert _subparser(alone, name).format_help() == \
        _subparser(full, name).format_help()


def test_mc_survey_needs_beta():
    rc, _, err = run_cli("mc-survey", "--psi", "overq:1/4", "--gamma", "sqrt:3",
                         "--Q", "10", "--samples", "2")
    assert rc == 1
    assert "--beta" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("sigma-pair", "--gamma", "sqrt:2", "--beta", "sqrt:8", "--N", "3"),
    ("etk", "--alpha", "sqrt:2", "--beta", "sqrt:8", "--N", "10", "--H", "3"),
])
def test_mathematical_refusal_exit_code(argv, capsys):
    """2 sqrt2 - sqrt8 = 0 is no syntactic cancellation: it is found at the
    cap and reported with its witness."""
    assert main(list(argv)) == 3
    assert "(2, -1)" in capsys.readouterr().err


@pytest.mark.parametrize("beta, message", [
    ("sqrt:2", "rational dependence detected: witness (1, -1)"),
    ("sqrt:8", "distance cannot be separated from 0: witness (2, -1)")])
def test_sigma_pair_refusal_names_its_witness(beta, message, capsys):
    """sqrt2 against itself collapses syntactically at (1, -1), before any
    ladder; sqrt2 against sqrt8 is found by the ladder at (2, -1)."""
    assert main(["sigma-pair", "--gamma", "sqrt:2", "--beta", beta,
                 "--N", "5"]) == 3
    assert capsys.readouterr().err == f"refused: {message}\n"


def test_refusal_from_a_worker_keeps_its_witness():
    """2*0.5 - 1 cannot be separated from 0 at any precision.  The refusal
    comes from the sweep's build, before any fork, so it reads the same at
    any --threads; an error raised in a child is checked to come back
    unchanged by `test_a_worker_error_is_raised_unchanged`."""
    args = ("mc-survey", "--psi", "const:1/10", "--gamma", "sqrt:3",
            "--beta", "dec:0.5@1e-12", "--gamma-prime", "rat:1", "--Q", "4",
            "--samples", "4")
    results = [run_cli(*args, "--threads", t) for t in ("1", "2")]
    assert [rc for rc, _, _ in results] == [3, 3]
    assert results[0][2] == results[1][2]
    assert "witness (2,)" in results[0][2]


def test_table_gaps_mean_zero(capsys):
    values = []
    for psi in ("table:2=1/8,5=1/9", "table:2=1/8,3=0,4=0,5=1/9,6=0"):
        assert main(["bc-ratio", "--psi", psi, "--gamma", "rat:0", "--Q", "6"]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))[1:]
        values.append([row[:1] + row[2:] for row in rows])
    assert values[0] == values[1]


def _readme_commands():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```")[1]
    return [shlex.split(line)[1:]
            for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("mdl ")]


def test_readme_cli_block_runs(capsys):
    commands = _readme_commands()
    assert len(commands) == 7
    for argv in commands:
        assert main(argv) == 0, argv
    capsys.readouterr()


def test_config_supplies_a_required_flag(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("Q=5\n")
    assert main(["f-avg", "--config", str(cfg)]) == 0
    assert cells(capsys.readouterr().out)[0][2] == "5"


def test_flag_at_its_default_beats_the_config(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("H=4\n")
    assert main(["master-sweep", "--psi", "overq:1/4", "--gamma", "sqrt:2",
                 "--Q", "6", "--H", "3", "--config", str(cfg)]) == 0
    params = cells(capsys.readouterr().out)[0][1]
    assert "H=3" in params.split(";")


@pytest.mark.parametrize("argv,flag", [
    ("omega --q 4 --c 1", "--precision-bits 64"),
    ("divisors --q 4", "--precision-bits 64"),
    ("f-avg --Q 5", "--precision-bits 64"),
    ("pairs --psi overq:1/4 --gamma sqrt:2 --Q 4", "--precision-bits 64"),
    ("etk-auto --gamma sqrt:2 --beta sqrt:3 --N 20 --sigma 2",
     "--precision-bits 64"),
    ("cf --alpha sqrt:2", "--threads 2"),
    ("disc --alpha sqrt:2 --Q 50", "--threads 2"),
    ("bc-ratio --psi const:1/10 --gamma rat:0 --Q 3", "--threads 2"),
    ("doubly-metric --gamma sqrt:2 --H-prime 3 --N 5 --samples 4", "--threads 2"),
    ("disc --alpha sqrt:2 --Q 50", "--seed 3"),
    ("master-sweep --psi overq:1/4 --gamma sqrt:2 --Q 6", "--seed 3"),
    ("hits --x 1/3 --gamma sqrt:3 --psi overq:1/4 --beta sqrt:2 --Q 9", "--seed 3"),
    ("f-avg --Q 5", "--seed 3"),
])
def test_unused_common_flag_is_rejected(argv, flag, capsys):
    """A command takes only the common flags it honours."""
    assert main(shlex.split(argv)) == 0
    capsys.readouterr()
    assert main(shlex.split(f"{argv} {flag}")) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments" in captured.err and "Traceback" not in captured.err


def test_precision_cap_is_honoured():
    """8 bits cannot separate the orbit of sqrt 2 from the cell walls."""
    assert main(["disc", "--alpha", "sqrt:2", "--Q", "50"]) == 0
    assert main(["disc", "--alpha", "sqrt:2", "--Q", "50",
                 "--precision-bits", "8"]) == 3


def test_etk_auto_at_a_billion_points():
    """H near 5.5 10^6 is found by bisection, not one step at a time."""
    rc, out, _ = run_cli("etk-auto", "--gamma", "sqrt:2", "--beta", "sqrt:3",
                         "--N", "1000000000", "--sigma", "1/1000")
    assert rc == 0
    assert cells(out)[0][:4] == ["etk-auto-H", "sqrt:2;sqrt:3;sigma=1/1000",
                                 "1000000000", "5496833"]


def test_etk_sweep_through_the_writer(tmp_path, capsys):
    argv = ["etk", "--alpha", "sqrt:2", "--N", "20", "--sweep-H", "3"]
    out = tmp_path / "sweep.csv"
    assert main(argv + ["--output", str(out)]) == 0
    assert capsys.readouterr().out == ""
    rows = list(csv.reader(io.StringIO(out.read_text())))
    assert rows[0] == ["params", "Q", "H", "disc_lo", "disc_hi", "etk_lo",
                       "etk_hi", "ratio_hi"]
    assert [r[2] for r in rows[1:]] == ["1", "2", "3"]
    assert main(argv + ["--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert [list(d.values()) for d in data] == rows[1:]


@pytest.mark.parametrize("beta", [None, "sqrt:3"])
def test_etk_sweep_columns_are_the_library_brackets(beta, capsys):
    """disc_lo/disc_hi are N D* in 1D and disc2d_grid's bracket at m = 32 in
    2D, etk_lo/etk_hi the bound's enclosure, ratio_hi = disc_hi / etk_lo."""
    params = [parse_param("sqrt:2")] + ([parse_param(beta)] if beta else [])
    argv = ["etk", "--alpha", "sqrt:2", "--N", "50", "--sweep-H", "2"]
    assert main(argv + (["--beta", beta] if beta else [])) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))[1:]
    if beta:
        lo, hi = discrepancy.disc2d_grid(*params, 50, 32)
        assert rows[0][0] == "sqrt:2;sqrt:3;m=32"
    else:
        d = discrepancy.star_discrepancy_1d(params[0], 50) * 50
        lo, hi = d.lo, d.hi
        assert rows[0][0] == "sqrt:2"
    sweep = discrepancy.etk_bound_sweep(params, 50, 2)
    assert len(rows) == len(sweep) == 2
    for row, b in zip(rows, sweep):
        got = [F(c) for c in row[3:]]
        assert got == [lo, hi, b.bound.lo, b.bound.hi, hi / b.bound.lo]
        assert lo <= hi and b.bound.lo <= b.bound.hi


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_mc_survey_writes_denominators_past_4300_digits(fmt):
    rc, out, err = run_cli("mc-survey", "--psi", "overq:1/4", "--gamma", "sqrt:3",
                           "--beta", "sqrt:3", "--Q", "10000", "--samples", "1",
                           "--direct", "--format", fmt)
    assert rc == 0, err
    if fmt == "csv":
        dens = [row[4] for row in cells(out)]
    else:
        dens = [r["value_den"] for r in json.loads(out)]
    assert max(len(d) for d in dens) > 4300


@pytest.mark.parametrize("bits", ["-5", "0"])
def test_precision_bits_must_be_positive(bits, capsys):
    assert main(["disc", "--alpha", "sqrt:2", "--Q", "5",
                 "--precision-bits", bits]) == 1
    err = capsys.readouterr().err
    assert f"config error: argument --precision-bits: expected a positive integer, got '{bits}'" in err


def test_doubly_metric_without_samples_is_a_config_error(capsys):
    assert main(["doubly-metric", "--gamma", "sqrt:2", "--H-prime", "3",
                 "--N", "5", "--samples", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "config error: samples must be >= 1" in captured.err


def test_config_value_of_wrong_type_names_its_line(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    argv = ["pairs", "--psi", "overq:1/4", "--gamma", "sqrt:2", "--config", str(cfg)]
    cfg.write_text("# pair sum\nQ=abc\n")
    assert main(argv) == 1
    assert f"{cfg}:2: argument --Q: invalid int value: 'abc'" in capsys.readouterr().err
    cfg.write_text("Q=4\nformat=xml\n")
    assert main(argv) == 1
    assert f"{cfg}:2: argument --format: invalid choice: 'xml'" in capsys.readouterr().err


@pytest.mark.parametrize("argv,message", [
    ("bc-ratio --psi const:3/5 --gamma rat:0 --Q 4",
     "psi = const:3/5 never drops below 1/2"),
    ("bc-ratio --psi table:5=1/9 --gamma rat:0 --Q 3", "all psi values are zero"),
    ("mc-survey --psi overq:1/4 --gamma sqrt:3 --beta sqrt:2 --Q 0 --samples 3",
     "Q must be >= 1"),
    ("hits --psi overq:1/4 --gamma sqrt:3 --beta sqrt:2 --Q 0 --x 1/3",
     "Q must be >= 1"),
    ("omega --q 5..2 --c 1", "argument --q: empty range '5..2'"),
    ("master-sweep --psi overq:1/4 --gamma sqrt:2 --Q 6 --threads -3",
     "argument --threads: expected a positive integer, got '-3'"),
    ("master-sweep --psi overq:1/4 --gamma sqrt:2 --Q 6 --threads 0",
     "argument --threads: expected a positive integer, got '0'"),
    ("master-sweep --psi overq:1/4 --gamma sqrt:2 --Q 1", "Q must be >= 2"),
    ("master-sweep --psi log2sq:1/2 --gamma sqrt:2 --Q 6",
     "psi family log2sq is not rational: the two-case bound needs rational "
     "psi values"),
    ("union --psi overq:1/4 --gamma sqrt:2 --Q0 0 --Q 3", "need 1 <= Q0 <= Q"),
    ("f-moments --beta sqrt:2 --omega 1/2 --Q 50 --l -1 --K 1",
     "l must be >= 0: level -1 lies outside the support"),
    ("disc --alpha sqrt:2 --beta sqrt:3 --Q -5 --m 4", "Q must be >= 1"),
    ("disc --alpha sqrt:2 --beta sqrt:3 --Q 0 --m 4", "Q must be >= 1"),
    ("doubly-metric --gamma sqrt:2 --H-prime 3 --N 0 --samples 2",
     "N must be >= 1"),
    ("doubly-metric --gamma sqrt:2 --H-prime 3 --N -3 --samples 2",
     "N must be >= 1"),
    ("div-sum --psi overq:1/4 --beta sqrt:2 --omega 1/2 --Q 0",
     "Q must be >= 1"),
    ("div-sum --psi overq:1/4 --beta sqrt:2 --omega 1/2 --Q -4",
     "Q must be >= 1"),
])
def test_unusable_input_is_a_config_error(argv, message, capsys):
    assert main(shlex.split(argv)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"config error: {message}" in captured.err


@pytest.mark.parametrize("argv, flag", [
    ("gl-census --beta sqrt:2 --omega 1/0 --Q 10", "omega"),
    ("f-moments --beta sqrt:2 --omega 1/0 --Q 10 --l 1 --K 1", "omega"),
    ("psi-prime --psi overq:1/4 --beta sqrt:2 --omega main2@1/0 --q 3", "omega"),
    ("psi-prime --psi overq:1/4 --beta sqrt:2 --omega cubic@1 --q 3", "omega"),
    ("etk-auto --gamma sqrt:2 --beta sqrt:3 --N 10 --sigma 1/0", "sigma"),
    ("doubly-metric --gamma sqrt:2 --H-prime 1/0 --N 5 --samples 4", "H-prime"),
    ("omega --q 3 --c 1/0", "c"),
    ("hits --x 1/0 --gamma sqrt:3 --psi overq:1/4 --beta sqrt:2 --Q 9", "x"),
    ("box-count --params sqrt:2 --Q 5 --box 0,1/0", "box"),
    ("master-sweep --psi overq:1/4 --gamma sqrt:2 --Q 3 --C0 1/0", "C0"),
])
def test_a_bad_fraction_is_a_config_error(argv, flag, tmp_path, capsys):
    """Rational flags are checked when parsed, on the command line and in
    a config file alike; none of them reaches a traceback, and a zero
    denominator is named as such."""
    words = shlex.split(argv)
    i = words.index(f"--{flag}")
    value = words.pop(i + 1)
    words.pop(i)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"{flag}={value}\n")
    for args in (shlex.split(argv), words + ["--config", str(cfg)]):
        assert main(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "config error: " in captured.err
        assert f"argument --{flag}: " in captured.err
        if value.endswith("/0"):
            assert f"zero denominator in {value!r}" in captured.err
        assert "Traceback" not in captured.err


def test_disc_takes_a_decimal(capsys):
    """The 1D star discrepancy holds for every real in a decimal's radius,
    so `disc` prints its records."""
    assert main(shlex.split("disc --alpha dec:1.41421356237@1e-11 --Q 100")) == 0
    out = capsys.readouterr().out.splitlines()
    assert [row.split(",")[0] for row in out[1:]] == ["star-disc",
                                                      "star-disc-count-error"]


@pytest.mark.parametrize("argv", [
    "sigma --gamma dec:1.41421356237@1e-11 --N 50",
    "sigma-pair --gamma sqrt:2 --beta dec:1.7320508@1e-7 --N 5",
    "sigma-pair --gamma dec:1.4142@1e-6 --beta dec:1.4142@1e-6 --N 5",
])
def test_sigma_refuses_a_decimal(argv, capsys):
    """sigma certifies no exponent for a decimal, and its refusal names
    no Python keyword."""
    assert main(shlex.split(argv)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "config error: " in captured.err
    assert "allow_decimal" not in captured.err
    assert "=True" not in captured.err


def test_disc_on_a_rational_orbit(capsys):
    """{q/3} sits on the grid lines of m = 3 and is decided exactly."""
    assert main(shlex.split("disc --alpha rat:1/3 --beta sqrt:2 --Q 5 --m 3")) == 0
    assert capsys.readouterr().out.splitlines()[1:] == [
        "disc2d-lower,rat:1/3;sqrt:2;m=3,5,13,9,0,1,0",
        "disc2d-upper,rat:1/3;sqrt:2;m=3,5,73,9,0,1,0"]


def test_const_half_pairs_keeps_its_output(capsys):
    assert main(shlex.split("pairs --psi const:1/2 --gamma rat:0 --Q 3")) == 0
    assert capsys.readouterr().out.splitlines()[1] == \
        "pair-sum,psi=const:1/2;gamma=rat:0,3,3,1,0,1,0"


def test_doubly_metric_without_pairs_keeps_its_output(capsys):
    argv = "doubly-metric --gamma sqrt:2 --H-prime 3 --N 1 --samples 3"
    assert main(shlex.split(argv)) == 0
    assert capsys.readouterr().out.splitlines()[1:] == [
        "doubly-metric-fraction,gamma=sqrt:2;H'=3;N=1;seed=2026,3,0,1,0,1,0",
        "doubly-metric-union-bound,gamma=sqrt:2;H'=3;N=1;seed=2026,1,4,1,0,1,0"]


def test_cf_of_pi(capsys):
    assert main(shlex.split("cf --alpha const:pi --terms 30")) == 0
    rows = [r.split(",") for r in capsys.readouterr().out.splitlines()[1:]]
    quotients = [int(r[3]) for r in rows if r[0] == "cf-quotient"]
    assert quotients[:5] == [3, 7, 15, 1, 292] and len(quotients) == 31
