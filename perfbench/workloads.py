"""The four benchmark workloads, as scaled-down replays of mdl's slow
acceptance experiments and of the README's CLI commands.

Each workload is a list of three timed *experiments*.  An experiment is a
list of *operations*; an operation is one call into the library (or one
CLI command in a forked process) and returns its result as records
``(experiment, params, q_or_Q, value, err, undecided)`` in the shape of the
CLI's CSV rows, with ``value`` and ``err`` as exact Fractions.  The
workload's slots ``exp1_s``, ``exp2_s`` and ``exp3_s`` are the times of its
three experiments; ``EXPERIMENT_NAMES`` maps them to the experiment names
used in the notes.

Only the Monte-Carlo draws depend on the seed; every other input is fixed,
so run-to-run spread comes from the host, not from the inputs.
"""

from __future__ import annotations

import csv
import io
import os
import signal
import subprocess
import sys
import traceback
from fractions import Fraction as F

DEFAULT_SEED = 2026          # mdl's own default --seed

# Sizes: each library operation takes 0.2-0.5 s on a 2-core x86 host with
# Python 3.11 (a CLI command 0.02-0.5 s).  Short operations give many
# samples per run, and a high quantile of many samples is steadier on a
# host whose speed drifts by tens of percent.
BC_OUTWARD_Q = 200           # bc_ratio(overq:1/4, sqrt3): outward mode
BC_EXACT_Q = 180             # bc_ratio(overq:1/4, 1/3): exact mode
MASTER_Q = 60                # master_check on every pair q' < q <= MASTER_Q
ETK2D_N, ETK2D_H = 1000, 100
DISC2D_N, DISC2D_M = 1000, 64
STAR1D_Q = 10 ** 5
ETK1D_NS, ETK1D_H = (10000,), 1000
SIGMA_PAIR_N, SIGMA_SINGLE_N = 120, 1000
MC_FIBRED_Q, MC_FIBRED_SAMPLES = 1500, 100
MC_DIRECT_Q, MC_DIRECT_SAMPLES = 8000, 1000
CENSUS_Q = 2500
CLI_MC_Q, CLI_MC_SAMPLES = 700, 50
CLI_MASTER_Q = 40

EXPERIMENT_NAMES = {
    "pairs": ("bc_outward", "bc_exact", "master"),
    "shells": ("etk_2d", "sigma", "etk_1d"),
    "survey": ("mc_fibred", "mc_direct", "census"),
    "cli": ("cli_readme", "cli_pool_mc", "cli_pool_master"),
}
WORKLOADS = tuple(EXPERIMENT_NAMES)

# Records whose value depends on the Monte-Carlo seed.  All other records
# are checked against the reference whatever the seed.
SEED_DEPENDENT = frozenset({"mc-mean", "mc-deviation", "doubly-metric-fraction"})

# The seven README examples plus f-avg; tail commands (README table psi,
# sigma-pair with beta sqrt:8) fail at this version and are left out.
README_COMMANDS = (
    ("bc-ratio", "--psi", "const:1/10", "--gamma", "rat:0", "--Q", "3"),
    ("sigma-pair", "--gamma", "sqrt:2", "--beta", "sqrt:3", "--N", "2"),
    ("etk", "--alpha", "const:golden", "--N", "10", "--H", "1"),
    ("disc", "--alpha", "sqrt:2", "--Q", "100000"),
    ("mc-survey", "--psi", "overq:1/4", "--gamma", "sqrt:3", "--beta",
     "sqrt:2", "--Q", "1000", "--samples", "50", "--direct", "--seed", "{seed}"),
    ("gl-census", "--beta", "sqrt:2", "--omega", "1", "--Q", "100", "--members"),
    ("doubly-metric", "--gamma", "sqrt:2", "--H-prime", "3", "--N", "50",
     "--samples", "1000", "--seed", "{seed}"),
    ("f-avg", "--Q", "1000000"),
)
POOL_MC = ("mc-survey", "--psi", "log2sq:1/2", "--gamma", "sqrt:3", "--beta",
           "sqrt:3", "--omega", "1/4", "--Q", str(CLI_MC_Q), "--samples",
           str(CLI_MC_SAMPLES), "--seed", "{seed}")
POOL_MASTER = ("master-sweep", "--psi", "overq:1/4", "--gamma", "sqrt:2",
               "--H", "3", "--C0", "100", "--Q", str(CLI_MASTER_Q))


class Operation:
    """One library call or CLI command; ``run()`` returns its records."""

    def __init__(self, name: str, fn):
        self.name = name
        self.fn = fn

    def run(self) -> list:
        return self.fn()


def rec(experiment, params, q_or_Q, value, err=F(0), undecided=0):
    return (experiment, params, str(q_or_Q), F(value), F(err), int(undecided))


def rec_enc(experiment, params, q_or_Q, e, undecided=0):
    return rec(experiment, params, q_or_Q, e.mid, e.width / 2, undecided)


# ---------------------------------------------------------------------------
# pairs: O(Q^2) pair loops
# ---------------------------------------------------------------------------

def _pairs(seed):
    from mdl import circlesets, gallagher
    from mdl.gallagher import ApproxFunction
    from mdl.realnum import RealParam

    psi = ApproxFunction.over_q(F(1, 4))
    sqrt2, sqrt3 = RealParam.sqrt(2), RealParam.sqrt(3)
    third = RealParam.rational(F(1, 3))

    def bc(gamma, Q):
        def op():
            s = gallagher.bc_ratio(psi, gamma, Q, checkpoint_every=Q)
            p = f"psi={psi.canonical()};gamma={gamma.canonical()}"
            return [rec_enc("bc-ratio", p, Q, s.ratio, s.undecided),
                    rec_enc("bc-mass", p, Q, s.final_mass),
                    rec_enc("bc-pair-mass", p, Q, s.final_pair_mass)]
        return op

    def master():
        pf = lambda q: psi.eval(q)
        total = case1 = case2 = viol = undecided = 0
        min_c0 = F(1)
        for q in range(2, MASTER_Q + 1):
            for qp in range(1, q):
                r = circlesets.master_check(pf, sqrt2, q, qp, H=3, C0=100)
                total += 1
                if r.verdict is None:
                    undecided += 1
                    continue
                if r.case == "I":
                    case1 += 1
                else:
                    case2 += 1
                    min_c0 = max(min_c0, r.min_C0)
                viol += r.verdict is False
        p = f"psi={psi.canonical()};gamma={sqrt2.canonical()};H=3;C0=100"
        return [rec("master-pairs", p, MASTER_Q, total, undecided=undecided),
                rec("master-case-I", p, MASTER_Q, case1),
                rec("master-case-II", p, MASTER_Q, case2),
                rec("master-violations", p, MASTER_Q, viol),
                rec("master-min-C0", p, MASTER_Q, min_c0)]

    return [[Operation("bc_outward", bc(sqrt3, BC_OUTWARD_Q))],
            [Operation("bc_exact", bc(third, BC_EXACT_Q))],
            [Operation("master", master)]]


# ---------------------------------------------------------------------------
# shells: O(H^2) / O(N^2) frequency shells
# ---------------------------------------------------------------------------

def _sweep_records(name, ptxt, bounds):
    """Bounds at H = 1, 2, 4, ... and at the last H of a sweep."""
    hs = sorted({1 << i for i in range(len(bounds).bit_length())
                 if 1 << i <= len(bounds)} | {len(bounds)})
    return [rec_enc(name, f"{ptxt};H={h}", bounds[h - 1].N, bounds[h - 1].bound)
            for h in hs]


def _shells(seed):
    from mdl import cfrac, discrepancy
    from mdl.realnum import RealParam

    sqrt2, sqrt3 = RealParam.sqrt(2), RealParam.sqrt(3)
    golden = RealParam.const("golden")

    def etk_2d():
        sweep = discrepancy.etk_bound_sweep([sqrt2, sqrt3], ETK2D_N, ETK2D_H)
        return _sweep_records("etk-bound", "sqrt:2;sqrt:3", sweep)

    def disc_2d():
        lo, up = discrepancy.disc2d_grid(sqrt2, sqrt3, DISC2D_N, DISC2D_M)
        p = f"sqrt:2;sqrt:3;m={DISC2D_M}"
        return [rec("disc2d-lower", p, DISC2D_N, lo),
                rec("disc2d-upper", p, DISC2D_N, up)]

    def sigma_pair():
        e = cfrac.sigma_pair(sqrt2, sqrt3, SIGMA_PAIR_N)
        p = "sqrt:2;sqrt:3"
        return [rec_enc("sigma-pair", p, SIGMA_PAIR_N, e.value),
                rec("sigma-pair-witness-k1", p, SIGMA_PAIR_N, e.witness[0]),
                rec("sigma-pair-witness-k2", p, SIGMA_PAIR_N, e.witness[1])]

    def sigma_single():
        e = cfrac.sigma_single(sqrt2, SIGMA_SINGLE_N)
        return [rec_enc("sigma", "sqrt:2", SIGMA_SINGLE_N, e.value),
                rec("sigma-witness", "sqrt:2", SIGMA_SINGLE_N, e.witness[0])]

    def star_1d():
        d = discrepancy.star_discrepancy_1d(golden, STAR1D_Q)
        return [rec_enc("star-disc", golden.canonical(), STAR1D_Q, d)]

    def etk_1d():
        out = []
        for alpha in (sqrt2, golden):
            for n in ETK1D_NS:
                d = discrepancy.star_discrepancy_1d(alpha, n)
                out.append(rec_enc("star-disc", alpha.canonical(), n, d))
                sweep = discrepancy.etk_bound_sweep([alpha], n, ETK1D_H)
                out += _sweep_records("etk-bound", alpha.canonical(), sweep)
        return out

    return [[Operation("etk_2d", etk_2d), Operation("disc2d", disc_2d)],
            [Operation("sigma_pair", sigma_pair),
             Operation("sigma_single", sigma_single)],
            [Operation("star_1d", star_1d), Operation("etk_1d", etk_1d)]]


# ---------------------------------------------------------------------------
# survey: per-q fibre evaluation and the _HitSweep lane
# ---------------------------------------------------------------------------

def _survey(seed):
    from mdl import gallagher
    from mdl.gallagher import ApproxFunction, PsiPrime
    from mdl.realnum import RealParam

    sqrt3 = RealParam.sqrt(3)
    zero = RealParam.rational(0)
    pp_fibred = PsiPrime(ApproxFunction.log2sq_shape(F(1, 2)), sqrt3, zero,
                         F(1, 4))
    pp_direct = PsiPrime(ApproxFunction.over_q(F(1, 4)), sqrt3, zero, None)

    def mc(pp, Q, samples, direct):
        def op():
            s = gallagher.mc_survey(sqrt3, pp, Q, samples, seed, direct=direct)
            p = f"{pp.canonical()};gamma={sqrt3.canonical()};seed={seed}"
            return [rec("mc-mean", p, Q, s.mean, undecided=s.undecided),
                    rec_enc("mc-expected", p, Q, s.expected),
                    rec("mc-deviation", p, Q, s.deviation)]
        return op

    def census():
        c = gallagher.gl_census(sqrt3, F(1, 3), F(1, 2), CENSUS_Q)
        p = "beta=sqrt:3;gp=1/3;omega=1/2"
        return ([rec("gl-census-size", p, f"{CENSUS_Q}:l={l}", len(c.cells[l]))
                 for l in sorted(c.cells)]
                + [rec("gl-census-undecided", p, CENSUS_Q, len(c.undecided),
                       undecided=len(c.undecided))])

    return [[Operation("mc_fibred",
                       mc(pp_fibred, MC_FIBRED_Q, MC_FIBRED_SAMPLES, False))],
            [Operation("mc_direct",
                       mc(pp_direct, MC_DIRECT_Q, MC_DIRECT_SAMPLES, True))],
            [Operation("census", census)]]


# ---------------------------------------------------------------------------
# cli: argparse, record writing and the process pool, one process a command
# ---------------------------------------------------------------------------

def run_process(argv, timeout=60.0):
    """Run argv with mdl from ``src/`` on the path, in its own session; on
    timeout kill the whole group and wait for it.  Returns (rc, stdout,
    stderr)."""
    env = dict(os.environ, PYTHONPATH=os.path.join(os.getcwd(), "src"))
    p = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         env=env, start_new_session=True)
    try:
        out, err = p.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        try:
            os.killpg(p.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        out, err = p.communicate()
        return -signal.SIGKILL, out, err + b"\ntimeout"
    return p.returncode, out, err


def parse_csv(text: bytes) -> list:
    rows = list(csv.reader(io.StringIO(text.decode())))
    return [rec(e, p, q, F(int(vn), int(vd)), F(int(en), int(ed)), int(u))
            for e, p, q, vn, vd, en, ed, u in rows[1:]]


CLI_TIMEOUT = 60             # seconds before a command is killed
CLI_IO_DIR = os.path.join(".perfbench_out", "cli-io")


class CliCommand(Operation):
    """One mdl command in a process of its own, forked from the benchmark
    process after it has imported ``mdl.cli`` and before it has called into
    the library, so the command starts with mdl's module state as fresh as
    a new interpreter's.  Interpreter start and import are timed apart, as
    ``setup_s``.  With ``trace_file`` set, the command runs under the span
    tracer and its spans go to that file."""

    trace_file = None

    def __init__(self, name, argv):
        super().__init__(name, None)
        self.argv = list(argv)
        self.stdout = b""

    def run(self) -> list:
        rc, out, err = fork_cli(self.argv, self.name, self.trace_file)
        self.stdout = out
        if rc != 0:
            raise RuntimeError(f"exit {rc}: {err.decode(errors='replace')[-400:]}")
        return parse_csv(out)


def fork_cli(argv, tag, trace_file=None):
    """Run ``mdl.cli.main(argv)`` in a forked child with stdout and stderr
    sent to files; return (exit code, stdout, stderr).  The child leads its
    own session, so its pool workers are killed with it."""
    from mdl import cli
    os.makedirs(CLI_IO_DIR, exist_ok=True)
    paths = [os.path.join(CLI_IO_DIR, f"{tag}.{s}") for s in ("out", "err")]
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:
        rc = 1
        try:
            os.setsid()
            signal.alarm(CLI_TIMEOUT)
            for fd, path in zip((1, 2), paths):
                os.dup2(os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC), fd)
            tracer = None
            if trace_file:
                import tracing
                tracer = tracing.Tracer().install()
            rc = cli.main(argv)
            if tracer:
                tracer.uninstall()
                tracer.save(trace_file)
        except SystemExit as e:
            rc = e.code if isinstance(e.code, int) else 1
        except BaseException:
            traceback.print_exc()
        finally:
            try:
                sys.stdout.flush()
                sys.stderr.flush()
            finally:
                os._exit(rc)
    _, status = os.waitpid(pid, 0)
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    out, err = (_read(path) for path in paths)
    return os.waitstatus_to_exitcode(status), out, err


def _read(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def cli_commands(seed):
    import mdl.cli  # noqa: F401  (imported once, before any command is timed)
    fill = lambda argv: tuple(a.format(seed=seed) for a in argv)
    readme = [CliCommand(f"readme_{i}_{a[0]}", fill(a))
              for i, a in enumerate(README_COMMANDS)]
    pool_mc = [CliCommand(f"pool_mc_t{t}", fill(POOL_MC) + ("--threads", str(t)))
               for t in (1, 2)]
    pool_master = [CliCommand(f"pool_master_t{t}",
                              POOL_MASTER + ("--threads", str(t)))
                   for t in (1, 2)]
    return [readme, pool_mc, pool_master]


_MAKE = {"pairs": _pairs, "shells": _shells, "survey": _survey,
         "cli": cli_commands}


def build(workload: str, seed: int) -> list:
    """The workload's three experiments, each a list of operations, with
    every parameter object built."""
    return _MAKE[workload](seed)
