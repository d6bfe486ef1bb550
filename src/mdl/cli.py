"""Batch experiment runner: one subcommand per library operation, exact
rational output as CSV or JSON, reproducible under any thread count.

Every numeric cell is an exact numerator/denominator pair plus a half-width
error bar (zero for exact quantities); undecided memberships are never
resolved silently, they are counted in their own column and drive the exit
code (2 when more than 1% of the decisions in a run were undecidable at the
precision cap)."""

from __future__ import annotations

import argparse
import csv
import json
import os
import pickle
import signal
import sys
from collections import Counter, namedtuple
from fractions import Fraction

from . import arith, cfrac, circlesets, discrepancy, gallagher
from .gallagher import (
    CSV_HEADER,
    ExperimentRecord,
    PsiPrime,
    parse_psi,
)
from .realnum import (
    DEFAULT_PRECISION_CAP,
    CapExceeded,
    DependenceError,
    Enclosure,
    parse_param,
)


class ConfigError(Exception):
    pass


RunResult = namedtuple("RunResult", "records undecided decisions header",
                       defaults=(0, 1, CSV_HEADER))


class SweepRow(namedtuple("SweepRow",
                          "params Q H disc_lo disc_hi etk_lo etk_hi ratio_hi")):
    """One `etk --sweep-H` export row, each number an exact p/q: a certified
    discrepancy bracket, the ETK bound's enclosure, disc_hi / etk_lo."""

    def to_csv_row(self) -> list:
        return [str(v) for v in self]

    def to_json_obj(self) -> dict:
        return dict(zip(self._fields, self.to_csv_row()))


# ---------------------------------------------------------------------------
# The command line as data: FLAGS declares each flag once, with its grammar,
# default and help; COMMANDS maps each command to its runner, help and flags
# ---------------------------------------------------------------------------

def _grammar(parse):
    """An argparse type that reports `parse`'s own message on bad input."""
    def convert(text):
        try:
            return parse(text)
        except ZeroDivisionError:
            raise argparse.ArgumentTypeError(f"zero denominator in {text!r}")
        except (ValueError, KeyError) as e:
            raise argparse.ArgumentTypeError(str(e))
    return convert


def _checked(parse):
    """A `_grammar` type that checks the text with `parse` and keeps it as
    written, so that a record's params show the flag verbatim."""
    def check(text):
        parse(text)
        return text
    return _grammar(check)


def _parse_omega(text):
    if text == "none":
        return None
    if "@" in text:
        name, _, c = text.partition("@")
        if name not in ("main2", "lemma3"):
            raise ValueError(f"unknown omega schedule {name!r}")
        return (name, Fraction(c))
    return Fraction(text)


def _parse_range(text) -> list:
    """'7' or '2..40' (inclusive)."""
    if ".." in text:
        a, _, b = text.partition("..")
        if int(b) < int(a):
            raise ValueError(f"empty range {text!r}")
        return list(range(int(a), int(b) + 1))
    return [int(text)]


def _positive_int(text) -> int:
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return n


REQUIRED = {"required": True}
SWITCH = {"action": "store_true"}
REAL = _grammar(parse_param)
REALS = _grammar(lambda text: [parse_param(t) for t in text.split(",")])
RATIONAL = _grammar(Fraction)
RATIONALS = _grammar(lambda text: [Fraction(t) for t in text.split(",")])

FLAGS = {
    # the subject: radius schedule, real parameters and the fibre group
    "psi": {**REQUIRED, "type": _grammar(parse_psi), "help": "radius schedule"},
    "alpha": {**REQUIRED, "type": REAL, "help": "real parameter, e.g. sqrt:2"},
    "gamma": {**REQUIRED, "type": REAL, "help": "shift (real parameter)"},
    "beta": {**REQUIRED, "type": REAL, "help": "fibre parameter (real)"},
    "gamma-prime": {"type": REAL, "default": "rat:0", "help": "fibre shift (real)"},
    "omega": {"type": _checked(_parse_omega), "default": "none",
              "help": "a fraction, main2@c, lemma3@c or none"},
    "params": {**REQUIRED, "type": REALS, "help": "one or two reals, comma separated"},
    # heights and indices
    "Q": {**REQUIRED, "type": int, "help": "height bound"},
    "N": {**REQUIRED, "type": int, "help": "height bound"},
    "Q0": {"type": int, "default": 1, "help": "first q of the tail"},
    "q": {**REQUIRED, "type": _grammar(_parse_range), "help": "q or range a..b"},
    "k": {**REQUIRED, "type": int, "help": "dyadic band of q'"},
    "l": {**REQUIRED, "type": int, "help": "census cell"},
    "r": {**REQUIRED, "type": int, "help": "gcd(q', q)"},
    "K": {**REQUIRED, "type": int, "help": "moment exponent"},
    # command parameters
    "terms": {"type": int, "default": 10, "help": "partial quotients"},
    "c": {**REQUIRED, "type": RATIONAL, "help": "schedule constant"},
    "schedule": {"choices": ("main2", "lemma3"), "default": "main2"},
    "emit-set": {**SWITCH, "help": "write the arc endpoints to stderr"},
    "H": {"type": int, "default": 3, "help": "truncation"},
    "C0": {"type": RATIONAL, "default": "2", "help": "case II constant"},
    "box": {**REQUIRED, "type": RATIONALS, "help": "a,b per axis, comma separated"},
    "m": {"type": int, "default": 16, "help": "grid cells per axis"},
    "sweep-H": {"type": int, "default": 0, "help": "export the sweep up to this H"},
    "sigma": {**REQUIRED, "type": _checked(Fraction), "help": "exponent sigma_N"},
    "members": {**SWITCH, "help": "list each cell's members"},
    "x": {**REQUIRED, "type": RATIONAL, "help": "sample point"},
    "direct": {**SWITCH, "help": "decide every q without the fibre table"},
    "samples": {**REQUIRED, "type": int, "help": "number of samples"},
    "H-prime": {**REQUIRED, "type": _checked(Fraction), "help": "height H'"},
    # common flags
    "precision-bits": {"type": _positive_int, "default": DEFAULT_PRECISION_CAP,
                       "help": "precision cap in bits"},
    "threads": {"type": _positive_int, "default": 1,
                "help": "processes, this one included; mc-survey builds its "
                        "sweep once, before the fork; the output is the same "
                        "for any count"},
    "seed": {"type": int, "default": 2026, "help": "Monte-Carlo seed"},
    "format": {"choices": ("csv", "json"), "default": "csv"},
    "config": {"help": "file of key=value lines; command-line flags win"},
    "output": {"help": "write the records here instead of stdout"},
}

FIBRE = ("beta", "gamma-prime", "omega")
CAP, THREADS, SEED = "precision-bits", "threads", "seed"
IO = ("format", "config", "output")              # every command takes these
OPTIONAL = {"required": False, "default": None}
ONE_Q = {"type": int, "help": "q"}


Command = namedtuple("Command", "run help flags overrides")
COMMANDS = {}


def command(name: str, help: str, *flags, **overrides):
    """Declare the decorated runner as the subcommand `name`, taking `flags`
    (names in FLAGS, their keywords updated by `overrides`) and IO."""
    def register(run):
        COMMANDS[name] = Command(run, help, flags + IO, overrides)
        return run
    return register


class _Parser(argparse.ArgumentParser):
    """Argument errors are configuration errors: exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command, or of `command` alone: `main` builds
    only the command it runs, since building all of them costs more than
    parsing.  The command list in the usage line is the full one either
    way."""
    ap = _Parser(
        prog="mdl",
        description="Exact experiments on limsup arc systems, Kronecker "
                    "discrepancy, Diophantine exponents and divisor sums.")
    sub = ap.add_subparsers(dest="command", required=True,
                            metavar="{" + ",".join(COMMANDS) + "}")
    for name, cmd in COMMANDS.items():
        if command is not None and name != command:
            continue
        # no abbreviated flags: _with_config finds --config by its full name
        sp = sub.add_parser(name, help=cmd.help, allow_abbrev=False)
        for flag in cmd.flags:
            sp.add_argument(f"--{flag}",
                            **{**FLAGS[flag], **cmd.overrides.get(flag, {})})
    return ap


def _with_config(argv: list) -> list:
    """argv with the --config file's lines as `--key=value` flags right after
    the command name: command-line flags come later, so argparse keeps them."""
    path = None
    for i, arg in enumerate(argv):
        if arg == "--config" and i + 1 < len(argv):
            path = argv[i + 1]
        elif arg.startswith("--config="):
            path = arg.partition("=")[2]
    if path is None or argv[0] not in COMMANDS:
        return argv
    cmd = COMMANDS[argv[0]]
    flags = {f.replace("-", "_"): f for f in cmd.flags}
    from_file = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key, value = key.strip().replace("-", "_"), value.strip()
            if key not in flags:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            problem = _bad_value({**FLAGS[flags[key]],
                                  **cmd.overrides.get(flags[key], {})}, value)
            if problem:
                raise ConfigError(f"{path}:{lineno}: argument --{flags[key]}: {problem}")
            if FLAGS[flags[key]].get("action") != "store_true":
                from_file.append(f"--{flags[key]}={value}")
            elif value.lower() in ("1", "true", "yes"):
                from_file.append(f"--{flags[key]}")
    return argv[:1] + from_file + argv[1:]


def _bad_value(spec: dict, value: str):
    """argparse's complaint about `value` for the flag declared by `spec`,
    or None: a config-file value is checked where its line is known."""
    convert = spec.get("type", str)
    try:
        value = convert(value)
    except argparse.ArgumentTypeError as e:
        return str(e)
    except (TypeError, ValueError):
        return f"invalid {convert.__name__} value: {value!r}"
    choices = spec.get("choices", (value,))
    if value not in choices:
        return f"invalid choice: {value!r} (choose from {', '.join(map(repr, choices))})"
    return None


# ---------------------------------------------------------------------------
# Experiment implementations
# ---------------------------------------------------------------------------

def _rec(experiment: str, params: str, q_or_Q, value, undecided: int = 0):
    return ExperimentRecord(experiment, params, str(q_or_Q), Fraction(value),
                            undecided=undecided)


def _rec_enc(experiment, params, q_or_Q, e, undecided=0):
    return ExperimentRecord.of_enclosure(experiment, params, q_or_Q, e, undecided)


def _pp_from_args(args) -> PsiPrime:
    return PsiPrime(args.psi, args.beta, args.gamma_prime,
                    _parse_omega(args.omega))


def _psi_or_fibre(args):
    """bc-ratio's and union's subject, psi' or (no --beta) psi, and params."""
    gamma = args.gamma.canonical()
    if args.beta is None:
        return args.psi, f"psi={args.psi.canonical()};gamma={gamma}"
    pp = _pp_from_args(args)
    return pp, f"{pp.canonical()};gamma={gamma}"


@command("cf", "continued fraction expansion", "alpha", "terms", CAP)
def run_cf(args) -> RunResult:
    exp = cfrac.expand(args.alpha, args.terms, cap=args.precision_bits)
    ptxt = args.alpha.canonical()
    recs = []
    for i, ((p, q), a) in enumerate(zip(exp.convergents, exp.quotients)):
        recs.append(_rec("cf-quotient", ptxt, i, a))
        recs.append(_rec("cf-convergent", ptxt, i, Fraction(p, q)))
    return RunResult(recs)


@command("sigma", "height-truncated Diophantine exponent of one number",
         "gamma", "N", CAP)
def run_sigma(args) -> RunResult:
    entry = cfrac.sigma_single(args.gamma, args.N, cap=args.precision_bits)
    ptxt = args.gamma.canonical()
    recs = [_rec_enc("sigma", ptxt, args.N, entry.value),
            _rec("sigma-witness", ptxt, args.N, entry.witness[0])]
    return RunResult(recs)


@command("sigma-pair", "joint Diophantine exponent up to height N",
         "gamma", "beta", "N", CAP)
def run_sigma_pair(args) -> RunResult:
    entry = cfrac.sigma_pair(args.gamma, args.beta, args.N, cap=args.precision_bits)
    params = f"{args.gamma.canonical()};{args.beta.canonical()}"
    recs = [_rec_enc("sigma-pair", params, args.N, entry.value),
            _rec("sigma-pair-witness-k1", params, args.N, entry.witness[0]),
            _rec("sigma-pair-witness-k2", params, args.N, entry.witness[1])]
    return RunResult(recs)


@command("omega", "shrinking exponent schedule", "q", "c", "schedule")
def run_omega(args) -> RunResult:
    fn = cfrac.omega_schedule if args.schedule == "main2" \
        else cfrac.omega_schedule_lemma3
    recs = [_rec(f"omega-{args.schedule}", f"c={args.c}", q, fn(q, args.c))
            for q in args.q]
    return RunResult(recs)


@command("divisors", "divisor table and F weight", "q")
def run_divisors(args) -> RunResult:
    recs = []
    for q in args.q:
        t = arith.divisor_table(q)
        recs.append(_rec("divisor-count", "", q, t.d))
        recs.append(_rec_enc("divisor-F", "", q, t.F))
    return RunResult(recs)


@command("f-avg", "average of F up to Q", "Q")
def run_f_avg(args) -> RunResult:
    e = arith.F_average(args.Q)
    return RunResult([_rec_enc("f-average", "", args.Q, e)])


@command("aq", "one approximation arc system",
         "psi", "gamma", "q", "emit-set", CAP, q=ONE_Q)
def run_aq(args) -> RunResult:
    s = circlesets.build_Aq(args.psi.eval(args.q), args.gamma, args.q,
                            bits=min(64, args.precision_bits))
    params = f"psi={args.psi.canonical()};gamma={args.gamma.canonical()}"
    recs = [_rec_enc("aq-measure", params, args.q, s.measure_bounds())]
    if args.emit_set:
        sys.stderr.write(json.dumps(s.to_endpoint_pairs()) + "\n")
    return RunResult(recs)


@command("pairs", "sum of pairwise intersection measures", "psi", "gamma", "Q")
def run_pairs(args) -> RunResult:
    e = circlesets.pair_sum(args.psi.eval, args.gamma, args.Q)
    params = f"psi={args.psi.canonical()};gamma={args.gamma.canonical()}"
    return RunResult([_rec_enc("pair-sum", params, args.Q, e)])


def _master_chunk(chunk_args):
    """master_check outcome counts over the chunk's pairs, and the largest min C0."""
    psi, gamma, qs, H, C0, cap = chunk_args
    counts, min_C0 = Counter(), Fraction(1)
    for q in qs:
        for qp in range(1, q):
            rep = circlesets.master_check(psi.eval, gamma, q, qp, H=H, C0=C0, cap=cap)
            counts["pairs"] += 1
            if rep.verdict is None:
                counts["undecided"] += 1
                continue
            counts[rep.case] += 1
            counts["violations"] += rep.verdict is False
            if rep.case == "II":
                min_C0 = max(min_C0, rep.min_C0)
    return counts, min_C0


@command("master-sweep", "two-case intersection bound sweep",
         "psi", "gamma", "Q", "H", "C0", CAP, THREADS)
def run_master_sweep(args) -> RunResult:
    if args.Q < 2:
        raise ConfigError("Q must be >= 2")
    if not args.psi.is_rational:
        raise ConfigError(f"psi family {args.psi.tag} is not rational: the "
                          "two-case bound needs rational psi values "
                          "(const, overq or table)")
    # q = 2+i, 2+i+n, ...: row q holds q-1 pairs, so strided q values
    # balance the workers where contiguous ranges do not
    workers = min(args.threads, args.Q - 1)
    work = [(args.psi, args.gamma, range(2 + i, args.Q + 1, workers), args.H,
             args.C0, args.precision_bits) for i in range(workers)]
    parts = _pmap(_master_chunk, work)
    n = sum((counts for counts, _ in parts), Counter())
    params = (f"psi={args.psi.canonical()};gamma={args.gamma.canonical()};"
              f"H={args.H};C0={args.C0}")
    recs = [
        _rec("master-pairs", params, args.Q, n["pairs"], undecided=n["undecided"]),
        _rec("master-case-I", params, args.Q, n["I"]),
        _rec("master-case-II", params, args.Q, n["II"]),
        _rec("master-violations", params, args.Q, n["violations"]),
        _rec("master-min-C0", params, args.Q, max(m for _, m in parts)),
    ]
    return RunResult(recs, n["undecided"], max(n["pairs"], 1))


@command("box-count", "orbit points in a box", "params", "Q", "box", CAP)
def run_box_count(args) -> RunResult:
    params, sides = args.params, args.box
    if len(sides) != 2 * len(params):
        raise ConfigError("box needs two rationals (a,b) per axis")
    box = [(sides[2 * i], sides[2 * i + 1]) for i in range(len(params))]
    r = discrepancy.box_count(params, args.Q, box, cap=args.precision_bits)
    ptxt = ",".join(p.canonical() for p in params)
    recs = [_rec("box-count", ptxt, args.Q, r.count, undecided=r.undecided),
            _rec("box-error", ptxt, args.Q, r.error, undecided=r.undecided)]
    return RunResult(recs, r.undecided, args.Q)


@command("disc", "exact 1D star discrepancy / 2D grid bracket",
         "alpha", "beta", "Q", "m", CAP, beta=OPTIONAL)
def run_disc(args) -> RunResult:
    alpha, beta = args.alpha, args.beta
    if beta is not None:
        lo, up = discrepancy.disc2d_grid(alpha, beta, args.Q, args.m,
                                         cap=args.precision_bits)
        ptxt = f"{alpha.canonical()};{beta.canonical()};m={args.m}"
        recs = [_rec("disc2d-lower", ptxt, args.Q, lo),
                _rec("disc2d-upper", ptxt, args.Q, up)]
    else:
        d = discrepancy.star_discrepancy_1d(alpha, args.Q, cap=args.precision_bits)
        recs = [_rec_enc("star-disc", alpha.canonical(), args.Q, d),
                _rec_enc("star-disc-count-error", alpha.canonical(), args.Q,
                         d * args.Q)]
    return RunResult(recs)


@command("etk", "Erdos-Turan-Koksma bound",
         "alpha", "beta", "N", "H", "sweep-H", CAP, beta=OPTIONAL, H={"default": 1})
def run_etk(args) -> RunResult:
    params = [args.alpha] + ([args.beta] if args.beta is not None else [])
    ptxt = ";".join(p.canonical() for p in params)
    if args.sweep_H:
        return _etk_sweep(params, ptxt, args)
    b = discrepancy.etk_bound(params, args.N, args.H, cap=args.precision_bits)
    return RunResult([_rec_enc("etk-bound", f"{ptxt};H={args.H}", args.N,
                               b.bound)])


def _etk_sweep(params, ptxt, args) -> RunResult:
    """Sweep export for H = 1..sweep_H: the discrepancy bracket, N D* in 1D
    and `disc2d_grid`'s at m = 32 in 2D, against the ETK bound."""
    cap = args.precision_bits
    if len(params) == 1:
        d = discrepancy.star_discrepancy_1d(params[0], args.N, cap=cap) * args.N
        lo, hi = d.lo, d.hi
    else:
        lo, hi = discrepancy.disc2d_grid(params[0], params[1], args.N, 32, cap=cap)
        ptxt += ";m=32"
    rows = []
    for b in discrepancy.etk_bound_sweep(params, args.N, args.sweep_H, cap=cap):
        e = b.bound
        rows.append(SweepRow(ptxt, args.N, b.H, lo, hi, e.lo, e.hi, hi / e.lo))
    return RunResult(rows, header=SweepRow._fields)


@command("etk-auto", "ETK bound with the optimized truncation",
         "gamma", "beta", "N", "sigma")
def run_etk_auto(args) -> RunResult:
    # gamma and beta only label the record: the bound depends on N and sigma
    b = discrepancy.etk_autoH(args.N, Fraction(args.sigma))
    ptxt = f"{args.gamma.canonical()};{args.beta.canonical()};sigma={args.sigma}"
    recs = [_rec("etk-auto-H", ptxt, args.N, b.H),
            _rec_enc("etk-auto-bound", ptxt, args.N, b.bound)]
    if b.implied_constant is not None:
        recs.append(_rec_enc("etk-auto-implied-C", ptxt, args.N,
                             b.implied_constant))
    return RunResult(recs)


@command("psi-prime", "truncated quotient function values", "psi", *FIBRE, "q", CAP)
def run_psi_prime(args) -> RunResult:
    pp = _pp_from_args(args)
    ctx = gallagher.FibreContext(pp, cap=args.precision_bits)
    recs = []
    for q, state, lo, hi in ctx.psi_primes(args.q):
        v = Enclosure.dyadic(lo, hi, gallagher.PSI_PRIME_BITS)
        und = int(state == gallagher.SupportState.UNDECIDED)
        recs.append(_rec_enc("psi-prime", pp.canonical(), q, v, und))
    return RunResult(recs, sum(r.undecided for r in recs), len(args.q))


@command("div-sum", "divergence sum of psi' up to Q", "psi", *FIBRE, "Q", CAP)
def run_div_sum(args) -> RunResult:
    pp = _pp_from_args(args)
    r = gallagher.divergence_sum(pp, args.Q, cap=args.precision_bits)
    rec = _rec_enc("divergence-sum", pp.canonical(), args.Q, r.total,
                   r.undecided)
    return RunResult([rec], r.undecided, args.Q)


@command("gl-census", "dyadic distance-cell census",
         *FIBRE, "Q", "members", CAP, omega=REQUIRED)
def run_gl_census(args) -> RunResult:
    beta, gp = args.beta, args.gamma_prime
    omega = _parse_omega(args.omega)
    c = gallagher.gl_census(beta, gp, omega, args.Q, cap=args.precision_bits)
    ptxt = f"beta={beta.canonical()};gp={gp.canonical()};omega={args.omega}"
    recs = []
    for l in sorted(c.cells):
        recs.append(_rec("gl-census-size", ptxt, f"{args.Q}:l={l}",
                         len(c.cells[l])))
        if args.members:
            for q in c.cells[l]:
                recs.append(_rec("gl-census-member", ptxt, f"l={l}", q))
    undecided = len(c.undecided)
    if undecided:
        recs.append(_rec("gl-census-undecided", ptxt, args.Q, undecided,
                         undecided=undecided))
    return RunResult(recs, undecided, args.Q)


@command("sklr", "stratified indicator count",
         "psi", *FIBRE, "gamma", "q", "k", "l", "r", CAP, q=ONE_Q)
def run_sklr(args) -> RunResult:
    pp = _pp_from_args(args)
    r = gallagher.sklr_sum(pp, args.gamma, args.q, args.k, args.l, args.r,
                           cap=args.precision_bits)
    ptxt = (f"{pp.canonical()};gamma={args.gamma.canonical()};"
            f"k={args.k};l={args.l};r={args.r}")
    return RunResult([_rec("sklr-count", ptxt, args.q, r.count,
                           undecided=r.undecided)],
                     r.undecided, max(1, args.q))


@command("f-moments", "divisor-weight moment sum over a census cell",
         *FIBRE, "Q", "l", "K", CAP, omega=REQUIRED)
def run_f_moments(args) -> RunResult:
    beta, gp = args.beta, args.gamma_prime
    omega = Fraction(args.omega)
    s, ref = gallagher.f_moment_sum(beta, gp, omega, args.Q, args.l, args.K,
                                    cap=args.precision_bits)
    ptxt = (f"beta={beta.canonical()};gp={gp.canonical()};omega={omega};"
            f"l={args.l};K={args.K}")
    return RunResult([_rec_enc("f-moment-sum", ptxt, args.Q, s),
                      _rec_enc("f-moment-ref", ptxt, args.Q, ref)])


@command("bc-ratio", "second-moment ratio of the arc system family",
         "psi", "gamma", *FIBRE, "Q", CAP, beta=OPTIONAL)
def run_bc_ratio(args) -> RunResult:
    subject, ptxt = _psi_or_fibre(args)
    series = gallagher.bc_ratio(subject, args.gamma, args.Q, cap=args.precision_bits,
                                checkpoint_every=max(1, args.Q))
    recs = [_rec_enc("bc-ratio", ptxt, args.Q, series.ratio, series.undecided),
            _rec_enc("bc-mass", ptxt, args.Q, series.final_mass),
            _rec_enc("bc-pair-mass", ptxt, args.Q, series.final_pair_mass)]
    return RunResult(recs, series.undecided, args.Q)


@command("union", "tail union measure",
         "psi", "gamma", *FIBRE, "Q0", "Q", CAP, beta=OPTIONAL)
def run_union(args) -> RunResult:
    subject, ptxt = _psi_or_fibre(args)
    e = gallagher.union_series(subject, args.gamma, args.Q0, args.Q,
                               cap=args.precision_bits)
    return RunResult([_rec_enc("union-measure", ptxt,
                               f"{args.Q0}..{args.Q}", e)])


@command("hits", "multiplicative hit count for one sample",
         "x", "gamma", "psi", *FIBRE, "Q", "direct", CAP)
def run_hits(args) -> RunResult:
    pp = _pp_from_args(args)
    r = gallagher.hit_count(args.x, args.gamma, pp, args.Q, direct=args.direct,
                            cap=args.precision_bits)
    ptxt = f"{pp.canonical()};gamma={args.gamma.canonical()};x={args.x}"
    return RunResult([_rec("hit-count", ptxt, args.Q, r.count,
                           undecided=r.undecided)],
                     r.undecided, args.Q)


@command("mc-survey", "Monte-Carlo hit-count survey",
         "psi", "gamma", *FIBRE, "Q", "samples", "direct", CAP, THREADS, SEED)
def run_mc_survey(args) -> RunResult:
    if args.samples < 1:
        raise ConfigError("--samples must be >= 1")
    pp = _pp_from_args(args)
    # one sweep for every process: the children fork from it and only draw
    sweep = gallagher._HitSweep(args.gamma, pp, args.Q, args.direct,
                                cap=args.precision_bits)
    parts = _pmap(lambda idxs: sweep.tally(args.seed, idxs),
                  _chunked(range(args.samples), args.threads))
    mean = Fraction(sum(t for t, _ in parts), args.samples)
    undecided = sum(u for _, u in parts)
    expected = sweep.expected()
    ptxt = f"{pp.canonical()};gamma={args.gamma.canonical()};seed={args.seed}"
    recs = [_rec("mc-mean", ptxt, args.Q, mean, undecided=undecided),
            _rec_enc("mc-expected", ptxt, args.Q, expected),
            _rec("mc-deviation", ptxt, args.Q, mean - expected.mid)]
    return RunResult(recs, undecided, args.Q * args.samples)


@command("doubly-metric", "joint Diophantine failure sampling",
         "gamma", "H-prime", "N", "samples", CAP, SEED)
def run_doubly_metric(args) -> RunResult:
    gamma = args.gamma
    r = gallagher.doubly_metric_sample(gamma, Fraction(args.H_prime), args.N,
                                       args.samples, args.seed, cap=args.precision_bits)
    ptxt = f"gamma={gamma.canonical()};H'={args.H_prime};N={args.N};seed={args.seed}"
    recs = [_rec("doubly-metric-fraction", ptxt, args.samples, r.fraction),
            _rec_enc("doubly-metric-union-bound", ptxt, args.N, r.union_bound)]
    return RunResult(recs)


# ---------------------------------------------------------------------------
# Plumbing
# ---------------------------------------------------------------------------

def _chunked(items, n):
    n = max(1, n)
    size = max(1, (len(items) + n - 1) // n)
    return [items[i:i + size] for i in range(0, len(items), size)]


def _pmap(fn, work) -> list:
    """[fn(w) for w in work]: this process runs work[0] while one forked
    child runs each later item.  A child pickles back (ok, result or
    exception) through a pipe; the first failing item's exception is raised
    unchanged, as a serial run would raise it.  Every child is reaped, and
    one still running when this process raises is killed first."""
    children = []                       # (pid, read end of its pipe)
    try:
        for w in work[1:]:
            r, wr = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(r)
                _child(fn, w, wr)
            os.close(wr)
            children.append((pid, os.fdopen(r, "rb")))
        results = [fn(work[0])]
        while children:
            pid, pipe = children[0]
            with pipe:
                data = pipe.read()
            _, status = os.waitpid(pid, 0)
            children.pop(0)
            if not data:
                raise RuntimeError(
                    f"a worker process ended without a result (exit status "
                    f"{os.waitstatus_to_exitcode(status)})")
            ok, value = pickle.loads(data)
            if not ok:
                raise value
            results.append(value)
        return results
    finally:
        for pid, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _child(fn, w, fd) -> None:
    """A forked child's whole life: send (ok, fn(w) or its exception) down
    `fd` and leave without running this process's exit handlers."""
    try:
        try:
            payload = (True, fn(w))
        except BaseException as e:
            payload = (False, e)
        data = pickle.dumps(payload)
        with os.fdopen(fd, "wb") as out:
            out.write(data)
    finally:
        os._exit(0)


def write_records(result: RunResult, fmt: str, out) -> None:
    if fmt == "csv":
        w = csv.writer(out)
        w.writerow(result.header)
        w.writerows(r.to_csv_row() for r in result.records)
    else:
        json.dump([r.to_json_obj() for r in result.records], out, indent=1)
        out.write("\n")


def main(argv=None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):
        # exact denominators can pass the 4300-digit int->str limit
        sys.set_int_max_str_digits(0)
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        argv = _with_config(argv)
        command = argv[0] if argv and argv[0] in COMMANDS else None
        args = build_parser(command).parse_args(argv)
        result = COMMANDS[args.command].run(args)
        if args.output:
            with open(args.output, "w") as fh:
                write_records(result, args.format, fh)
        else:
            write_records(result, args.format, sys.stdout)
    except (ConfigError, ValueError, KeyError, OSError) as e:
        sys.stderr.write(f"config error: {e}\n")
        return 1
    except (DependenceError, CapExceeded) as e:
        sys.stderr.write(f"refused: {e}\n")
        return 3
    if result.decisions > 0 and result.undecided * 100 > result.decisions:
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
