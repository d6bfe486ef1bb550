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
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
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


@dataclass
class RunResult:
    records: list
    undecided: int = 0
    decisions: int = 1


# ---------------------------------------------------------------------------
# Config file: flat key=value lines, '#' comments; flags override the file
# ---------------------------------------------------------------------------

def load_config(path: str, known_keys) -> dict:
    out = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip().replace("-", "_")
            if key not in known_keys:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            out[key] = value.strip()
    return out


def _rec(experiment: str, params: str, q_or_Q, value, err=Fraction(0),
         undecided: int = 0) -> ExperimentRecord:
    return ExperimentRecord(experiment, params, str(q_or_Q),
                            Fraction(value), Fraction(err), undecided)


def _rec_enc(experiment, params, q_or_Q, e: Enclosure, undecided=0):
    return ExperimentRecord.of_enclosure(experiment, params, q_or_Q, e, undecided)


def _pp_from_args(args) -> PsiPrime:
    psi = parse_psi(args.psi)
    beta = parse_param(args.beta)
    gp = parse_param(getattr(args, "gamma_prime", None) or "rat:0")
    omega = _parse_omega(getattr(args, "omega", None))
    return PsiPrime(psi, beta, gp, omega)


def _parse_omega(text):
    if text is None or text == "none":
        return None
    if "@" in text:
        name, _, c = text.partition("@")
        if name not in ("main2", "lemma3"):
            raise ConfigError(f"unknown omega schedule {name!r}")
        return (name, Fraction(c))
    return Fraction(text)


# ---------------------------------------------------------------------------
# Experiment implementations
# ---------------------------------------------------------------------------

def run_cf(args) -> RunResult:
    alpha = parse_param(args.alpha)
    exp = cfrac.expand(alpha, args.terms)
    recs = []
    for i, ((p, q), a) in enumerate(zip(exp.convergents, exp.quotients)):
        recs.append(_rec("cf-quotient", alpha.canonical(), i, a))
        recs.append(_rec("cf-convergent", alpha.canonical(), i, Fraction(p, q)))
    return RunResult(recs)


def run_sigma(args) -> RunResult:
    gamma = parse_param(args.gamma)
    entry = cfrac.sigma_single(gamma, args.N)
    recs = [_rec_enc("sigma", gamma.canonical(), args.N, entry.value),
            _rec("sigma-witness", gamma.canonical(), args.N, entry.witness[0])]
    return RunResult(recs)


def run_sigma_pair(args) -> RunResult:
    gamma = parse_param(args.gamma)
    beta = parse_param(args.beta)
    entry = cfrac.sigma_pair(gamma, beta, args.N)
    params = f"{gamma.canonical()};{beta.canonical()}"
    recs = [_rec_enc("sigma-pair", params, args.N, entry.value),
            _rec("sigma-pair-witness-k1", params, args.N, entry.witness[0]),
            _rec("sigma-pair-witness-k2", params, args.N, entry.witness[1])]
    return RunResult(recs)


def run_omega(args) -> RunResult:
    c = Fraction(args.c)
    fn = cfrac.omega_schedule if args.schedule == "main2" \
        else cfrac.omega_schedule_lemma3
    recs = [_rec(f"omega-{args.schedule}", f"c={c}", q, fn(q, c))
            for q in _parse_range(args.q)]
    return RunResult(recs)


def run_divisors(args) -> RunResult:
    recs = []
    for q in _parse_range(args.q):
        t = arith.divisor_table(q)
        recs.append(_rec("divisor-count", "", q, t.d))
        recs.append(_rec_enc("divisor-F", "", q, t.F))
    return RunResult(recs)


def run_f_avg(args) -> RunResult:
    e = arith.F_average(args.Q)
    return RunResult([_rec_enc("f-average", "", args.Q, e)])


def run_aq(args) -> RunResult:
    psi = parse_psi(args.psi)
    gamma = parse_param(args.gamma)
    s = circlesets.build_Aq(psi.eval(args.q), gamma, args.q,
                            bits=args.precision_bits_or(64))
    recs = [_rec_enc("aq-measure",
                     f"psi={psi.canonical()};gamma={gamma.canonical()}",
                     args.q, s.measure_bounds())]
    if args.emit_set:
        sys.stderr.write(json.dumps(s.to_endpoint_pairs()) + "\n")
    return RunResult(recs)


def run_pairs(args) -> RunResult:
    psi = parse_psi(args.psi)
    gamma = parse_param(args.gamma)
    e = circlesets.pair_sum(lambda q: psi.eval(q), gamma, args.Q)
    params = f"psi={psi.canonical()};gamma={gamma.canonical()}"
    return RunResult([_rec_enc("pair-sum", params, args.Q, e)])


def _master_chunk(chunk_args):
    psi_text, gamma_text, qs, H, C0 = chunk_args
    psi = parse_psi(psi_text)
    gamma = parse_param(gamma_text)
    pf = lambda q: psi.eval(q)
    out = []
    for q in qs:
        for qp in range(1, q):
            rep = circlesets.master_check(pf, gamma, q, qp, H=H, C0=C0)
            out.append((q, qp, rep.case, rep.verdict, rep.min_C0,
                        rep.indicator is None and rep.case == "I"))
    return out


def run_master_sweep(args) -> RunResult:
    psi = parse_psi(args.psi)
    gamma = parse_param(args.gamma)
    C0 = Fraction(args.C0)
    qs = list(range(2, args.Q + 1))
    chunks = _chunked(qs, args.threads)
    work = [(args.psi, args.gamma, ch, args.H, str(C0)) for ch in chunks]
    results = _pmap(_master_chunk, work, args.threads)
    case1 = case2 = violations = undecided = total = 0
    min_C0 = Fraction(1)
    for block in results:
        for q, qp, case, verdict, mc0, und in block:
            total += 1
            if und or verdict is None:
                undecided += 1
                continue
            if case == "I":
                case1 += 1
            else:
                case2 += 1
                if mc0 is not None and mc0 > min_C0:
                    min_C0 = mc0
            if verdict is False:
                violations += 1
    params = (f"psi={psi.canonical()};gamma={gamma.canonical()};"
              f"H={args.H};C0={C0}")
    recs = [
        _rec("master-pairs", params, args.Q, total, undecided=undecided),
        _rec("master-case-I", params, args.Q, case1),
        _rec("master-case-II", params, args.Q, case2),
        _rec("master-violations", params, args.Q, violations),
        _rec("master-min-C0", params, args.Q, min_C0),
    ]
    return RunResult(recs, undecided, max(total, 1))


def run_box_count(args) -> RunResult:
    params = [parse_param(t) for t in args.params.split(",")]
    sides = [Fraction(t) for t in args.box.split(",")]
    if len(sides) != 2 * len(params):
        raise ConfigError("box needs two rationals (a,b) per axis")
    box = [(sides[2 * i], sides[2 * i + 1]) for i in range(len(params))]
    r = discrepancy.box_count(params, args.Q, box)
    ptxt = ",".join(p.canonical() for p in params)
    recs = [_rec("box-count", ptxt, args.Q, r.count, undecided=r.undecided),
            _rec("box-error", ptxt, args.Q, r.error, undecided=r.undecided)]
    return RunResult(recs, r.undecided, args.Q)


def run_disc(args) -> RunResult:
    alpha = parse_param(args.alpha)
    if args.beta:
        beta = parse_param(args.beta)
        lo, up = discrepancy.disc2d_grid(alpha, beta, args.Q, args.m)
        ptxt = f"{alpha.canonical()};{beta.canonical()};m={args.m}"
        recs = [_rec("disc2d-lower", ptxt, args.Q, lo),
                _rec("disc2d-upper", ptxt, args.Q, up)]
    else:
        d = discrepancy.star_discrepancy_1d(alpha, args.Q)
        recs = [_rec_enc("star-disc", alpha.canonical(), args.Q, d),
                _rec_enc("star-disc-count-error", alpha.canonical(), args.Q,
                         d * args.Q)]
    return RunResult(recs)


def run_etk(args) -> RunResult:
    params = [parse_param(args.alpha)]
    if args.beta:
        params.append(parse_param(args.beta))
    ptxt = ";".join(p.canonical() for p in params)
    if args.sweep_H:
        _write_etk_sweep_csv(params, ptxt, args)
        return RunResult([])
    b = discrepancy.etk_bound(params, args.N, args.H)
    return RunResult([_rec_enc("etk-bound", f"{ptxt};H={args.H}", args.N,
                               b.bound)])


def _write_etk_sweep_csv(params, ptxt, args):
    """Sweep export: params, Q, H, exact_disc, etk_bound, ratio with every
    numeric cell an exact p/q literal."""
    if len(params) == 1:
        exact = discrepancy.star_discrepancy_1d(params[0], args.N) * args.N
    else:
        lo, _ = discrepancy.disc2d_grid(params[0], params[1], args.N, 32)
        exact = Enclosure(lo, lo)
    sweep = discrepancy.etk_bound_sweep(params, args.N, args.sweep_H)
    out = open(args.output, "w") if args.output else sys.stdout
    w = csv.writer(out)
    w.writerow(("params", "Q", "H", "exact_disc", "etk_bound", "ratio"))
    for b in sweep:
        ratio = exact.mid / b.bound.mid if b.bound.mid else Fraction(0)
        w.writerow((ptxt, args.N, b.H, str(exact.mid), str(b.bound.mid),
                    str(ratio)))
    if args.output:
        out.close()


def run_etk_auto(args) -> RunResult:
    gamma = parse_param(args.gamma)
    beta = parse_param(args.beta)
    b = discrepancy.etk_autoH(gamma, beta, args.N, Fraction(args.sigma))
    ptxt = f"{gamma.canonical()};{beta.canonical()};sigma={args.sigma}"
    recs = [_rec("etk-auto-H", ptxt, args.N, b.H),
            _rec_enc("etk-auto-bound", ptxt, args.N, b.bound)]
    if b.implied_constant is not None:
        recs.append(_rec_enc("etk-auto-implied-C", ptxt, args.N,
                             b.implied_constant))
    return RunResult(recs)


def run_psi_prime(args) -> RunResult:
    pp = _pp_from_args(args)
    ctx = gallagher.FibreContext(pp, cap=args.precision_bits)
    recs = []
    undecided = 0
    qs = _parse_range(args.q)
    for q in qs:
        v, state = ctx.psi_prime(q)
        und = 1 if state == gallagher.SupportState.UNDECIDED else 0
        undecided += und
        recs.append(_rec_enc("psi-prime", pp.canonical(), q, v, und))
    return RunResult(recs, undecided, len(qs))


def run_div_sum(args) -> RunResult:
    pp = _pp_from_args(args)
    r = gallagher.divergence_sum(pp, args.Q, cap=args.precision_bits)
    rec = _rec_enc("divergence-sum", pp.canonical(), args.Q, r.total,
                   r.undecided)
    return RunResult([rec], r.undecided, args.Q)


def run_gl_census(args) -> RunResult:
    beta = parse_param(args.beta)
    gp = parse_param(args.gamma_prime or "rat:0")
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
    return RunResult(recs, len(c.undecided), args.Q)


def run_sklr(args) -> RunResult:
    pp = _pp_from_args(args)
    gamma = parse_param(args.gamma)
    r = gallagher.sklr_sum(pp, gamma, args.q, args.k, args.l, args.r,
                           cap=args.precision_bits)
    ptxt = f"{pp.canonical()};gamma={gamma.canonical()};k={args.k};l={args.l};r={args.r}"
    return RunResult([_rec("sklr-count", ptxt, args.q, r.count,
                           undecided=r.undecided)],
                     r.undecided, max(1, args.q))


def run_f_moments(args) -> RunResult:
    beta = parse_param(args.beta)
    gp = parse_param(args.gamma_prime or "rat:0")
    omega = Fraction(args.omega)
    s, ref = gallagher.f_moment_sum(beta, gp, omega, args.Q, args.l, args.K)
    ptxt = (f"beta={beta.canonical()};gp={gp.canonical()};omega={omega};"
            f"l={args.l};K={args.K}")
    return RunResult([_rec_enc("f-moment-sum", ptxt, args.Q, s),
                      _rec_enc("f-moment-ref", ptxt, args.Q, ref)])


def run_bc_ratio(args) -> RunResult:
    gamma = parse_param(args.gamma)
    if args.beta:
        subject = _pp_from_args(args)
        ptxt = f"{subject.canonical()};gamma={gamma.canonical()}"
    else:
        subject = parse_psi(args.psi)
        ptxt = f"psi={subject.canonical()};gamma={gamma.canonical()}"
    series = gallagher.bc_ratio(subject, gamma, args.Q,
                                checkpoint_every=max(1, args.Q))
    recs = [_rec_enc("bc-ratio", ptxt, args.Q, series.ratio, series.undecided),
            _rec_enc("bc-mass", ptxt, args.Q, series.final_mass),
            _rec_enc("bc-pair-mass", ptxt, args.Q, series.final_pair_mass)]
    return RunResult(recs, series.undecided, args.Q)


def run_union(args) -> RunResult:
    gamma = parse_param(args.gamma)
    if args.beta:
        subject = _pp_from_args(args)
        ptxt = f"{subject.canonical()};gamma={gamma.canonical()}"
    else:
        subject = parse_psi(args.psi)
        ptxt = f"psi={subject.canonical()};gamma={gamma.canonical()}"
    e = gallagher.union_series(subject, gamma, args.Q0, args.Q)
    return RunResult([_rec_enc("union-measure", ptxt,
                               f"{args.Q0}..{args.Q}", e)])


def run_hits(args) -> RunResult:
    gamma = parse_param(args.gamma)
    pp = _pp_from_args(args)
    x = Fraction(args.x)
    r = gallagher.hit_count(x, gamma, pp, args.Q, direct=args.direct)
    ptxt = f"{pp.canonical()};gamma={gamma.canonical()};x={x}"
    return RunResult([_rec("hit-count", ptxt, args.Q, r.count,
                           undecided=r.undecided)],
                     r.undecided, args.Q)


def _mc_chunk(chunk_args):
    gamma, pp, Q, direct, seed, idxs = chunk_args
    s = gallagher.mc_survey(gamma, pp, Q, len(idxs), seed, direct=direct,
                            first=idxs.start)
    # the expectation does not depend on the draws: the first chunk alone
    # computes it
    expected = s.expected if idxs.start == 0 else None
    return s.mean * s.samples, s.undecided, expected


def run_mc_survey(args) -> RunResult:
    if args.samples < 1:
        raise ConfigError("--samples must be >= 1")
    gamma = parse_param(args.gamma)
    pp = _pp_from_args(args)
    chunks = _chunked(range(args.samples), args.threads)
    work = [(gamma, pp, args.Q, args.direct, args.seed, ch) for ch in chunks]
    parts = _pmap(_mc_chunk, work, args.threads)
    total = sum(p[0] for p in parts)
    undecided = sum(p[1] for p in parts)
    expected = parts[0][2]
    mean = total / args.samples
    ptxt = f"{pp.canonical()};gamma={gamma.canonical()};seed={args.seed}"
    recs = [_rec("mc-mean", ptxt, args.Q, mean, undecided=undecided),
            _rec_enc("mc-expected", ptxt, args.Q, expected),
            _rec("mc-deviation", ptxt, args.Q, mean - expected.mid)]
    return RunResult(recs, undecided, args.Q * args.samples)


def run_doubly_metric(args) -> RunResult:
    gamma = parse_param(args.gamma)
    r = gallagher.doubly_metric_sample(gamma, Fraction(args.H_prime), args.N,
                                       args.samples, args.seed)
    ptxt = f"gamma={gamma.canonical()};H'={args.H_prime};N={args.N};seed={args.seed}"
    recs = [_rec("doubly-metric-fraction", ptxt, args.samples, r.fraction),
            _rec_enc("doubly-metric-union-bound", ptxt, args.N, r.union_bound)]
    return RunResult(recs)


# ---------------------------------------------------------------------------
# Plumbing
# ---------------------------------------------------------------------------

def _parse_range(text) -> list:
    """'7' or '2..40' (inclusive)."""
    text = str(text)
    if ".." in text:
        a, _, b = text.partition("..")
        return list(range(int(a), int(b) + 1))
    return [int(text)]


def _chunked(items, n):
    n = max(1, n)
    size = max(1, (len(items) + n - 1) // n)
    return [items[i:i + size] for i in range(0, len(items), size)]


def _pmap(fn, work, threads):
    if threads <= 1 or len(work) <= 1:
        return [fn(w) for w in work]
    with ProcessPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, work))


EXPERIMENTS = {
    "cf": run_cf,
    "sigma": run_sigma,
    "sigma-pair": run_sigma_pair,
    "omega": run_omega,
    "divisors": run_divisors,
    "f-avg": run_f_avg,
    "aq": run_aq,
    "pairs": run_pairs,
    "master-sweep": run_master_sweep,
    "box-count": run_box_count,
    "disc": run_disc,
    "etk": run_etk,
    "etk-auto": run_etk_auto,
    "psi-prime": run_psi_prime,
    "div-sum": run_div_sum,
    "gl-census": run_gl_census,
    "sklr": run_sklr,
    "f-moments": run_f_moments,
    "bc-ratio": run_bc_ratio,
    "union": run_union,
    "hits": run_hits,
    "mc-survey": run_mc_survey,
    "doubly-metric": run_doubly_metric,
}


def _add_common(sp):
    sp.add_argument("--precision-bits", type=int, default=DEFAULT_PRECISION_CAP)
    sp.add_argument("--seed", type=int, default=2026)
    sp.add_argument("--threads", type=int, default=1)
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.add_argument("--config", default=None)
    sp.add_argument("--output", default=None)


class _Parser(argparse.ArgumentParser):
    """Argument errors are configuration errors: exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="mdl",
        description="Exact experiments on limsup arc systems, Kronecker "
                    "discrepancy, Diophantine exponents and divisor sums.")
    sub = ap.add_subparsers(dest="command", required=True)
    ap.commands = {}    # name -> subparser, for reading command defaults

    def new(name, **kw):
        sp = ap.commands[name] = sub.add_parser(name, **kw)
        _add_common(sp)
        return sp

    sp = new("cf", help="continued fraction expansion")
    sp.add_argument("--alpha", required=True)
    sp.add_argument("--terms", type=int, default=10)

    sp = new("sigma", help="height-truncated Diophantine exponent of one number")
    sp.add_argument("--gamma", required=True)
    sp.add_argument("--N", type=int, required=True)

    sp = new("sigma-pair", help="joint Diophantine exponent up to height N")
    sp.add_argument("--gamma", required=True)
    sp.add_argument("--beta", required=True)
    sp.add_argument("--N", type=int, required=True)

    sp = new("omega", help="shrinking exponent schedule")
    sp.add_argument("--q", required=True, help="q or range a..b")
    sp.add_argument("--c", required=True)
    sp.add_argument("--schedule", choices=("main2", "lemma3"), default="main2")

    sp = new("divisors", help="divisor table and F weight")
    sp.add_argument("--q", required=True, help="q or range a..b")

    sp = new("f-avg", help="average of F up to Q")
    sp.add_argument("--Q", type=int, required=True)

    sp = new("aq", help="one approximation arc system")
    sp.add_argument("--psi", required=True)
    sp.add_argument("--gamma", required=True)
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--emit-set", action="store_true")

    sp = new("pairs", help="sum of pairwise intersection measures")
    sp.add_argument("--psi", required=True)
    sp.add_argument("--gamma", required=True)
    sp.add_argument("--Q", type=int, required=True)

    sp = new("master-sweep", help="two-case intersection bound sweep")
    sp.add_argument("--psi", required=True)
    sp.add_argument("--gamma", required=True)
    sp.add_argument("--Q", type=int, required=True)
    sp.add_argument("--H", type=int, default=3)
    sp.add_argument("--C0", default="2")

    sp = new("box-count", help="orbit points in a box")
    sp.add_argument("--params", required=True, help="one or two, comma separated")
    sp.add_argument("--Q", type=int, required=True)
    sp.add_argument("--box", required=True, help="a,b per axis, comma separated")

    sp = new("disc", help="exact 1D star discrepancy / 2D grid bracket")
    sp.add_argument("--alpha", required=True)
    sp.add_argument("--beta", default=None)
    sp.add_argument("--Q", type=int, required=True)
    sp.add_argument("--m", type=int, default=16)

    sp = new("etk", help="Erdos-Turan-Koksma bound")
    sp.add_argument("--alpha", required=True)
    sp.add_argument("--beta", default=None)
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--H", type=int, default=1)
    sp.add_argument("--sweep-H", type=int, default=0,
                    help="emit the exact-vs-bound sweep CSV up to this H")

    sp = new("etk-auto", help="ETK bound with the optimized truncation")
    sp.add_argument("--gamma", required=True)
    sp.add_argument("--beta", required=True)
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--sigma", required=True)

    sp = new("psi-prime", help="truncated quotient function values")
    sp.add_argument("--psi", required=True)
    sp.add_argument("--beta", required=True)
    sp.add_argument("--gamma-prime", default="rat:0")
    sp.add_argument("--omega", default="none")
    sp.add_argument("--q", required=True, help="q or range a..b")

    sp = new("div-sum", help="divergence sum of psi' up to Q")
    sp.add_argument("--psi", required=True)
    sp.add_argument("--beta", required=True)
    sp.add_argument("--gamma-prime", default="rat:0")
    sp.add_argument("--omega", default="none")
    sp.add_argument("--Q", type=int, required=True)

    sp = new("gl-census", help="dyadic distance-cell census")
    sp.add_argument("--beta", required=True)
    sp.add_argument("--gamma-prime", default="rat:0")
    sp.add_argument("--omega", required=True)
    sp.add_argument("--Q", type=int, required=True)
    sp.add_argument("--members", action="store_true")

    sp = new("sklr", help="stratified indicator count")
    sp.add_argument("--psi", required=True)
    sp.add_argument("--beta", required=True)
    sp.add_argument("--gamma-prime", default="rat:0")
    sp.add_argument("--omega", default="none")
    sp.add_argument("--gamma", required=True)
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--l", type=int, required=True)
    sp.add_argument("--r", type=int, required=True)

    sp = new("f-moments", help="divisor-weight moment sum over a census cell")
    sp.add_argument("--beta", required=True)
    sp.add_argument("--gamma-prime", default="rat:0")
    sp.add_argument("--omega", required=True)
    sp.add_argument("--Q", type=int, required=True)
    sp.add_argument("--l", type=int, required=True)
    sp.add_argument("--K", type=int, required=True)

    sp = new("bc-ratio", help="second-moment ratio of the arc system family")
    sp.add_argument("--psi", required=True)
    sp.add_argument("--gamma", required=True)
    sp.add_argument("--beta", default=None)
    sp.add_argument("--gamma-prime", default="rat:0")
    sp.add_argument("--omega", default="none")
    sp.add_argument("--Q", type=int, required=True)

    sp = new("union", help="tail union measure")
    sp.add_argument("--psi", required=True)
    sp.add_argument("--gamma", required=True)
    sp.add_argument("--beta", default=None)
    sp.add_argument("--gamma-prime", default="rat:0")
    sp.add_argument("--omega", default="none")
    sp.add_argument("--Q0", type=int, default=1)
    sp.add_argument("--Q", type=int, required=True)

    sp = new("hits", help="multiplicative hit count for one sample")
    sp.add_argument("--x", required=True)
    sp.add_argument("--gamma", required=True)
    sp.add_argument("--psi", required=True)
    sp.add_argument("--beta", required=True)
    sp.add_argument("--gamma-prime", default="rat:0")
    sp.add_argument("--omega", default="none")
    sp.add_argument("--Q", type=int, required=True)
    sp.add_argument("--direct", action="store_true")

    sp = new("mc-survey", help="Monte-Carlo hit-count survey")
    sp.add_argument("--psi", required=True)
    sp.add_argument("--gamma", required=True)
    sp.add_argument("--beta", required=True)
    sp.add_argument("--gamma-prime", default="rat:0")
    sp.add_argument("--omega", default="none")
    sp.add_argument("--Q", type=int, required=True)
    sp.add_argument("--samples", type=int, required=True)
    sp.add_argument("--direct", action="store_true")

    sp = new("doubly-metric", help="joint Diophantine failure sampling")
    sp.add_argument("--gamma", required=True)
    sp.add_argument("--H-prime", required=True)
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--samples", type=int, required=True)

    return ap


def _apply_config(args, parser):
    if not args.config:
        return args
    known = {k.replace("-", "_") for k in vars(args)}
    cfg = load_config(args.config, known)
    # config fills only values the command line left at their defaults
    command = parser.commands[args.command]
    for key, value in cfg.items():
        target_default = command.get_default(key)
        if getattr(args, key, None) == target_default:
            if isinstance(target_default, int) and not isinstance(target_default, bool):
                setattr(args, key, int(value))
            elif isinstance(target_default, bool):
                setattr(args, key, value.lower() in ("1", "true", "yes"))
            else:
                setattr(args, key, value)
    return args


def write_records(records, fmt: str, out) -> None:
    if fmt == "csv":
        w = csv.writer(out)
        w.writerow(CSV_HEADER)
        for r in records:
            w.writerow(r.to_csv_row())
    else:
        json.dump([r.to_json_obj() for r in records], out, indent=1)
        out.write("\n")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args = _apply_config(args, parser)
    except ConfigError as e:
        sys.stderr.write(f"config error: {e}\n")
        return 1
    args.precision_bits_or = lambda d: min(d, args.precision_bits)
    try:
        result = EXPERIMENTS[args.command](args)
    except (ConfigError, ValueError, KeyError) as e:
        sys.stderr.write(f"config error: {e}\n")
        return 1
    except (DependenceError, CapExceeded) as e:
        sys.stderr.write(f"refused: {e}\n")
        return 3
    if args.output:
        with open(args.output, "w") as fh:
            write_records(result.records, args.format, fh)
    else:
        write_records(result.records, args.format, sys.stdout)
    if result.decisions > 0 and result.undecided * 100 > result.decisions:
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
