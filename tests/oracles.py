"""Test-side helpers: checks that only the tests call, the `Fraction`
reference route of the integer-window kernels, the comparison route of
real expressions, the wall-comparison route of the fibre level, and its
per-q route, which the range route replaced.  Two routes the library left
for faster ones stay here too: the doubly-metric scan over every pair, and
`etk_autoH`'s root per step.

The reference functions build, normalise and compare a `Fraction` per
term, as the library did before its hot loops ran on integer windows.
They are slow and independent of that rewrite, so the tests hold the
library to them value for value."""

import math
from collections import namedtuple
from enum import Enum
from fractions import Fraction
from functools import lru_cache, partial

import mpmath
import numpy as np

from mdl.cfrac import _exponent, _hull
from mdl.arith import F_of
from mdl.cfrac import expand
from mdl.circlesets import (
    CircleSet,
    PsiRangeError,
    _canonicalize,
    _gamma_grid,
    _gamma_pin,
    _psi_lookup,
    aq_pair_measure_raw,
)
from mdl.discrepancy import SHELL_BITS, EtkBound, _shell_sums
from mdl.gallagher import (
    _FAMILY_EXPONENTS,
    HALF,
    PSI_PRIME_BITS,
    SupportState,
    counter_sample,
    _log_levels,
    _pow_levels,
)
from mdl.realnum import (
    DEFAULT_PRECISION_CAP,
    CapExceeded,
    DependenceError,
    Enclosure,
    FormEvaluator,
    RealExpr,
    _log2_frac_floor,
    ball_lane,
    form_lane,
    frac_to_dist,
    lane_bounds,
    lane_threshold,
    log2_enclosure,
    log2_scaled,
    neg_log2_enclosure,
    param_evaluator,
    precision_ladder,
    rational_power,
    round_outward,
)


# ---------------------------------------------------------------------------
# Checks that only the tests call
# ---------------------------------------------------------------------------

def eval_checked(psi, q: int) -> Enclosure:
    """psi(q), or ValueError when it reaches 1/2."""
    v = psi.eval(q)
    if not v.hi < HALF:
        raise ValueError(f"psi({q}) = {v} reaches 1/2; domain starts at {psi.q0}")
    return v


def from_endpoint_pairs(pairs, slack=0) -> CircleSet:
    """The inverse of `CircleSet.to_endpoint_pairs`."""
    if len(pairs) % 2 != 0:
        raise ValueError("endpoint list must pair up")
    arcs = []
    for i in range(0, len(pairs), 2):
        a = Fraction(pairs[i][0], pairs[i][1])
        b = Fraction(pairs[i + 1][0], pairs[i + 1][1])
        arcs.append((a, b))
    return from_arcs(arcs, slack)


def overlaps(a: Enclosure, b: Enclosure) -> bool:
    """Do two enclosures share a point?"""
    return a.lo <= b.hi and b.lo <= a.hi


def contains(e: Enclosure, value) -> bool:
    """Does the enclosure e hold the rational value?"""
    return e.lo <= value <= e.hi


def expr_of(param, coeff: int = 1, offset=0) -> RealExpr:
    """The expression coeff * param + offset."""
    return RealExpr.build([(coeff, param)], offset)


def etk_shell_terms(params, N: int, H: int) -> tuple:
    """The shell enclosures of `etk_bound_sweep(params, N, H)`: entry h - 1
    holds the |k| = h (or max(|k1|, |k2|) = h) frequency-sum contribution."""
    return tuple(Enclosure.dyadic(lo, hi, SHELL_BITS)
                 for lo, hi in _shell_sums(params, N, H, DEFAULT_PRECISION_CAP))


def quantize(e: Enclosure, bits: int) -> Enclosure:
    """e rounded outward onto the 2^-bits grid, which contains it."""
    return Enclosure.dyadic(*round_outward(
        e.lo.numerator, e.lo.denominator, e.hi.numerator, e.hi.denominator,
        bits), bits)


def from_arcs(arcs, slack=0) -> CircleSet:
    """The canonical CircleSet of a list of arcs."""
    return CircleSet(_canonicalize(arcs), Fraction(slack))


def intersect(s: CircleSet, t: CircleSet) -> CircleSet:
    """Exact intersection of the stored arc systems (slacks add)."""
    out = []
    i = j = 0
    A, B = s.arcs, t.arcs
    while i < len(A) and j < len(B):
        a1, b1 = A[i]
        a2, b2 = B[j]
        lo, hi = max(a1, a2), min(b1, b2)
        if hi > lo:
            out.append((lo, hi))
        if b1 < b2:
            i += 1
        else:
            j += 1
    return CircleSet(_canonicalize(out), s.slack + t.slack)


def divisor_counts(N: int) -> np.ndarray:
    """d(q) for q = 0..N (index 0 unused), by harmonic slice sweeps."""
    d = np.zeros(N + 1, dtype=np.int32)
    for r in range(1, N + 1):
        d[r::r] += 1
    return d


def spf_sieve(limit: int) -> np.ndarray:
    """Smallest prime factor of 0..limit (spf[0] = 0, spf[1] = 1), marking
    the multiples of every p up to limit: `arith._Sieve`'s former loop."""
    spf = np.zeros(limit + 1, dtype=np.int64)
    spf[1] = 1
    for p in range(2, limit + 1):
        if spf[p] == 0:
            spf[p::p][spf[p::p] == 0] = p
    return spf


def F_sum_direct(Q: int) -> Enclosure:
    """sum_{q <= Q} F(q) by per-q divisor enumeration; the independent slow
    route used to cross-check the divisor-swap identity."""
    shift = 64
    lo_acc = 0
    hi_acc = 0
    for q in range(1, Q + 1):
        e = F_of(q)
        lo_acc += math.floor(e.lo * (1 << shift))
        hi_acc += math.ceil(e.hi * (1 << shift))
    return Enclosure(Fraction(lo_acc, 1 << shift), Fraction(hi_acc, 1 << shift))


def window_enclosure(window) -> Enclosure:
    """The enclosure [lo, hi] / scale of a distance window (lo, hi, scale)."""
    lo, hi, scale = window
    return Enclosure(Fraction(lo, scale), Fraction(hi, scale))


def dist_enclosure(fe, coeffs, bits=None) -> Enclosure:
    """||form|| of a FormEvaluator as an enclosure at `bits`."""
    return window_enclosure(fe.dist_window(coeffs, bits))


def min_dist(alpha, N: int, cap: int = DEFAULT_PRECISION_CAP):
    """(min over 1 <= n <= N of ||n*alpha||, argmin).

    Best approximations are continued-fraction denominators, so the minimum
    sits at the largest convergent denominator <= N; the returned value is a
    rigorous enclosure and the argmin is exact.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if not alpha.is_irrational:
        raise ValueError("min_dist needs an irrational parameter")
    # grow the expansion until a denominator passes N
    terms = 8
    while True:
        cf = expand(alpha, terms, cap=cap)
        if cf.convergents[-1][1] > N:
            break
        terms *= 2
    best_q = 1
    for _, q in cf.convergents:
        if 1 <= q <= N:
            best_q = max(best_q, q)
    return dist_enclosure(param_evaluator(alpha, cap), [best_q]), best_q


def best_candidate_full(cands, fe, cap: int):
    """`cfrac._best_candidate` without its uint64 lane: every vector, in
    scan order, through its first-rung window (`positive_window`'s where
    that touches 0), the float sort and the ladder confirmation, as the
    library scanned before the lane (with the winner's exponent from its
    certified window, and a window touching 0 on a rung climbing, not
    raising)."""
    cands = [tuple(int(k) for k in c) for c in cands]
    scored = []
    for coeffs in cands:
        window = fe.dist_window(coeffs)
        if window[0] == 0:
            window = fe.positive_window(coeffs)
        height = max(abs(k) for k in coeffs)
        approx = (math.log2(window[2]) - math.log2(window[1])) \
            / math.log2(height)
        scored.append((approx, coeffs, window))
    scored.sort(key=lambda t: (-t[0], t[1]))
    best = scored[0]
    best_enc = _exponent(best[2], best[1])
    tied = None
    for approx, coeffs, window in scored[1:]:
        if approx < best[0] - 1e-6:
            break
        for bits in precision_ladder(96, cap):
            other = _exponent(fe.dist_window(coeffs, bits), coeffs, bits)
            cur = _exponent(fe.dist_window(best[1], bits), best[1], bits)
            if other is None or cur is None:
                continue
            if other.hi < cur.lo:
                break
            if other.lo > cur.hi:
                best = (approx, coeffs)
                best_enc = other if tied is None else _hull(tied, other)
                break
        else:
            if other is None:
                other = _exponent(window, coeffs)
            tied = best_enc = _hull(best_enc, other)
            if coeffs < best[1]:
                best = (approx, coeffs)
    return best_enc, best[1]


def witness_verifies(entry, evaluator) -> bool:
    """Re-evaluate a SigmaEntry's witness and check it reproduces the
    exponent."""
    expo = _exponent(evaluator.dist_window(entry.witness), entry.witness)
    return overlaps(expo, entry.value)


def pair_measure(fam, q: int, qp: int) -> Enclosure:
    """|A_q intersect A_q'| of an AqFamily as an enclosure."""
    lo, hi, CD = fam.pair_raw(q, qp)
    return Enclosure(Fraction(lo, CD), Fraction(hi, CD))


def doubly_metric_full_scan(gamma, H_prime: int, N: int, samples: int,
                            seed: int) -> dict:
    """{sample index: worst witness (k1, k2)} of `doubly_metric_sample`'s
    failing samples, by the scan it replaced: every one of the 4N^2 - 2
    pairs through `ball_lane` for every sample, in the order k2, then k1
    from -N to N."""
    fe = param_evaluator(gamma)
    pairs = [(k1, k2) for k2 in range(1, N + 1)
             for k1 in list(range(-N, 0)) + list(range(1, N + 1))
             if max(abs(k1), k2) >= 2]
    K1G, marg = form_lane(fe, [[k1] for k1, _ in pairs])
    k2s = np.array([k2 for _, k2 in pairs], dtype=np.uint64)
    heights = [max(-k1, k1, k2) ** H_prime for k1, k2 in pairs]
    thr = np.array([lane_threshold(1, 1, h) for h in heights],
                   dtype=np.uint64).reshape(-1, 2)
    thr_lo = thr[:, 0]
    bounds = lane_bounds(thr_lo, thr[:, 1], marg)
    witnesses = {}
    for i in range(samples):
        k = counter_sample(seed, i)
        sure, maybe, dmin = ball_lane(K1G, k2s, k, *bounds)
        if np.any(sure):
            idx = np.nonzero(sure)[0]
            ratios = dmin[idx].astype(np.float64) / \
                np.maximum(thr_lo[idx].astype(np.float64), 1.0)
            witnesses[i] = pairs[int(idx[int(np.argmin(ratios))])]
            continue
        x = Fraction(k, 1 << 64)
        for j in np.nonzero(maybe)[0]:
            k1, k2 = pairs[j]
            ball = Enclosure.exact(Fraction(1, heights[j]))
            if fe.dist_below((k1,), ball, closed=True, shift=k2 * x):
                witnesses[i] = (k1, k2)
                break
    return witnesses


def doubly_metric_measure(gamma, H_prime: int, N: int, bits: int = 64) -> Enclosure:
    """The measure of the beta that `doubly_metric_sample` counts as
    failing: the union over the pairs k1 in +-[1, N], k2 in [1, N], h =
    max(|k1|, k2) >= 2, of the k2 arcs (j - k1 gamma +- h^-H') / k2.  With
    gamma within `slack` of its pinned g, each centre lies within |k1|
    slack / k2 of the one built from g: the arcs shrunk by that much lie
    inside the set, and the arcs grown by it cover the set."""
    g, slack = _gamma_grid(gamma, bits)
    inner, outer = [], []
    for k1 in range(-N, N + 1):
        for k2 in range(1, N + 1):
            h = max(abs(k1), k2)
            if k1 == 0 or h < 2:
                continue
            r, e = Fraction(1, k2 * h ** H_prime), abs(k1) * slack / k2
            for j in range(k2):
                c = (j - k1 * g) / k2
                inner.append((c - r + e, c + r - e))
                outer.append((c - r - e, c + r + e))
    return Enclosure(CircleSet(_canonicalize(inner)).measure_bounds().lo,
                     CircleSet(_canonicalize(outer)).measure_bounds().hi)


# ---------------------------------------------------------------------------
# The mpmath route of pi and e
# ---------------------------------------------------------------------------

def mpf_fraction(raw) -> Fraction:
    """The exact value of an mpmath raw float tuple (sign, man, exp, bc)."""
    sign, man, exp, _ = raw
    v = Fraction(man) * Fraction(2) ** exp
    return -v if sign else v


def const_enclosure_mpmath(name: str, bits: int) -> Enclosure:
    """pi or e as mpmath's interval at precision bits + 12, the route the
    library took before its integer series; the global interval precision
    is restored on exit."""
    old = mpmath.iv.prec
    try:
        mpmath.iv.prec = bits + 12
        lo, hi = (mpmath.iv.e if name == "e" else mpmath.iv.pi)._mpi_
        return Enclosure(mpf_fraction(lo), mpf_fraction(hi))
    finally:
        mpmath.iv.prec = old


@lru_cache(maxsize=None)
def const_value(name: str, prec: int = 5000) -> Fraction:
    """pi or e rounded to a `prec`-bit mpmath float."""
    with mpmath.workprec(prec):
        return mpf_fraction((+getattr(mpmath, name))._mpf_)


def pin_of(e: Enclosure, bits: int) -> tuple:
    """(lo, spread) of an enclosure at scale 2^bits, as `FormEvaluator.pin`
    takes it."""
    scale = 1 << bits
    lo = math.floor(e.lo * scale)
    return lo, math.ceil(e.hi * scale) - lo


# ---------------------------------------------------------------------------
# The Fraction reference route
# ---------------------------------------------------------------------------

def log2_fraction(n: int, bits: int) -> Enclosure:
    """log2(n) from the same digit extraction, padded in Fractions."""
    if n & (n - 1) == 0:
        return Enclosure.exact(n.bit_length() - 1)
    k = n.bit_length() - 1
    nb = bits + 3
    work = nb + 16
    x0 = (n << work) >> k
    lo = Fraction(_log2_frac_floor(x0, work, nb), 1 << nb)
    pad = Fraction(4 * nb, 1 << work) + Fraction(2, 1 << nb)
    hi = Fraction(_log2_frac_floor(x0 + 1, work, nb), 1 << nb) + pad
    return Enclosure(Fraction(k) + lo, Fraction(k) + min(hi, Fraction(1)))


def f_average_fraction(Q: int) -> Enclosure:
    """`arith.F_average`'s exact path, 2 <= Q <= 65536, with two Fraction
    products per r."""
    shift = 64
    lo_acc = 0
    hi_acc = 0
    for r in range(2, Q + 1):
        e = log2_enclosure(r, 48)
        w = Fraction(Q // r, r)
        lo_acc += math.floor(e.lo * w * (1 << shift))
        hi_acc += math.ceil(e.hi * w * (1 << shift))
    scale = Q << shift
    return Enclosure(Fraction(lo_acc, scale), Fraction(hi_acc, scale))


def dist_positive(fe, coeffs, cap: int) -> Enclosure:
    """||form|| as an enclosure with a positive lower end, by the ladder."""
    witness = tuple(-k for k in coeffs) if coeffs[0] < 0 else tuple(coeffs)
    if fe.dist_is_zero_exact(coeffs):
        raise DependenceError(witness)
    for bits in precision_ladder(fe.bits, cap):
        e = dist_enclosure(fe, coeffs, bits)
        if e.lo > 0:
            return e
    raise DependenceError(witness)


def dist_positive_exact(fe, coeffs, cap: int) -> Enclosure:
    """`dist_positive`, but the exact distance of a form that collapses to
    a rational once identical parameters are merged."""
    expr = RealExpr.build(list(zip(coeffs, fe.params)), fe.offset)
    if not expr.is_rational:
        return dist_positive(fe, coeffs, cap)
    v = expr.offset
    d = abs(v - round(v))
    if d == 0:
        raise DependenceError(tuple(-k for k in coeffs) if coeffs[0] < 0
                              else tuple(coeffs))
    return Enclosure.exact(d)


def etk_shells_1d(fe, Hmax: int, cap: int) -> list:
    shells = []
    for h in range(1, Hmax + 1):
        d = dist_positive(fe, (h,), cap)
        term = Fraction(8, h + 1) * d.reciprocal()
        shells.append(quantize(term, 96))
    return shells


def etk_shells_2d(fe, Hmax: int, cap: int) -> list:
    scale = 1 << 96
    shells = []
    for h in range(1, Hmax + 1):
        lo_acc = 0
        hi_acc = 0
        pairs = [(k1, h) for k1 in range(-h, h + 1)]
        pairs += [(h, k2) for k2 in range(-h + 1, h)]
        for k1, k2 in pairs:
            d = dist_positive(fe, (k1, k2), cap)
            w = Fraction(16, (abs(k1) + 1) * (abs(k2) + 1))
            lo_acc += (w.numerator * d.hi.denominator * scale) // \
                (w.denominator * d.hi.numerator)
            num = w.numerator * d.lo.denominator * scale
            den = w.denominator * d.lo.numerator
            hi_acc += -(-num // den)
        shells.append(Enclosure(Fraction(lo_acc, scale), Fraction(hi_acc, scale)))
    return shells


def etk_bounds(shells, N: int) -> list:
    """The bound enclosures 9N(1/H + shell sum) for H = 1, 2, ..."""
    out = []
    acc = Enclosure.exact(0)
    for H, shell in enumerate(shells, start=1):
        acc = quantize(acc + shell, 96)
        out.append(Fraction(9 * N, H) + acc * Fraction(9, 1))
    return out


def etk_autoH_stepwise(N: int, sigma: Fraction) -> EtkBound:
    """`discrepancy.etk_autoH` by its first route: each step compares coef
    log2(H) H^(sigma+1) with 1 through an outward-rounded 96-bit power, an
    s-th root per step."""
    p, s = sigma.numerator, sigma.denominator
    coef = Fraction(8000) * sigma / N
    H = 1
    while True:
        lg = log2_enclosure(H, 96)
        rhs = lg * rational_power(Enclosure.exact(H), p + s, s, bits=96) * coef
        ok = rhs.lo > 1 or rhs.lo == rhs.hi == 1
        if not ok and rhs.hi >= 1:
            raise CapExceeded(f"H-threshold comparison undecided at H={H}")
        if ok:
            break
        H += 1
    hsig = rational_power(Enclosure.exact(H), p, s, bits=96)
    bound = (Fraction(1, H) + coef * lg * hsig) * (9 * N)
    npow = rational_power(Enclosure.exact(N), p, p + s, bits=96)
    lgn = log2_enclosure(N, 96) if N > 1 else Enclosure.exact(1)
    lpow = rational_power(lgn, s, p + s, bits=96) if N > 2 else Enclosure.exact(1)
    denom = npow * lpow
    implied = bound / denom if denom.lo > 0 else None
    lo, hi = round_outward(bound.lo.numerator, bound.lo.denominator,
                           bound.hi.numerator, bound.hi.denominator, 96)
    return EtkBound(N, H, (lo, hi, 1 << 96), implied)


def neg_log2_fraction(x: Enclosure, bits: int) -> Enclosure:
    """-log2 of a positive rational interval from log2 of num and den."""
    def neg_log2(fr: Fraction, round_up: bool) -> Fraction:
        lq = log2_fraction(fr.denominator, bits)
        lp = log2_fraction(fr.numerator, bits)
        return lq.hi - lp.lo if round_up else lq.lo - lp.hi

    return Enclosure(neg_log2(x.hi, False), neg_log2(x.lo, True))


def psi_eval(psi, q: int) -> Enclosure:
    """psi(q) by Enclosure arithmetic on 64-bit logarithms, quantized once
    for the formula families that take logarithms."""
    if psi.tag not in ("ev", "mono2", "log2sq"):
        return psi.eval(q)
    bits = 64
    a, b, d = _FAMILY_EXPONENTS[psi.tag]
    lg = log2_fraction(q, bits)
    den = Enclosure.exact(Fraction(q ** a))
    den = den * lg.power(int(b)) if b else den
    if d:
        llg = neg_log2_fraction(Enclosure(1 / lg.hi, 1 / lg.lo), bits)
        if llg.lo <= 0:
            raise ValueError(f"psi family {psi.tag} undefined at q={q}")
        if d == Fraction(1, 2):
            llg_pow = rational_power(llg, 1, 2, bits=bits)
        else:
            llg_pow = llg.power(int(d))
        den = den * llg_pow
    return quantize(Enclosure.exact(psi.c) / den, 96)


def fibre_dist(ctx, q: int, bits=None) -> Enclosure:
    """||q beta - g'|| of a FibreContext as an enclosure at `bits`."""
    return dist_enclosure(ctx.fe, ctx._coeffs(q), bits)


def psi_prime_value(ctx, q: int) -> Enclosure:
    """psi'(q) on the support, by Enclosure division at each rung."""
    psi_v = psi_eval(ctx.pp.psi, q)
    for bits in precision_ladder(128, ctx.cap):
        d = fibre_dist(ctx, q, bits)
        if d.lo > 0:
            return quantize(psi_v / d, 128)
    raise DependenceError((q,), "distance cannot be separated from 0")


class PerQFibre:
    """`FibreContext`'s per-q route before the range route: each q's level
    is one `FormEvaluator.decide` call from the evaluator's first rung, and
    its distance window is `frac_window`'s at that rung."""

    def __init__(self, ctx):
        self.ctx = ctx

    def level(self, q: int, om, top):
        """The level of q clamped to at most `top`, or None at the cap; with
        no level (omega None or not positive), `top`, or -1 where omega is
        not positive and the distance vanishes."""
        if om is None or om <= 0:
            return -1 if om is not None and self.ctx.dist_is_zero(q) else top
        p, s = om.numerator, om.denominator
        if s <= 64:
            levels = partial(_pow_levels, s=s, qp=q ** p)
        else:
            levels = partial(_log_levels, p=p, s=s, lgq=log2_scaled(q, 96))

        def verdict(fr, err, scale):
            a, b = levels(*frac_to_dist(fr, err, scale))
            if top is not None:
                a, b = min(a, top), min(b, top)
            return a if a == b else None

        return self.ctx.fe.decide(self.ctx._coeffs(q), verdict)

    def window(self, q: int) -> tuple:
        """The distance window (lo, hi, scale) of q at the first rung."""
        return frac_to_dist(*self.ctx.fe.frac_window(self.ctx._coeffs(q)))

    def support_state(self, q: int) -> str:
        level = self.level(q, self.ctx.pp.omega_at(q), 0)
        if level is None:
            return SupportState.UNDECIDED
        return SupportState.IN if level >= 0 else SupportState.OUT

    def psi_prime(self, q: int) -> tuple:
        state = self.support_state(q)
        if state != SupportState.IN:
            return state, 0, 0
        pl, ph, pd = self.ctx.pp.psi.window(q)
        if ph == 0:
            return state, 0, 0
        window = self.window(q)
        if window[0] == 0:
            window = self.ctx.fe.positive_window(self.ctx._coeffs(q))
        d_lo, d_hi, scale = window
        return (state, *round_outward(pl * scale, pd * d_hi, ph * scale,
                                      pd * d_lo, PSI_PRIME_BITS))


def table_window(psi, q: int) -> tuple:
    """ApproxFunction.window of a table psi by a linear scan of its
    entries; an index without an entry has psi(q) = 0."""
    for qq, v in psi.table:
        if qq == q:
            return v.numerator, v.numerator, v.denominator
    return 0, 0, 1


def ball_lane_margin(offset, mult, k: int, margin, thr_lo, thr_hi) -> tuple:
    """ball_lane's (sure, maybe, d) from the margin and the thresholds,
    adding the margin at every sample: sure = d + margin < thr_lo, maybe =
    (d < thr_hi + margin) and not sure; a margin of None makes every entry
    maybe."""
    with np.errstate(over="ignore"):
        M = offset + mult * np.uint64(k % 2**64)
    d = np.minimum(M, -M)
    if margin is None:
        return np.zeros(d.shape, bool), np.ones(d.shape, bool), d
    sure = d + margin < thr_lo
    maybe = (d < thr_hi + margin) & ~sure
    return sure, maybe, d


def floor_ceil(lo: Fraction, hi: Fraction, k: int) -> tuple:
    """floor(lo 2^k) and ceil(hi 2^k) by Fraction arithmetic."""
    return math.floor(lo * 2 ** k), math.ceil(hi * 2 ** k)


def expected_fraction(sweep) -> Enclosure:
    """_HitSweep.expected as a left-to-right Fraction sum."""
    lo = Fraction(0)
    hi = Fraction(0)
    for t_lo, t_hi, den in sweep._thresholds.values():
        lo += min(Fraction(1), 2 * Fraction(t_lo, den))
        hi += min(Fraction(1), 2 * Fraction(t_hi, den))
    for _ in sweep.undecided_q:
        hi += Fraction(1)
    return Enclosure(lo, hi)


FractionReport = namedtuple(
    "FractionReport",
    "q qp gcd delta case indicator measure bound verdict min_C0")


def star_discrepancy_exact(alpha, Q: int, bits: int = 128,
                           cap: int = DEFAULT_PRECISION_CAP) -> Enclosure:
    """discrepancy.star_discrepancy_1d by sorting every orbit point as a
    Python int at each rung and scanning all of them (input checks left to
    the library)."""
    fe = FormEvaluator([alpha], bits=bits, cap=cap)
    for b in precision_ladder(bits, cap):
        lo_pin, spread = fe.pin(b)[0][0]
        scale = 1 << b
        err = Q * spread
        us = sorted(((q * lo_pin) % scale) for q in range(1, Q + 1))
        ok = all(us[i + 1] - us[i] > 2 * err for i in range(Q - 1))
        ok = ok and us[0] > err and scale - us[-1] > err
        if ok:
            break
    else:
        raise CapExceeded("cannot separate orbit points at the cap")
    max_lo = 0
    max_hi = 0
    for i, u in enumerate(us, start=1):
        v = abs(u * 2 * Q - (2 * i - 1) * scale)
        max_lo = max(max_lo, v - 2 * Q * err)
        max_hi = max(max_hi, v + 2 * Q * err)
    den = 2 * Q * scale
    return Enclosure(Fraction(1, 2 * Q) + Fraction(max_lo, den),
                     Fraction(1, 2 * Q) + Fraction(max_hi, den))


def grid_box_max(cells, Q: int) -> int:
    """discrepancy.grid_box_max by the scan of every grid-aligned box that
    disc2d_grid ran before the second-difference identity: for each
    x-interval, every y-interval's count from 2D prefix sums.  The counts
    are Python ints, so no value can overflow."""
    m = len(cells)
    pref = np.zeros((m + 1, m + 1), dtype=object)
    pref[1:, 1:] = np.cumsum(np.cumsum(np.asarray(cells, dtype=object),
                                       axis=0), axis=1)
    best = 0
    idx = np.arange(m + 1)
    a2g, b2g = np.meshgrid(idx, idx, indexing="ij")
    mask = b2g > a2g
    width2 = (b2g - a2g)[mask]
    for a1 in range(m):
        for b1 in range(a1 + 1, m + 1):
            line = pref[b1, :] - pref[a1, :]
            counts = (line[b2g] - line[a2g])[mask]
            vals = np.abs(m * m * counts - Q * (b1 - a1) * width2)
            v = int(vals.max())
            if v > best:
                best = v
    return best


def orbit_cells(alpha, beta, Q: int, m: int, bits: int = 128) -> np.ndarray:
    """The (m, m) counts of ({q alpha}, {q beta}), q = 1..Q, per grid cell,
    from `bits`-bit enclosures of the parameters; AssertionError where an
    enclosure meets a grid line."""
    encs = [alpha.enclosure(bits), beta.enclosure(bits)]
    cells = np.zeros((m, m), dtype=np.int64)
    for q in range(1, Q + 1):
        ij = [math.floor(q * e.lo * m) for e in encs]
        assert ij == [math.floor(q * e.hi * m) for e in encs], q
        cells[ij[0] % m, ij[1] % m] += 1
    return cells


def master_check_fraction(psi, gamma, q: int, qp: int, H: int = 3, C0=2,
                          bits: int = 64, cap: int = DEFAULT_PRECISION_CAP):
    """circlesets.master_check with a Fraction for delta, the bound, each
    radius, each rung's measure and min C0."""
    if not (1 <= qp < q):
        raise ValueError("need 1 <= q' < q")
    if H < 3:
        raise ValueError("H must be an integer >= 3")
    C0 = Fraction(C0)
    if C0 <= 1:
        raise ValueError("C0 must exceed 1")
    psi_q = _psi_lookup(psi, q)
    psi_qp = _psi_lookup(psi, qp)
    for v in (psi_q, psi_qp):
        if not (v.lo > 0 and v.hi < Fraction(1, 2)):
            raise PsiRangeError(f"psi value {v} not inside (0, 1/2)")
    if not (psi_q.is_exact and psi_qp.is_exact):
        raise ValueError("the two-case bound check needs rational psi values")
    pq, pqp = psi_q.lo, psi_qp.lo
    r = math.gcd(q, qp)
    delta = q * pqp + qp * pq
    case = "I" if delta < H * r else "II"

    indicator = None
    if case == "I":
        inside = param_evaluator(gamma, cap).dist_below(
            ((qp - q) // r,), Enclosure.exact(Fraction(delta, r)), closed=True)
        if inside is None:
            return FractionReport(q, qp, r, delta, case, None,
                                  Enclosure(Fraction(0), Fraction(1)),
                                  Fraction(0), None, None)
        indicator = int(inside)
        bound = (2 * (2 * H + 1) * min(pq / q, pqp / qp) * r) * indicator
    else:
        bound = 4 * (1 + C0 / (2 * H)) * pq * pqp

    def radius(p, n):
        lo, hi = Fraction(p.lo, n), Fraction(p.hi, n)
        return lo.numerator, lo.denominator, hi.numerator, hi.denominator

    rho, rhop = radius(psi_q, q), radius(psi_qp, qp)
    for b in precision_ladder(bits, cap):
        lo_i, hi_i, CD = aq_pair_measure_raw(rho, rhop, q, qp,
                                             _gamma_pin(gamma, b))
        meas = Enclosure(Fraction(lo_i, CD), Fraction(hi_i, CD))
        if meas.hi <= bound:
            verdict = True
            break
        if meas.lo > bound:
            verdict = False
            break
    else:
        verdict = None

    min_C0 = None
    if case == "II":
        base = 4 * pq * pqp
        required = 2 * H * (meas.hi / base - 1)
        min_C0 = max(Fraction(1), required)
    return FractionReport(q, qp, r, delta, case, indicator, meas,
                          bound, verdict, min_C0)


# ---------------------------------------------------------------------------
# The comparison route of real expressions
# ---------------------------------------------------------------------------

class Comparison(Enum):
    LT = "LT"
    GT = "GT"
    EQ = "EQ"
    UNDECIDED = "UNDECIDED"


#: Starting precision of the ladder in `compare`.
START_BITS = 64


def _order(a: Fraction, b: Fraction) -> Comparison:
    return Comparison.LT if a < b else Comparison.GT if a > b else Comparison.EQ


def compare(x: RealExpr, t, cap: int = DEFAULT_PRECISION_CAP) -> Comparison:
    """Decide x <=> t.  EQ is only reported on the exact rational path;
    an irrational x is separated from t by refinement or, at the cap,
    reported UNDECIDED."""
    t = Fraction(t)
    if x.is_rational:
        return _order(x.offset, t)
    for bits in precision_ladder(START_BITS, cap):
        e = x.eval(bits, cap=cap)
        if e.hi < t:
            return Comparison.LT
        if e.lo > t:
            return Comparison.GT
        if e.width == 0:
            break
    return Comparison.UNDECIDED


def _nearest_int_window(e: Enclosure):
    """Candidate nearest integers for values in e under the (-1/2, 1/2]
    signed-fractional-part convention (ties resolved downward)."""
    zlo = math.ceil(e.lo - HALF)
    zhi = math.ceil(e.hi - HALF)
    return zlo, zhi


def _dist_of_interval(e: Enclosure) -> Enclosure:
    """Exact interval image of x -> distance to nearest integer over e.

    The map is continuous and piecewise linear with minima 0 at integers
    and maxima 1/2 at half-odd-integers, so the image is determined by the
    endpoint values plus whether either kind of critical point lies inside.
    """
    if e.width >= 1:
        return Enclosure(Fraction(0), HALF)

    def d(v: Fraction) -> Fraction:
        fr = v - math.floor(v)
        return min(fr, 1 - fr)

    lo = min(d(e.lo), d(e.hi))
    hi = max(d(e.lo), d(e.hi))
    if math.ceil(e.lo) <= math.floor(e.hi):          # integer inside
        lo = Fraction(0)
    two_lo, two_hi = math.ceil(2 * e.lo), math.floor(2 * e.hi)
    if any(k % 2 != 0 for k in range(two_lo, two_hi + 1)):  # half-odd inside
        hi = HALF
    return Enclosure(lo, min(hi, HALF))


def frac_and_dist(x: RealExpr, bits: int, cap: int = DEFAULT_PRECISION_CAP):
    """Signed fractional part {x} in (-1/2, 1/2] and distance ||x|| in [0, 1/2].

    For rational x both are exact.  Otherwise the nearest integer is decided
    by refinement starting from `bits`; if it cannot be separated within the
    cap, a widened pair of enclosures still containing the truth is returned
    (||x|| stays tight because it is continuous across the tie).
    """
    if x.is_rational:
        v = x.offset
        z = math.ceil(v - HALF)
        fr = v - z
        return Enclosure.exact(fr), Enclosure.exact(abs(fr))
    e = None
    for b in precision_ladder(bits, cap):
        e = x.eval(b, cap=cap)
        zlo, zhi = _nearest_int_window(e)
        if zlo == zhi:
            fr = e - zlo
            dist = _dist_of_interval(e)
            return fr, dist
    dist = _dist_of_interval(e)
    return Enclosure(Fraction(-1, 2), HALF), dist


# ---------------------------------------------------------------------------
# The comparison route of the fibre level
# ---------------------------------------------------------------------------

def dist_pow_compare(fe, coeffs, s: int, threshold) -> Comparison:
    """Decide ||form||^s <=> threshold (rational), s >= 1."""
    t = Fraction(threshold)
    tn, td = t.numerator, t.denominator

    def verdict(fr, err, scale):
        lo, hi, _ = frac_to_dist(fr, err, scale)
        # cross-multiplied: (hi/scale)^s < t  <=>  hi^s td < tn scale^s
        ts = tn * scale ** s
        if hi ** s * td < ts:
            return Comparison.LT
        if lo ** s * td > ts:
            return Comparison.GT
        return Comparison.EQ if lo == hi else None

    answer = fe.decide(coeffs, verdict)
    return Comparison.UNDECIDED if answer is None else answer


def dist_vs_power(ctx, q: int, om: Fraction, extra_pow2: int = 0):
    """The sign of ||q beta - g'|| - 2^extra_pow2 q^-om, or None: a
    pow-compare for s <= 64, else -log2 of the distance window against
    om log2 q along the ladder, where the upper end alone can put a window
    that touches 0 below the wall."""
    p, s = om.numerator, om.denominator
    coeffs = ctx._coeffs(q)
    if s <= 64:
        thr = Fraction(2 ** (extra_pow2 * s), q ** p) if extra_pow2 >= 0 \
            else Fraction(1, q ** p * 2 ** (-extra_pow2 * s))
        c = dist_pow_compare(ctx.fe, coeffs, s, thr)
        if c == Comparison.UNDECIDED:
            return None
        return {Comparison.LT: -1, Comparison.EQ: 0, Comparison.GT: 1}[c]
    lgq = log2_enclosure(q, 96)
    rhs = Enclosure(lgq.lo * om, lgq.hi * om) - Fraction(extra_pow2)
    for bits in precision_ladder(128, ctx.cap):
        d = fibre_dist(ctx, q, bits)
        if d.lo <= 0 and ctx.dist_is_zero(q):
            return -1
        if d.lo > 0 and neg_log2_enclosure(d, 96).hi < rhs.lo:
            return 1
        if d.hi > 0 and neg_log2_enclosure(Enclosure.exact(d.hi), 96).lo > rhs.hi:
            return -1
    return None


def fibre_level(ctx, q: int):
    """FibreContext.cell_of by wall comparisons: -1 outside the support,
    else the first l >= 0 whose upper wall 2^(l+1) q^-om lies above the
    distance; None as soon as a wall is undecided."""
    om = ctx.pp.omega_at(q)
    c = dist_vs_power(ctx, q, om)
    if c is None:
        return None
    if c < 0:
        return -1
    l = 0
    while True:
        c = dist_vs_power(ctx, q, om, l + 1)
        if c is None:
            return None
        if c < 0:
            return l
        l += 1


def fibre_support(ctx, q: int):
    """FibreContext.support_state from the lower wall alone."""
    c = dist_vs_power(ctx, q, ctx.pp.omega_at(q))
    return "UNDECIDED" if c is None else "IN" if c >= 0 else "OUT"
