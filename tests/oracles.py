"""Test-side helpers: checks that only the tests call, the `Fraction`
reference route of the integer-window kernels, and the wall-comparison
route of the fibre level.

The reference functions build, normalise and compare a `Fraction` per
term, as the library did before its hot loops ran on integer windows.
They are slow and independent of that rewrite, so the tests hold the
library to them value for value."""

import math
from collections import namedtuple
from fractions import Fraction

import numpy as np

from mdl.cfrac import _exponent_enclosure
from mdl.circlesets import (
    CircleSet,
    PsiRangeError,
    _gamma_pin,
    _psi_lookup,
    aq_pair_measure_raw,
)
from mdl.gallagher import _FAMILY_EXPONENTS, HALF
from mdl.realnum import (
    DEFAULT_PRECISION_CAP,
    CapExceeded,
    Comparison,
    DependenceError,
    Enclosure,
    FormEvaluator,
    _log2_frac_floor,
    log2_enclosure,
    neg_log2_enclosure,
    param_evaluator,
    precision_ladder,
    rational_power,
)


# ---------------------------------------------------------------------------
# Checks that only the tests call
# ---------------------------------------------------------------------------

def eval_checked(psi, q: int, bits: int = 64) -> Enclosure:
    """psi(q), or ValueError when it reaches 1/2."""
    v = psi.eval(q, bits)
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
    return CircleSet.from_arcs(arcs, slack)


def witness_verifies(entry, evaluator) -> bool:
    """Re-evaluate a SigmaEntry's witness and check it reproduces the
    exponent."""
    dist = evaluator.dist_enclosure(entry.witness)
    height = max(abs(k) for k in entry.witness)
    expo = _exponent_enclosure(dist, height)
    return expo.overlaps(entry.value)


def pair_measure(fam, q: int, qp: int) -> Enclosure:
    """|A_q intersect A_q'| of an AqFamily as an enclosure."""
    lo, hi, CD = fam.pair_raw(q, qp)
    return Enclosure(Fraction(lo, CD), Fraction(hi, CD))


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


def log2_table_fraction(table_bits: int) -> tuple:
    """`arith._log2_table` from an Enclosure per entry."""
    size = 1 << table_bits
    lo = np.zeros(size + 1, dtype=np.float64)
    hi = np.zeros(size + 1, dtype=np.float64)
    for i in range(size + 1):
        e = log2_enclosure((1 << table_bits) + i, 40)
        lo[i] = float(e.lo) - table_bits
        hi[i] = float(e.hi) - table_bits
    return lo, hi


def dist_positive(fe, coeffs, cap: int) -> Enclosure:
    """||form|| as an enclosure with a positive lower end, by the ladder."""
    witness = tuple(-k for k in coeffs) if coeffs[0] < 0 else tuple(coeffs)
    if fe.dist_is_zero_exact(coeffs):
        raise DependenceError(witness)
    for bits in precision_ladder(fe.bits, cap):
        e = fe.dist_enclosure(coeffs, bits)
        if e.lo > 0:
            return e
    raise DependenceError(witness)


def etk_shells_1d(fe, Hmax: int, cap: int) -> list:
    shells = []
    for h in range(1, Hmax + 1):
        d = dist_positive(fe, (h,), cap)
        term = Fraction(8, h + 1) * d.reciprocal()
        shells.append(term.quantize(96))
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
        acc = (acc + shell).quantize(96)
        out.append(Fraction(9 * N, H) + acc * Fraction(9, 1))
    return out


def neg_log2_fraction(x: Enclosure, bits: int) -> Enclosure:
    """-log2 of a positive rational interval from log2 of num and den."""
    def neg_log2(fr: Fraction, round_up: bool) -> Fraction:
        lq = log2_fraction(fr.denominator, bits)
        lp = log2_fraction(fr.numerator, bits)
        return lq.hi - lp.lo if round_up else lq.lo - lp.hi

    return Enclosure(neg_log2(x.hi, False), neg_log2(x.lo, True))


def psi_eval(psi, q: int, bits: int = 64) -> Enclosure:
    """psi(q) by Enclosure arithmetic, quantized once for the formula
    families that take logarithms."""
    if psi.tag not in ("ev", "mono2", "log2sq"):
        return psi.eval(q, bits)
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
    return (Enclosure.exact(psi.c) / den).quantize(96)


def fibre_dist(ctx, q: int, bits=None) -> Enclosure:
    """||q beta - g'|| of a FibreContext as an enclosure at `bits`."""
    return ctx.fe.dist_enclosure(ctx._coeffs(q), bits)


def psi_prime_value(ctx, q: int) -> Enclosure:
    """psi'(q) on the support, by Enclosure division at each rung."""
    psi_v = psi_eval(ctx.pp.psi, q)
    for bits in precision_ladder(128, ctx.cap):
        d = fibre_dist(ctx, q, bits)
        if d.lo > 0:
            return (psi_v / d).quantize(128)
    raise DependenceError((q,), "distance cannot be separated from 0")


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
# The comparison route of the fibre level
# ---------------------------------------------------------------------------

def dist_pow_compare(fe, coeffs, s: int, threshold) -> Comparison:
    """Decide ||form||^s <=> threshold (rational), s >= 1."""
    t = Fraction(threshold)
    tn, td = t.numerator, t.denominator

    def verdict(lo, hi, scale):
        # cross-multiplied: (hi/scale)^s < t  <=>  hi^s td < tn scale^s
        ts = tn * scale ** s
        if hi ** s * td < ts:
            return Comparison.LT
        if lo ** s * td > ts:
            return Comparison.GT
        return Comparison.EQ if lo == hi else None

    answer = fe._dist_decide(coeffs, 0, verdict)
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
