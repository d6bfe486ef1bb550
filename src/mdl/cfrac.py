"""Continued fractions, best approximations, and truncated Diophantine exponents.

The sigma functions measure, up to a height cutoff N, the best exponent s
for which ||k1*g + k2*b|| >= max(|k1|,|k2|)^(-s) holds at all heights up to
N; they are the finite, computable face of Liouville/Diophantine-type
conditions and feed the discrepancy bounds downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .realnum import (
    DEFAULT_PRECISION_CAP,
    CapExceeded,
    DependenceError,
    Enclosure,
    FormEvaluator,
    RealParam,
    log2_enclosure,
    neg_log2_enclosure,
    normalize_witness,
    precision_ladder,
)


@dataclass(frozen=True)
class CFExpansion:
    """Partial quotients a0; a1, a2, ... with their convergents p_k/q_k."""

    quotients: tuple          # (a0, a1, ..., an)
    convergents: tuple        # ((p0, q0), ..., (pn, qn))
    terminated: bool = False  # rational input exhausted before the cutoff

    def __post_init__(self):
        ps = self.convergents
        for k in range(1, len(ps)):
            p1, q1 = ps[k]
            p0, q0 = ps[k - 1]
            det = p1 * q0 - p0 * q1
            if det != (-1) ** (k - 1):
                raise AssertionError(f"convergent determinant broken at k={k}")
            if math.gcd(p1, q1) != 1:
                raise AssertionError(f"convergent {p1}/{q1} not reduced")


def _convergents_of(quotients) -> tuple:
    p0, q0 = 1, 0
    p1, q1 = quotients[0], 1
    out = [(p1, q1)]
    for a in quotients[1:]:
        p0, p1 = p1, a * p1 + p0
        q0, q1 = q1, a * q1 + q0
        out.append((p1, q1))
    return tuple(out)


def expand(alpha: RealParam, terms: int,
           cap: int = DEFAULT_PRECISION_CAP) -> CFExpansion:
    """First `terms` partial quotients after a0, each certified by enclosure
    separation (rational input terminates exactly)."""
    if terms < 0:
        raise ValueError("terms must be >= 0")
    if alpha.is_rational:
        quotients = []
        num, den = alpha.value.numerator, alpha.value.denominator
        a = num // den
        quotients.append(a)
        num, den = den, num - a * den
        while den != 0 and len(quotients) <= terms:
            a = num // den
            quotients.append(a)
            num, den = den, num - a * den
        return CFExpansion(tuple(quotients), _convergents_of(quotients),
                           terminated=(den == 0 or num == 0))
    if alpha.is_decimal:
        raise ValueError("decimal literals have no certified continued fraction")
    for bits in precision_ladder(128, cap):
        e = alpha.enclosure(bits)
        lo, hi = e.lo, e.hi
        quotients = []
        ok = True
        for _ in range(terms + 1):
            flo, fhi = math.floor(lo), math.floor(hi)
            if flo != fhi:
                ok = False
                break
            quotients.append(flo)
            lo, hi = lo - flo, hi - flo
            if lo <= 0:     # cannot certify the next reciprocal
                ok = False
                break
            lo, hi = 1 / hi, 1 / lo
        if ok:
            return CFExpansion(tuple(quotients), _convergents_of(quotients))
    raise CapExceeded(f"continued fraction of {alpha} needs more than {cap} "
                      f"bits for {terms} quotients")


def min_dist(alpha: RealParam, N: int, cap: int = DEFAULT_PRECISION_CAP):
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
    fe = FormEvaluator([alpha], 0, cap=cap)
    return fe.dist_enclosure([best_q]), best_q


@dataclass
class SigmaEntry:
    """One height-N row of a Diophantine profile."""

    N: int
    value: Enclosure
    witness: tuple  # (n,) for a single parameter, (k1, k2) for a pair


def _exponent_enclosure(dist: Enclosure, height: int, bits: int = 96) -> Enclosure:
    """-log2(dist) / log2(height) with outward rounding."""
    if dist.lo <= 0:
        raise ValueError("exponent undefined on a distance window touching 0")
    neg_log = neg_log2_enclosure(dist, bits)
    lh = log2_enclosure(height, bits)
    return Enclosure(neg_log.lo / lh.hi, neg_log.hi / lh.lo)


def _best_candidate(cands, fe: FormEvaluator, cap: int):
    """Max of exponent candidates with a float prefilter and rigorous
    confirmation; ties broken by lexicographic witness.  Candidates still
    tied at the cap return the hull of their enclosures, which holds the
    maximum whichever of them attains it."""
    scored = []
    # DependenceError also catches non-syntactic dependences such as
    # 2*sqrt2 - sqrt8, whose distance never separates from 0
    for coeffs, (_, hi, b) in zip(cands, fe.positive_windows(cands)):
        height = max(abs(k) for k in coeffs)
        approx = -(math.log2(hi) - b) / math.log2(height)
        scored.append((approx, coeffs))
    scored.sort(key=lambda t: (-t[0], t[1]))
    best = scored[0]
    # rigorously confirm the winner against close runners-up
    best_enc = _exponent_enclosure(fe.dist_enclosure(best[1]), max(map(abs, best[1])))
    tied = None     # hull of the enclosures of candidates tied at the cap
    for approx, coeffs in scored[1:]:
        if approx < best[0] - 1e-6:
            break
        for bits in precision_ladder(96, cap):
            other = _exponent_enclosure(fe.dist_enclosure(coeffs, bits),
                                        max(map(abs, coeffs)), bits=bits)
            cur = _exponent_enclosure(fe.dist_enclosure(best[1], bits),
                                      max(map(abs, best[1])), bits=bits)
            if other.hi < cur.lo:
                break
            if other.lo > cur.hi:
                best = (approx, coeffs)
                best_enc = other if tied is None else _hull(tied, other)
                break
        else:  # numerically tied at the cap; keep lexicographic winner
            tied = best_enc = _hull(best_enc, other)
            if coeffs < best[1]:
                best = (approx, coeffs)
    return best_enc, best[1]


def _hull(a: Enclosure, b: Enclosure) -> Enclosure:
    return Enclosure(min(a.lo, b.lo), max(a.hi, b.hi))


def sigma_single(gamma: RealParam, N: int, cap: int = DEFAULT_PRECISION_CAP,
                 allow_decimal: bool = False) -> SigmaEntry:
    """sigma_gamma(N) = max over 2 <= n <= N of -log2||n*gamma|| / log2 n.

    Heights below 2 are excluded: log2(1) = 0 leaves the exponent undefined
    and the defining inequality is vacuous there.
    """
    if N < 2:
        raise ValueError("N must be >= 2")
    if gamma.is_rational:
        raise ValueError("sigma is not well defined for rational parameters")
    if gamma.is_decimal and not allow_decimal:
        raise ValueError("decimal literal is secretly rational; sigma needs "
                         "a certified irrational (allow_decimal=True to override)")
    fe = FormEvaluator([gamma], 0, cap=cap)
    enc, witness = _best_candidate([(n,) for n in range(2, N + 1)], fe, cap)
    return SigmaEntry(N, enc, witness)


def sigma_pair(gamma: RealParam, beta: RealParam, N: int,
               cap: int = DEFAULT_PRECISION_CAP,
               allow_decimal: bool = False) -> SigmaEntry:
    """sigma_(gamma,beta)(N): max over pairs with max(|k1|,|k2|) in [2, N],
    not both zero, of -log2||k1*g + k2*b|| / log2 max(|k1|,|k2|).

    Raises DependenceError when some ||k1*g + k2*b|| is exactly 0 (detected
    syntactically, e.g. gamma == beta at (1,-1)).
    """
    if N < 2:
        raise ValueError("N must be >= 2")
    for p in (gamma, beta):
        if p.is_rational:
            raise ValueError("sigma is not well defined for rational parameters")
        if p.is_decimal and not allow_decimal:
            raise ValueError("decimal literal is secretly rational; sigma needs "
                             "certified irrationals (allow_decimal=True to override)")
    fe = FormEvaluator([gamma, beta], 0, cap=cap)
    # syntactic dependence first: k1 gamma + k2 beta collapses only when
    # both share one group, and then exactly when k1 + k2 = 0, so the first
    # collapsing vector of the scan k2 = 1.., k1 = -N..N is (-1, 1)
    if fe.dist_is_zero_exact((-1, 1)):
        raise DependenceError(normalize_witness((-1, 1)))
    cands = []
    # (k1,k2) and (-k1,-k2) share a distance: scan k2 > 0 plus the k2 = 0 axis
    for k2 in range(1, N + 1):
        for k1 in range(-N, N + 1):
            if max(abs(k1), k2) >= 2:
                cands.append((k1, k2))
    for k1 in range(2, N + 1):
        cands.append((k1, 0))
    enc, witness = _best_candidate(cands, fe, cap)
    return SigmaEntry(N, enc, normalize_witness(witness))


# ---------------------------------------------------------------------------
# omega schedules
# ---------------------------------------------------------------------------

_OMEGA_GRID_BITS = 32


def _log2log2_le_1(q: int) -> bool:
    # log2 log2 q <= 1  <=>  log2 q <= 2  <=>  q <= 4 (q >= 1)
    return q <= 4


def omega_schedule(q: int, c: Fraction,
                   cap: int = DEFAULT_PRECISION_CAP) -> Fraction:
    """Shrinking-exponent schedule: 1 while log2 log2 q <= 1, then
    c / (log2 log2 log2 q)^(1/2), rounded down onto the 2^-32 grid.

    Rounding down only shrinks the support [q^-omega, 1) it gates, which is
    the safe direction for a truncation.
    """
    c = Fraction(c)
    if q < 1 or c <= 0:
        raise ValueError("need q >= 1 and c > 0")
    if _log2log2_le_1(q):
        return Fraction(1)
    return _round_down_inv_sqrt(_loglog_enclosure(q, levels=3), c)


def omega_schedule_lemma3(q: int, c: Fraction,
                          cap: int = DEFAULT_PRECISION_CAP) -> Fraction:
    """Companion schedule c / (log2 log2 q)^(1/2) used by the counting lemma
    with sigma(q) = O((log2 log2 q)^(1/2)); 1 on the degenerate head."""
    c = Fraction(c)
    if q < 1 or c <= 0:
        raise ValueError("need q >= 1 and c > 0")
    if q <= 4:  # log2 log2 q <= 1 -> schedule value would exceed c
        return Fraction(1)
    return _round_down_inv_sqrt(_loglog_enclosure(q, levels=2), c)


def _loglog_enclosure(q: int, levels: int, bits: int = 64) -> Enclosure:
    """Iterated base-2 log of an integer, `levels` deep, as an enclosure."""
    e = log2_enclosure(q, bits)
    for _ in range(levels - 1):
        if e.lo <= 0:
            raise ValueError("iterated log not positive")
        e = Enclosure(_log2_frac_lo(e.lo, bits), _log2_frac_hi(e.hi, bits))
    return e


def _log2_frac_lo(x: Fraction, bits: int) -> Fraction:
    lp = log2_enclosure(x.numerator, bits)
    lq = log2_enclosure(x.denominator, bits)
    return lp.lo - lq.hi


def _log2_frac_hi(x: Fraction, bits: int) -> Fraction:
    lp = log2_enclosure(x.numerator, bits)
    lq = log2_enclosure(x.denominator, bits)
    return lp.hi - lq.lo


def _round_down_inv_sqrt(e: Enclosure, c: Fraction) -> Fraction:
    """floor(c / sqrt(e) * 2^32) / 2^32, rigorous via the upper end of e."""
    if e.lo <= 0:
        raise ValueError("schedule argument not positive")
    scale = 1 << _OMEGA_GRID_BITS
    # c/sqrt(hi) <= value; floor of a certified lower bound
    hi = e.hi
    num = c.numerator * scale
    # lower bound of 1/sqrt(hi): isqrt on scaled integers
    k = math.isqrt((hi.denominator * num * num) // (hi.numerator * c.denominator ** 2))
    return Fraction(k, scale)
