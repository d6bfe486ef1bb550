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

import numpy as np

from .realnum import (
    DEFAULT_PRECISION_CAP,
    CapExceeded,
    DependenceError,
    Enclosure,
    FormEvaluator,
    RealParam,
    form_lane,
    log2_enclosure,
    log2_ratio,
    log2_scaled,
    neg_log2_enclosure,
    normalize_witness,
    param_evaluator,
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


@dataclass
class SigmaEntry:
    """One height-N row of a Diophantine profile."""

    N: int
    value: Enclosure
    witness: tuple  # (n,) for a single parameter, (k1, k2) for a pair


def _exponent(window, coeffs, bits: int = 96):
    """-log2(dist) / log2(height) with outward rounding, for a distance
    window (lo, hi, scale) of the vector `coeffs`; None when it touches 0."""
    lo, hi, scale = window
    if lo <= 0:
        return None
    neg_log = neg_log2_enclosure(Enclosure(Fraction(lo, scale),
                                           Fraction(hi, scale)), bits)
    lh = log2_enclosure(max(map(abs, coeffs)), bits)
    return Enclosure(neg_log.lo / lh.hi, neg_log.hi / lh.lo)


#: `_top_band` keeps exponents within _BAND of the best certified lower
#: bound; `_best_candidate` races runners-up within _RUNNER_UP of its best.
_BAND, _RUNNER_UP = 1e-3, 1e-6


def _top_band(vectors: np.ndarray, fe: FormEvaluator, cap: int) -> np.ndarray:
    """The rows of `vectors`, in scan order, that the exact scan of
    `_best_candidate` can touch, sorted out on the uint64 lane `form_lane`;
    all of them when the lane refuses or the band is not certified.

    The lane's residue M folds to d = min(M, -M), and ||form|| 2^64 lies
    within the margin m of d.

    Kept: every vector whose lane window [d - m, d + m] touches 0 (only
    there can positive_window climb or raise), and every other whose U =
    (64 - log2(d - m)) / log2(height) reaches max L - _BAND, with L = (64 -
    log2(d + m)) / log2(height).  The lane window holds the window whose
    upper end hi gives the scan's exponent e = (b - log2 hi) / log2(height),
    so L <= e <= U.  Each log2 is of a value below 2^B, B = max(cap, bits),
    and each float rounding or libm call is within 4 ulp, so float e, U
    and L are within (B + 64) 2^-46 of the exact ones; `slack` is 16 times
    the four such errors summed below.  Each replacement of the best lowers
    the scan's cutoff by at most _RUNNER_UP, so the j-th runner-up raced
    has e >= e_top - j _RUNNER_UP >= max L - j _RUNNER_UP - slack: kept
    while j _RUNNER_UP + slack < _BAND.  So if (kept + 1) _RUNNER_UP + slack
    < _BAND, every vector raced is kept, by induction on j, and the kept
    ones sort as in the full scan, which therefore races the same ones."""
    M, m = form_lane(fe, vectors)
    if m is None:
        return vectors
    d = np.minimum(M, -M)
    log_h = np.log2(np.maximum.reduce(np.abs(vectors.T)))
    pos = d > m
    upper = (64 - np.log2(np.where(pos, d - m, 1))) / log_h
    top = ((64 - np.log2(d + m)) / log_h)[pos].max(initial=-np.inf)
    keep = ~pos | (upper >= top - _BAND)
    slack = (max(cap, fe.bits) + 64) * 2.0 ** -40
    if (keep.sum() + 1) * _RUNNER_UP + slack >= _BAND:
        return vectors
    return vectors[keep]


def _best_candidate(cands, fe: FormEvaluator, cap: int):
    """Max of exponent candidates, the rows of an int64 array in scan
    order, with a float prefilter and rigorous confirmation on the rows
    `_top_band` keeps; ties broken by lexicographic witness.  Candidates
    still tied at the cap return the hull of their enclosures, which holds
    the maximum whichever of them attains it."""
    vectors = list(map(tuple, _top_band(np.asarray(cands, dtype=np.int64),
                                        fe, cap).tolist()))
    scored = []
    # DependenceError also catches non-syntactic dependences such as
    # 2*sqrt2 - sqrt8, whose distance never separates from 0
    for coeffs in vectors:
        window = fe.dist_window(coeffs)
        if not window[0]:       # touches 0 on the first rung: climb
            window = fe.positive_window(coeffs)
        approx = (math.log2(window[2]) - math.log2(window[1])) \
            / math.log2(max(map(abs, coeffs)))
        scored.append((approx, coeffs, window))
    scored.sort(key=lambda t: (-t[0], t[1]))
    best_approx, best, window = scored[0]
    # from the window positive_window certified, which may lie past fe.bits
    best_enc = _exponent(window, best)
    tied = None     # hull of the enclosures of candidates tied at the cap
    # rigorously confirm the winner against close runners-up
    for approx, coeffs, window in scored[1:]:
        if approx < best_approx - _RUNNER_UP:
            break
        for bits in precision_ladder(96, cap):
            other = _exponent(fe.dist_window(coeffs, bits), coeffs, bits)
            cur = _exponent(fe.dist_window(best, bits), best, bits)
            if other is None or cur is None:
                continue    # a window touching 0 is unresolved: climb
            if other.hi < cur.lo:
                break
            if other.lo > cur.hi:
                best_approx, best = approx, coeffs
                best_enc = other if tied is None else _hull(tied, other)
                break
        else:  # numerically tied at the cap; keep lexicographic winner
            tied = best_enc = _hull(best_enc, other or _exponent(window, coeffs))
            if coeffs < best:
                best_approx, best = approx, coeffs
    return best_enc, best


def _hull(a: Enclosure, b: Enclosure) -> Enclosure:
    return Enclosure(min(a.lo, b.lo), max(a.hi, b.hi))


def _check_sigma_args(N: int, *params: RealParam) -> None:
    if N < 2:
        raise ValueError("N must be >= 2")
    if not all(p.is_irrational for p in params):
        raise ValueError("sigma needs certified irrationals (sqrt:, log2: or "
                         "const:), not rationals or decimal literals")


def sigma_single(gamma: RealParam, N: int,
                 cap: int = DEFAULT_PRECISION_CAP) -> SigmaEntry:
    """sigma_gamma(N) = max over 2 <= n <= N of -log2||n*gamma|| / log2 n.

    Heights below 2 are excluded: log2(1) = 0 leaves the exponent undefined
    and the defining inequality is vacuous there.  A rational or decimal
    gamma raises ValueError: `_best_candidate` drops candidates by their
    lower exponent bounds, sound only on tight windows, and on a decimal's
    wide ones the enclosure can miss sigma(t) for reals t in the radius.
    """
    _check_sigma_args(N, gamma)
    enc, witness = _best_candidate(np.arange(2, N + 1, dtype=np.int64)[:, None],
                                   param_evaluator(gamma, cap), cap)
    return SigmaEntry(N, enc, witness)


def sigma_pair(gamma: RealParam, beta: RealParam, N: int,
               cap: int = DEFAULT_PRECISION_CAP) -> SigmaEntry:
    """sigma_(gamma,beta)(N): max over pairs with max(|k1|,|k2|) in [2, N],
    not both zero, of -log2||k1*g + k2*b|| / log2 max(|k1|,|k2|).

    Every vector goes through the uint64 lane on the 2^-64 grid; only the
    top band near the maximum, and the vectors the lane cannot separate
    from 0, reach the exact windows and the ladder (`_best_candidate`).
    Raises DependenceError, naming the first such vector of the scan, when
    some ||k1*g + k2*b|| is exactly 0 (detected syntactically, e.g. gamma ==
    beta at (1,-1)) or cannot be separated from 0 at the cap (e.g. sqrt 2
    and sqrt 8 at (2,-1)).  Like `sigma_single`, it raises ValueError on a
    rational or decimal parameter.
    """
    _check_sigma_args(N, gamma, beta)
    fe = FormEvaluator([gamma, beta], 0, cap=cap)
    # syntactic dependence first: k1 gamma + k2 beta collapses only when
    # both share one group, and then exactly when k1 + k2 = 0, so the first
    # collapsing vector of the scan k2 = 1.., k1 = -N..N is (-1, 1)
    if fe.dist_is_zero_exact((-1, 1)):
        raise DependenceError(normalize_witness((-1, 1)))
    # (k1,k2) and (-k1,-k2) share a distance: scan k2 > 0 plus the k2 = 0
    # axis, in the order k2 = 1..N, k1 = -N..N, then k1 = 2..N
    k1 = np.tile(np.arange(-N, N + 1, dtype=np.int64), N)
    k2 = np.repeat(np.arange(1, N + 1, dtype=np.int64), 2 * N + 1)
    keep = np.maximum(np.abs(k1), k2) >= 2
    cands = np.stack([np.concatenate([k1[keep], np.arange(2, N + 1)]),
                      np.concatenate([k2[keep], np.zeros(N - 1, np.int64)])]).T
    enc, witness = _best_candidate(cands, fe, cap)
    return SigmaEntry(N, enc, normalize_witness(witness))


# ---------------------------------------------------------------------------
# omega schedules
# ---------------------------------------------------------------------------

_OMEGA_GRID_BITS = 32


def omega_schedule(q: int, c: Fraction) -> Fraction:
    """Shrinking-exponent schedule: 1 while log2 log2 q <= 1, then
    c / (log2 log2 log2 q)^(1/2), rounded down onto the 2^-32 grid.

    Rounding down only shrinks the support [q^-omega, 1) it gates, which is
    the safe direction for a truncation.
    """
    return _omega(q, c, levels=3)


def omega_schedule_lemma3(q: int, c: Fraction) -> Fraction:
    """Companion schedule c / (log2 log2 q)^(1/2) used by the counting lemma
    with sigma(q) = O((log2 log2 q)^(1/2)); 1 on the degenerate head."""
    return _omega(q, c, levels=2)


def _omega(q: int, c: Fraction, levels: int) -> Fraction:
    """c / (the `levels`-deep iterated log2 of q)^(1/2) rounded down onto
    the 2^-32 grid, and 1 while log2 log2 q <= 1, that is q <= 4."""
    c = Fraction(c)
    if q < 1 or c <= 0:
        raise ValueError("need q >= 1 and c > 0")
    if q <= 4:
        return Fraction(1)
    return _round_down_inv_sqrt(_loglog_enclosure(q, levels), c)


def _loglog_enclosure(q: int, levels: int) -> Enclosure:
    """Iterated base-2 log of an integer, `levels` deep, as an enclosure:
    each level takes the log2 of the bounds [lo, hi] / 2^w of the last."""
    lo, hi, w = log2_scaled(q, 64)
    for _ in range(levels - 1):
        if lo <= 0:
            raise ValueError("iterated log not positive")
        lo = log2_ratio(lo, 1 << w, 64)[0]
        hi = log2_ratio(hi, 1 << w, 64)[1]
    return Enclosure.dyadic(lo, hi, w)


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
