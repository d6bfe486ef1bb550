"""Exact algebra of arc systems on the circle [0, 1) and the two-case
intersection bound for pairs of them.

An approximation set here is the union over j = 0..q-1 of arcs of radius
psi(q)/q centered at ({gamma} + j)/q; its measure is exactly 2*psi(q).  For
irrational gamma the arc endpoints are irrational, so a set stores certified
rational endpoint midpoints together with a slack bound, and every reported
measure carries rigorous error bars derived from that slack.

Pairwise intersections have one kernel.  `AqFamily` is built once per
radius table and gamma pin: it looks psi up once per q, pins gamma once,
classifies each A_q as empty, full, possibly full or a proper arc system,
and keeps the proper radii as integers.  `aq_pair_measure_raw` then measures
a pair on one integer grid by a center-difference argument: the multiset of
circle distances between arc centers of A_q and A_q' is an arithmetic
progression with gap gcd/(q q') traversed with multiplicity gcd, and an
overlap is a clipped linear function of the distance, so a pair costs a
fixed number of big-integer operations.  `AqFamily.row` reads the family
once per row and calls the kernel directly on each pair of proper arc
systems, and a pair with no gamma slack and exact radii (every exact-mode
pair) computes each clip sum once for both bounds.  `gallagher.bc_ratio`,
`pair_sum` and `master_check` all measure through it.  The generic sweep
intersection, the independent slow route, lives in the tests as
`oracles.intersect`.

`master_check` stays on integers too: it reads psi(q) and psi(q') as
numerator/denominator pairs, decides the case, the bound and each ladder
rung's verdict by cross-multiplying, and its `IntersectionReport` builds
delta, the bound, the measure and the minimal C0 as Fractions only when
they are read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Union

from .realnum import (
    DEFAULT_PRECISION_CAP,
    Enclosure,
    RealParam,
    param_evaluator,
    precision_ladder,
    round_outward,
)

RationalLike = Union[int, Fraction]


class PsiRangeError(ValueError):
    """psi(q) outside the open interval (0, 1/2)."""


# ---------------------------------------------------------------------------
# CircleSet
# ---------------------------------------------------------------------------

def _canonicalize(arcs) -> tuple:
    """Sort, clip to [0,1] splitting wrap-around at 0, merge touching arcs."""
    flat = []
    for a, b in arcs:
        a, b = Fraction(a), Fraction(b)
        if b <= a:
            continue
        if b - a >= 1:
            return ((Fraction(0), Fraction(1)),)
        shift = math.floor(a)
        a, b = a - shift, b - shift
        if b <= 1:
            flat.append((a, b))
        else:  # wraps past 1: split at the origin
            flat.append((a, Fraction(1)))
            flat.append((Fraction(0), b - 1))
    flat.sort()
    merged = []
    for a, b in flat:
        if merged and a <= merged[-1][1]:
            if b > merged[-1][1]:
                merged[-1] = (merged[-1][0], b)
        else:
            merged.append((a, b))
    return tuple(merged)


@dataclass(frozen=True)
class CircleSet:
    """Canonical finite union of closed arcs of [0, 1) with rational
    endpoints; `slack` bounds how far any stored endpoint may sit from the
    true (possibly irrational) one."""

    arcs: tuple
    slack: Fraction = Fraction(0)

    @staticmethod
    def full() -> "CircleSet":
        return CircleSet(((Fraction(0), Fraction(1)),), Fraction(0))

    @property
    def is_exact(self) -> bool:
        return self.slack == 0

    def measure(self) -> Fraction:
        """Measure of the stored (midpoint) arc system."""
        return sum((b - a for a, b in self.arcs), Fraction(0))

    def measure_bounds(self) -> Enclosure:
        """Rigorous bounds on the measure of the true set."""
        if self.slack == 0:
            m = self.measure()
            return Enclosure(m, m)
        lo = sum((max(Fraction(0), b - a - 2 * self.slack) for a, b in self.arcs),
                 Fraction(0))
        hi = sum((b - a + 2 * self.slack for a, b in self.arcs), Fraction(0))
        return Enclosure(lo, min(hi, Fraction(1)))

    def canonical(self) -> "CircleSet":
        return CircleSet(_canonicalize(self.arcs), self.slack)

    def to_endpoint_pairs(self) -> list:
        """JSON form: flat list of [numerator, denominator] endpoint pairs."""
        out = []
        for a, b in self.arcs:
            out.append([a.numerator, a.denominator])
            out.append([b.numerator, b.denominator])
        return out


def union(*sets: CircleSet) -> CircleSet:
    """The union of `sets`, canonicalized once (the merged form of a union
    of closed arcs is unique, so it is the pairwise fold's); slacks add."""
    return CircleSet(_canonicalize([a for s in sets for a in s.arcs]),
                     sum((s.slack for s in sets), Fraction(0)))


# ---------------------------------------------------------------------------
# Approximation sets A_q
# ---------------------------------------------------------------------------

def _gamma_grid(gamma, bits: int):
    """({gamma} mod 1 as a Fraction, half-width slack) pinned at `bits`."""
    if isinstance(gamma, RealParam):
        if gamma.is_rational:
            return gamma.value % 1, Fraction(0)
        e = gamma.enclosure(bits)
        mid = e.mid % 1
        return mid, e.width / 2
    return Fraction(gamma) % 1, Fraction(0)


def build_Aq(psi_q, gamma, q: int, bits: int = 64) -> CircleSet:
    """The set {x in [0,1): ||q x - gamma|| < psi(q)} as q arcs of radius
    psi_q / q centered at ({gamma} + j)/q.

    psi_q may be a Fraction or an Enclosure (for quotient-type approximation
    functions); endpoint uncertainty goes into the slack.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    if isinstance(psi_q, Enclosure):
        rad_mid = psi_q.mid / q
        rad_slack = psi_q.width / (2 * q)
        lo_ok = psi_q.lo > 0
        hi_ok = psi_q.hi < Fraction(1, 2)
    else:
        psi_q = Fraction(psi_q)
        rad_mid = psi_q / q
        rad_slack = Fraction(0)
        lo_ok = psi_q > 0
        hi_ok = psi_q < Fraction(1, 2)
    if not (lo_ok and hi_ok):
        raise PsiRangeError(f"psi(q)={psi_q} not inside (0, 1/2)")
    g, gslack = _gamma_grid(gamma, bits)
    arcs = []
    for j in range(q):
        c = (g + j) / q
        arcs.append((c - rad_mid, c + rad_mid))
    return CircleSet(_canonicalize(arcs), gslack / q + rad_slack)


# ---------------------------------------------------------------------------
# The pair kernel
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _gamma_pin(gamma, bits: int) -> tuple:
    """(gn, gd, sn, sd): {gamma} = gn/gd within sn/sd, pinned at `bits`."""
    g, slack = _gamma_grid(gamma, bits)
    return g.numerator, g.denominator, slack.numerator, slack.denominator


def _radius(psi_q: Enclosure, q: int) -> tuple:
    """The bounds of psi(q)/q as (lo_num, lo_den, hi_num, hi_den), not
    reduced: a common factor divides q, so the pair grid
    lcm(q q' gd, denominators) of `aq_pair_measure_raw` stays the same."""
    lo, hi = psi_q.lo, psi_q.hi
    return lo.numerator, lo.denominator * q, hi.numerator, hi.denominator * q


def _clip_sum(t0: int, s: int, n: int, c: int) -> int:
    """sum over k = 0..n-1 of max(min(t0 - k s, c), 0), for s > 0."""
    if n <= 0 or t0 <= 0 or c <= 0:
        return 0
    k2 = -(-t0 // s)                  # terms above 0
    if k2 > n:
        k2 = n
    k1 = 0                            # terms at c
    if t0 >= c:
        k1 = (t0 - c) // s + 1
        if k1 > k2:
            k1 = k2
    return (c * k1 + (k2 - k1) * t0
            - s * (k2 * (k2 - 1) - k1 * (k1 - 1)) // 2)


def aq_pair_measure_raw(rho: tuple, rhop: tuple, q: int, qp: int,
                        pin: tuple):
    """Integer core of the pair intersection: returns (lo_num, hi_num, CD)
    with |A_q intersect A_q'| in [lo_num/CD, hi_num/CD], for radius bounds
    rho, rho' given as by `_radius` and gamma pinned as by `_gamma_pin`.

    Center differences take the values (g(q'-q) + m*gcd)/(q q'), each with
    multiplicity gcd; a term at circle distance d contributes
    overlap(d) + overlap(1-d), each overlap = max(0, min(2rho, 2rho',
    rho+rho'-d)).  Folded into [0, 1/2], the distances form two arithmetic
    progressions, and each overlap is a clipped linear function of d, so
    both sums have closed forms.  Everything runs on one per-pair integer
    grid CD that carries gamma's grid and every radius exactly.
    """
    ln, ld, hn, hd = rho
    lnp, ldp, hnp, hdp = rhop
    gn, gd, sn, sd = pin
    r = math.gcd(q, qp)
    qq = q * qp
    nst = qq // r
    S = qq * gd                       # a distance times S is an integer
    step = r * gd
    CD = math.lcm(S, ld, hd, ldp, hdp)
    mul = CD // S
    tr_lo, tr_hi = 2 * ln * (CD // ld), 2 * hn * (CD // hd)
    trp_lo, trp_hi = 2 * lnp * (CD // ldp), 2 * hnp * (CD // hdp)
    c_lo = tr_lo if tr_lo < trp_lo else trp_lo
    c_hi = tr_hi if tr_hi < trp_hi else trp_hi
    # R >= c, so a distance that the slack pushes below 0 still gives c
    R_lo, R_hi = (tr_lo + trp_lo) // 2, (tr_hi + trp_hi) // 2
    # gamma's slack moves every distance by at most gerr (rounded outward)
    gerr = -(-abs(qp - q) * sn * CD // (sd * qq)) if sn else 0
    # no slack and one radius each: the hi sums are the lo sums
    shared = gerr == 0 and R_lo == R_hi and c_lo == c_hi

    # the distances S*d: b0 + k*step while 2 d <= S, then step - b0 + j*step
    b0 = gn * (qp - q) % step
    n1 = (S - 2 * b0) // (2 * step) + 1
    if n1 > nst:
        n1 = nst
    sm = step * mul
    reach = R_hi + gerr
    lo = hi = 0
    for a, n in ((b0 * mul, n1), ((step - b0) * mul, nst - n1)):
        if a < reach:
            v = _clip_sum(R_lo - gerr - a, sm, n, c_lo)
            lo += v
            hi += v if shared else _clip_sum(reach - a, sm, n, c_hi)
        if 2 * reach >= CD:           # the antipodal overlap grows with d
            last = a + (n - 1) * sm
            v = _clip_sum(last - (CD - R_lo + gerr), sm, n, c_lo)
            lo += v
            hi += v if shared else _clip_sum(last - (CD - reach), sm, n, c_hi)
    # clamp into [0, min(full arc masses, 1)]
    cap_i = CD
    if tr_hi * q < cap_i:
        cap_i = tr_hi * q
    if trp_hi * qp < cap_i:
        cap_i = trp_hi * qp
    lo, hi = r * lo, r * hi
    return lo if lo < cap_i else cap_i, hi if hi < cap_i else cap_i, CD


def _psi_lookup(psi, q: int) -> Enclosure:
    """psi(q) from a callable or a mapping, as an enclosure."""
    v = psi(q) if callable(psi) else psi[q]
    return v if isinstance(v, Enclosure) else Enclosure.exact(Fraction(v))


EMPTY, FULL, MAYBE_FULL = "empty", "full", "maybe-full"
SHIFT = 192     # outward sums run on the 2^-SHIFT grid


class AqFamily:
    """The pair kernel for the sets A_q, q <= Q, of one psi and one gamma.

    Built once: psi(q) is looked up once per q, gamma is pinned once at
    `bits`, and each A_q is classified once as empty (psi(q) = 0), full
    (psi(q) >= 1/2), possibly full (its enclosure reaches 1/2) or a proper
    arc system, whose radius bounds are kept as integers for
    `aq_pair_measure_raw`.  Sums of pair measures are exact Fractions when
    gamma and every psi(q) are rational, and otherwise integers on the
    2^-192 grid with each pair rounded outward (`units`, `total`).
    """

    def __init__(self, psi, gamma, Q: int, bits: int = 64):
        self.pin = _gamma_pin(gamma, bits)
        self.psi = {q: _psi_lookup(psi, q) for q in range(1, Q + 1)}
        self.exact = (self.pin[2] == 0
                      and all(v.is_exact for v in self.psi.values()))
        one = Fraction(1)
        self.mass = {q: Enclosure(min(one, 2 * v.lo), min(one, 2 * v.hi))
                     for q, v in self.psi.items()}
        self.kind = {q: EMPTY if v.hi == 0 else FULL if 2 * v.lo >= 1
                     else MAYBE_FULL if 2 * v.hi >= 1 else _radius(v, q)
                     for q, v in self.psi.items()}

    def pair_raw(self, q: int, qp: int) -> tuple:
        """|A_q intersect A_q'| in [lo/CD, hi/CD], as (lo, hi, CD)."""
        a, b = self.kind[q], self.kind[qp]
        if type(a) is tuple and type(b) is tuple:
            return aq_pair_measure_raw(a, b, q, qp, self.pin)
        if a == EMPTY or b == EMPTY:
            return 0, 0, 1
        if a == FULL or b == FULL:
            e = self.mass[qp if a == FULL else q]
        else:
            e = Enclosure(Fraction(0), min(Fraction(1), 2 * min(
                self.psi[q].hi, self.psi[qp].hi)))
        CD = math.lcm(e.lo.denominator, e.hi.denominator)
        return (e.lo.numerator * (CD // e.lo.denominator),
                e.hi.numerator * (CD // e.hi.denominator), CD)

    def units(self, e: Enclosure) -> tuple:
        """A measure as a summand: (lo, lo) in exact mode, else the bounds
        on the 2^-192 grid rounded outward."""
        if self.exact:
            return e.lo, e.lo
        return round_outward(e.lo.numerator, e.lo.denominator,
                             e.hi.numerator, e.hi.denominator, SHIFT)

    def total(self, lo, hi) -> Enclosure:
        """The enclosure of a sum of `units`."""
        if self.exact:
            return Enclosure(Fraction(lo), Fraction(lo))
        return Enclosure(Fraction(max(lo, 0), 1 << SHIFT),
                         Fraction(hi, 1 << SHIFT))

    def row(self, q: int) -> tuple:
        """The sum over q' < q of |A_q intersect A_q'|, in `units`."""
        kind, pin = self.kind, self.pin
        a = kind[q]
        if type(a) is tuple:          # kind is keyed 1..Q in order
            raws = [aq_pair_measure_raw(a, b, q, qp, pin) if type(b) is tuple
                    else self.pair_raw(q, qp)
                    for qp, b in zip(range(1, q), kind.values())]
        else:
            raws = [self.pair_raw(q, qp) for qp in range(1, q)]
        lo = hi = 0
        if self.exact:
            den = 1                   # the sum is lo/den
            for lo_i, _, CD in raws:
                m = math.lcm(den, CD)
                lo, den = lo * (m // den) + lo_i * (m // CD), m
            lo = Fraction(lo, den)    # one reduction per row
            return lo, lo
        for lo_i, hi_i, CD in raws:
            lo += (lo_i << SHIFT) // CD
            hi -= (-hi_i << SHIFT) // CD
        return lo, hi


def pair_sum(psi, gamma, Q: int) -> Enclosure:
    """Exact sum over 1 <= q' < q <= Q of |A_q intersect A_q'|.

    Exact-rational accumulation when gamma is rational; otherwise the per
    pair enclosures are accumulated outward on the 2^-192 grid (the grid
    error, ~Q^2 * 2^-192, is folded into the reported bars).
    """
    if Q < 2:
        raise ValueError("Q must be >= 2")
    fam = AqFamily(psi, gamma, Q)
    lo = hi = 0
    for q in range(2, Q + 1):
        dlo, dhi = fam.row(q)
        lo += dlo
        hi += dhi
    return fam.total(lo, hi)


# ---------------------------------------------------------------------------
# The two-case intersection bound
# ---------------------------------------------------------------------------

@dataclass
class IntersectionReport:
    """One pair checked against the two-case bound.  The rational fields
    are kept as integer pairs and built as Fractions when read."""

    q: int
    qp: int
    gcd: int
    case: str                       # "I" (Delta < H gcd) or "II"
    indicator: Optional[int]        # case I only; None when undecided
    verdict: Optional[bool]         # None when undecided at the cap
    delta_raw: tuple                # q psi(q') + q' psi(q) as (num, den)
    measure_raw: tuple              # (lo, hi, CD): the measure in [lo, hi]/CD
    bound_raw: tuple                # (num, den)
    min_C0_raw: Optional[tuple] = None  # case II: smallest constant that works

    @property
    def delta(self) -> Fraction:
        return Fraction(*self.delta_raw)

    @property
    def measure(self) -> Enclosure:
        lo, hi, CD = self.measure_raw
        return Enclosure(Fraction(lo, CD), Fraction(hi, CD))

    @property
    def bound(self) -> Fraction:
        return Fraction(*self.bound_raw)

    @property
    def min_C0(self) -> Optional[Fraction]:
        return None if self.min_C0_raw is None else Fraction(*self.min_C0_raw)


def master_check(psi, gamma, q: int, qp: int, H: int = 3,
                 C0: RationalLike = 2,
                 cap: int = DEFAULT_PRECISION_CAP) -> IntersectionReport:
    """Check |A_q intersect A_q'| against the two-case bound.

    Case I (Delta < H gcd): bound = 2(2H+1) min(psi(q)/q, psi(q')/q') gcd
    times the indicator of {gamma (q'-q)/gcd} landing in the closed ball of
    radius Delta/gcd.  Case II: bound = 4(1 + C0/(2H)) psi(q) psi(q').
    The indicator is decided rigorously; precision escalates until the
    measure bars clear the bound or the cap is hit.  The case, the bound
    and the verdict are decided on cross-multiplied integers.
    """
    if not (1 <= qp < q):
        raise ValueError("need 1 <= q' < q")
    if not isinstance(H, int) or H < 3:
        raise ValueError("H must be an integer >= 3")
    C0 = Fraction(C0)
    cn, cd = C0.numerator, C0.denominator
    if cn <= cd:
        raise ValueError("C0 must exceed 1")
    psi_q = _psi_lookup(psi, q)
    psi_qp = _psi_lookup(psi, qp)
    for v in (psi_q, psi_qp):
        # 0 < lo and hi < 1/2, on the numerators and denominators
        if not (v.lo.numerator > 0 and 2 * v.hi.numerator < v.hi.denominator):
            raise PsiRangeError(f"psi value {v} not inside (0, 1/2)")
    if not (psi_q.is_exact and psi_qp.is_exact):
        raise ValueError("the two-case bound check needs rational psi values")
    # psi(q) = pn/pd and psi(q') = pnp/pdp, both reduced
    pn, pd = psi_q.lo.numerator, psi_q.lo.denominator
    pnp, pdp = psi_qp.lo.numerator, psi_qp.lo.denominator
    r = math.gcd(q, qp)
    dn, dd = q * pnp * pd + qp * pn * pdp, pd * pdp     # delta = dn/dd

    if dn < H * r * dd:
        case = "I"
        t = Fraction(dn, dd * r)
        inside = param_evaluator(gamma, cap).dist_below(
            ((qp - q) // r,), Enclosure(t, t), closed=True)
        if inside is None:
            return IntersectionReport(q, qp, r, case, None, None, (dn, dd),
                                      (0, 1, 1), (0, 1))
        indicator = int(inside)
        # min(psi(q)/q, psi(q')/q') by cross-multiplying
        if pn * qp * pdp <= pnp * q * pd:
            bn, bd = pn, q * pd
        else:
            bn, bd = pnp, qp * pdp
        bn *= 2 * (2 * H + 1) * r * indicator
    else:
        case, indicator = "II", None
        bn, bd = 4 * (2 * H * cd + cn) * pn * pnp, 2 * H * cd * pd * pdp

    rho, rhop = _radius(psi_q, q), _radius(psi_qp, qp)
    verdict = None
    for b in precision_ladder(64, cap):
        lo_i, hi_i, CD = aq_pair_measure_raw(rho, rhop, q, qp,
                                             _gamma_pin(gamma, b))
        if hi_i * bd <= bn * CD:
            verdict = True
            break
        if lo_i * bd > bn * CD:
            verdict = False
            break

    min_C0 = None
    if case == "II":
        # max(1, 2H (hi/CD - b)/b) for b = 4 psi(q) psi(q'), times pd pdp CD
        base = 4 * pn * pnp * CD
        need = 2 * H * (hi_i * pd * pdp - base)
        min_C0 = (need, base) if need > base else (1, 1)
    return IntersectionReport(q, qp, r, case, indicator, verdict, (dn, dd),
                              (lo_i, hi_i, CD), (bn, bd), min_C0)
