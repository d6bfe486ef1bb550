"""Exact algebra of arc systems on the circle [0, 1) and the two-case
intersection bound for pairs of them.

An approximation set here is the union over j = 0..q-1 of arcs of radius
psi(q)/q centered at ({gamma} + j)/q; its measure is exactly 2*psi(q).  For
irrational gamma the arc endpoints are irrational, so a set stores certified
rational endpoint midpoints together with a slack bound, and every reported
measure carries rigorous error bars derived from that slack.

Pairwise intersections are computed by a center-difference argument: the
multiset of circle distances between arc centers of A_q and A_q' is an
arithmetic progression with gap gcd/(q q') traversed with multiplicity gcd,
so only the O(Delta/gcd) terms near the overlap window contribute.  The
generic sweep intersection remains available as the independent slow route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .realnum import (
    DEFAULT_PRECISION_CAP,
    Comparison,
    Enclosure,
    FormEvaluator,
    RealParam,
    precision_ladder,
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
    if len(merged) >= 2 and merged[0][0] == 0 and merged[-1][1] == 1:
        pass  # split representation at 0 is the canonical one; keep both
    return tuple(merged)


@dataclass(frozen=True)
class CircleSet:
    """Canonical finite union of closed arcs of [0, 1) with rational
    endpoints; `slack` bounds how far any stored endpoint may sit from the
    true (possibly irrational) one."""

    arcs: tuple
    slack: Fraction = Fraction(0)

    @staticmethod
    def from_arcs(arcs, slack: RationalLike = 0) -> "CircleSet":
        return CircleSet(_canonicalize(arcs), Fraction(slack))

    @staticmethod
    def empty() -> "CircleSet":
        return CircleSet((), Fraction(0))

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

    @staticmethod
    def from_endpoint_pairs(pairs, slack: RationalLike = 0) -> "CircleSet":
        if len(pairs) % 2 != 0:
            raise ValueError("endpoint list must pair up")
        arcs = []
        for i in range(0, len(pairs), 2):
            a = Fraction(pairs[i][0], pairs[i][1])
            b = Fraction(pairs[i + 1][0], pairs[i + 1][1])
            arcs.append((a, b))
        return CircleSet.from_arcs(arcs, slack)


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


def union(s: CircleSet, t: CircleSet) -> CircleSet:
    return CircleSet(_canonicalize(list(s.arcs) + list(t.arcs)),
                     s.slack + t.slack)


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
# Structured pair intersection (windowed, exact)
# ---------------------------------------------------------------------------

def _lcm(a: int, b: int) -> int:
    return a // math.gcd(a, b) * b


def aq_pair_measure_raw(rho: Enclosure, rhop: Enclosure, q: int, qp: int,
                        g: Fraction, gslack: Fraction):
    """Integer core of the pair intersection: returns (lo_num, hi_num, CD)
    with |A_q intersect A_q'| in [lo_num/CD, hi_num/CD].

    Center differences take the values (g(q'-q) + m*gcd)/(q q'), each with
    multiplicity gcd; a term at circle distance d contributes
    overlap(d) + overlap(1-d), each overlap = max(0, min(2rho, 2rho',
    rho+rho'-d)).  Both the near and the antipodal window are enumerated (the
    latter is empty unless rho+rho' > 1/2).  Everything runs on one per-pair
    integer grid CD; sweeps accumulate the raw numerators directly.
    """
    r = math.gcd(q, qp)
    qq = q * qp
    nst = qq // r

    gn, gd = g.numerator, g.denominator
    S = qq * gd                         # delta_m * S = gn(qp-q) + m*r*gd
    base = gn * (qp - q)
    step = r * gd

    # one integer grid carrying S and every rational length exactly
    CD = S
    for v in (rho.lo, rho.hi, rhop.lo, rhop.hi):
        CD = _lcm(CD, v.denominator)
    mul = CD // S
    tr_lo = 2 * rho.lo.numerator * (CD // rho.lo.denominator)
    tr_hi = 2 * rho.hi.numerator * (CD // rho.hi.denominator)
    trp_lo = 2 * rhop.lo.numerator * (CD // rhop.lo.denominator)
    trp_hi = 2 * rhop.hi.numerator * (CD // rhop.hi.denominator)
    R_lo_i = (tr_lo + trp_lo) // 2
    R_hi_i = (tr_hi + trp_hi) // 2
    if gslack:
        num = abs(qp - q) * gslack.numerator * CD
        den = gslack.denominator * qq
        gerr_i = -(-num // den)      # ceil: error bounds round outward
    else:
        gerr_i = 0
    reach = R_hi_i + gerr_i

    # windows in m around d = 0 and (if reachable) d = 1/2
    W = reach // (step * mul) + 2
    far = 2 * reach >= CD
    if 2 * (2 * W + 3) >= nst:
        mms = range(nst)
    else:
        m0 = (-2 * base + step) // (2 * step)   # round(-base/step)
        mms = range(m0 - W, m0 + W + 1)
        if far:
            mh = (S - 2 * base + step) // (2 * step)
            seen = set(mms)
            mms = list(mms) + [m for m in range(mh - W, mh + W + 1)
                               if m not in seen]

    lo_tot = 0
    hi_tot = 0
    for m in mms:
        u = (base + m * step) % S
        if 2 * u > S:
            u = S - u
        d_i = u * mul
        d_lo = d_i - gerr_i
        d_hi = d_i + gerr_i
        if d_lo <= R_hi_i:
            v = R_lo_i - d_hi
            if v > 0:
                if v > tr_lo:
                    v = tr_lo
                if v > trp_lo:
                    v = trp_lo
                lo_tot += v
            v = R_hi_i - (d_lo if d_lo > 0 else 0)
            if v > 0:
                if v > tr_hi:
                    v = tr_hi
                if v > trp_hi:
                    v = trp_hi
                hi_tot += v
        if far:
            v = R_lo_i - (CD - d_lo)
            if v > 0:
                if v > tr_lo:
                    v = tr_lo
                if v > trp_lo:
                    v = trp_lo
                lo_tot += v
            v = R_hi_i - (CD - d_hi)
            if v > 0:
                if v > tr_hi:
                    v = tr_hi
                if v > trp_hi:
                    v = trp_hi
                hi_tot += v
    # clamp into [0, min(full arc masses, 1)]
    lo_i = r * lo_tot
    hi_i = r * hi_tot
    cap_i = min(tr_hi * q, trp_hi * qp, CD)
    if hi_i > cap_i:
        hi_i = cap_i
    if lo_i > cap_i:
        lo_i = cap_i
    if lo_i < 0:
        lo_i = 0
    return lo_i, hi_i, CD


def aq_pair_measure(rho: Enclosure, rhop: Enclosure, q: int, qp: int,
                    g: Fraction, gslack: Fraction) -> Enclosure:
    """Rigorous |A_q intersect A_q'|; see aq_pair_measure_raw."""
    lo_i, hi_i, CD = aq_pair_measure_raw(rho, rhop, q, qp, g, gslack)
    return Enclosure(Fraction(lo_i, CD), Fraction(hi_i, CD))


def _psi_lookup(psi, q: int) -> Enclosure:
    """Normalize the accepted psi forms (callable, mapping, constant)."""
    if callable(psi):
        v = psi(q)
    elif hasattr(psi, "__getitem__"):
        v = psi[q]
    else:
        v = psi
    if isinstance(v, Enclosure):
        return v
    return Enclosure.exact(Fraction(v))


class AqFamily:
    """Shared context for sweeps over many A_q with one gamma."""

    def __init__(self, psi, gamma, bits: int = 64):
        self.psi = psi
        self.g, self.gslack = _gamma_grid(gamma, bits)

    def radius(self, q: int) -> Enclosure:
        return _psi_lookup(self.psi, q) * Fraction(1, q)

    def pair_measure(self, q: int, qp: int) -> Enclosure:
        return aq_pair_measure(self.radius(q), self.radius(qp), q, qp,
                               self.g, self.gslack)


def pair_sum(psi, gamma, Q: int, bits: int = 64) -> Enclosure:
    """Exact sum over 1 <= q' < q <= Q of |A_q intersect A_q'|.

    Exact-rational accumulation when gamma is rational; otherwise the per
    pair enclosures are accumulated outward on the 2^-192 grid (the grid
    error, ~Q^2 * 2^-192, is folded into the reported bars).
    """
    if Q < 2:
        raise ValueError("Q must be >= 2")
    fam = AqFamily(psi, gamma, bits=bits)
    radii = {q: fam.radius(q) for q in range(1, Q + 1)}
    if fam.gslack == 0 and all(radii[q].is_exact for q in radii):
        total = Fraction(0)
        for q in range(2, Q + 1):
            for qp in range(1, q):
                lo_i, _, CD = aq_pair_measure_raw(radii[q], radii[qp], q, qp,
                                                  fam.g, fam.gslack)
                total += Fraction(lo_i, CD)
        return Enclosure(total, total)
    shift = 192
    scale = 1 << shift
    lo_acc = 0
    hi_acc = 0
    for q in range(2, Q + 1):
        rq = radii[q]
        for qp in range(1, q):
            lo_i, hi_i, CD = aq_pair_measure_raw(rq, radii[qp], q, qp,
                                                 fam.g, fam.gslack)
            lo_acc += (lo_i * scale) // CD
            hi_acc += -((-hi_i * scale) // CD)
    return Enclosure(Fraction(max(lo_acc, 0), scale), Fraction(hi_acc, scale))


# ---------------------------------------------------------------------------
# The two-case intersection bound
# ---------------------------------------------------------------------------

@dataclass
class IntersectionReport:
    q: int
    qp: int
    gcd: int
    delta: Fraction                 # q psi(q') + q' psi(q)
    case: str                       # "I" (Delta < H gcd) or "II"
    indicator: Optional[int]        # case I only; None when undecided
    measure: Enclosure
    bound: Fraction
    verdict: Optional[bool]         # None when undecided at the cap
    min_C0: Optional[Fraction] = None  # case II: smallest constant that works

    @property
    def holds(self) -> bool:
        return bool(self.verdict)


def master_check(psi, gamma, q: int, qp: int, H: int = 3,
                 C0: RationalLike = 2, bits: int = 64,
                 cap: int = DEFAULT_PRECISION_CAP) -> IntersectionReport:
    """Check |A_q intersect A_q'| against the two-case bound.

    Case I (Delta < H gcd): bound = 2(2H+1) min(psi(q)/q, psi(q')/q') gcd
    times the indicator of {gamma (q'-q)/gcd} landing in the closed ball of
    radius Delta/gcd.  Case II: bound = 4(1 + C0/(2H)) psi(q) psi(q').
    The indicator is decided rigorously; precision escalates until the
    measure bars clear the bound or the cap is hit.
    """
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
        m = (qp - q) // r
        if isinstance(gamma, RealParam) and gamma.is_irrational:
            fe = FormEvaluator([gamma], 0, cap=cap)
            cmpres = fe.dist_compare([m], Fraction(delta, r))
        else:
            gv = gamma.value if isinstance(gamma, RealParam) else Fraction(gamma)
            x = gv * m
            dist = abs(x - round(x))
            cmpres = (Comparison.LT if dist < Fraction(delta, r)
                      else Comparison.GT if dist > Fraction(delta, r)
                      else Comparison.EQ)
        if cmpres == Comparison.UNDECIDED:
            return IntersectionReport(q, qp, r, delta, case, None,
                                      Enclosure(Fraction(0), Fraction(1)),
                                      Fraction(0), None)
        indicator = 1 if cmpres in (Comparison.LT, Comparison.EQ) else 0
        bound = (2 * (2 * H + 1) * min(pq / q, pqp / qp) * r) * indicator
    else:
        bound = 4 * (1 + C0 / (2 * H)) * pq * pqp

    for b in precision_ladder(bits, cap):
        meas = AqFamily(psi, gamma, bits=b).pair_measure(q, qp)
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
    return IntersectionReport(q, qp, r, delta, case, indicator, meas,
                              bound, verdict, min_C0)
