"""Experiment layer: approximation functions, the fibre-truncated quotient
function, dyadic censuses, stratified counting sums, divisor-weight moments,
Borel-Cantelli ratios, union measures, and multiplicative hit counting.

The central object is psi'(q) = psi(q) / ||q*beta - g'|| restricted to the
support ||q*beta - g'|| in [q^-omega, 1); everything downstream (censuses,
moment sums, second-moment ratios, Monte-Carlo surveys) consumes it through
one route, `FibreContext.psi_primes`, which returns psi'(q) as a pair of
ints on the 2^-PSI_PRIME_BITS grid for a whole run of q and flags any
membership the precision cap cannot decide; callers that need an
`Enclosure` build it with `Enclosure.dyadic`.  Support and census cell are
read from one number per q, the level floor(log2(||q*beta - g'|| q^omega))
(clamped at -1), which `FibreContext.levels` decides along the run.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, partial
from typing import Optional, Union

import numpy as np

from . import arith
from .cfrac import omega_schedule, omega_schedule_lemma3
from .circlesets import (
    AqFamily,
    build_Aq,
    union as arc_union,
)
from .realnum import (
    DEFAULT_PRECISION_CAP,
    DependenceError,
    Enclosure,
    FormEvaluator,
    RealParam,
    ball_lane,
    exact_sum,
    form_lane,
    frac_to_dist,
    lane_bounds,
    lane_threshold,
    lane_window,
    log2_ratio,
    log2_scaled,
    param_evaluator,
    rational_power,
    round_outward,
)

RationalLike = Union[int, Fraction]

HALF = Fraction(1, 2)
_U64 = 1 << 64
#: psi family values are rounded outward onto the 2^-PSI_BITS grid.
PSI_BITS = 96
#: psi' values are rounded outward onto the 2^-PSI_PRIME_BITS grid.
PSI_PRIME_BITS = 128


# ---------------------------------------------------------------------------
# Approximation functions
# ---------------------------------------------------------------------------

_FAMILY_EXPONENTS = {
    # tag: (a, b, d) in c / (q^a (log2 q)^b (log2 log2 q)^d)
    "const": (0, 0, 0),
    "overq": (1, 0, 0),
    "ev": (1, 1, 2),
    "mono2": (1, 2, Fraction(1, 2)),
    "log2sq": (1, 2, 0),
}


@dataclass(frozen=True)
class ApproxFunction:
    """Radius schedule psi with 0 < psi(q) < 1/2 on q >= q0.

    Formula families: const c; c/q; c/(q log2 q (log2 log2 q)^2);
    c/(q (log2 q)^2 (log2 log2 q)^(1/2)); c/(q (log2 q)^2); or an explicit
    table (which, unlike the formulas, may carry zero entries for excluded
    indices; an index without an entry, past the last one included, has
    psi(q) = 0)."""

    tag: str
    c: Fraction = Fraction(0)
    table: Optional[tuple] = None   # ((q, value), ...) sorted

    @staticmethod
    def const(c: RationalLike) -> "ApproxFunction":
        return ApproxFunction._formula("const", c)

    @staticmethod
    def over_q(c: RationalLike) -> "ApproxFunction":
        return ApproxFunction._formula("overq", c)

    @staticmethod
    def log2sq_shape(c: RationalLike) -> "ApproxFunction":
        return ApproxFunction._formula("log2sq", c)

    @staticmethod
    def _formula(tag: str, c: RationalLike) -> "ApproxFunction":
        c = Fraction(c)
        if c <= 0:
            raise ValueError("formula families need c > 0")
        return ApproxFunction(tag, c)

    @staticmethod
    def from_table(values: dict) -> "ApproxFunction":
        items = tuple(sorted((int(q), Fraction(v)) for q, v in values.items()))
        for q, v in items:
            if not (0 <= v < HALF):
                raise ValueError(f"table value psi({q})={v} outside [0, 1/2)")
        return ApproxFunction("table", table=items)

    @property
    def q0(self) -> int:
        """Smallest index where the formula is defined and psi < 1/2."""
        if self.tag == "table":
            return self.table[0][0] if self.table else 1
        if self.tag == "const":
            if self.c < HALF:
                return 1
            raise ValueError(f"psi = const:{self.c} never drops below 1/2")
        a, b, d = _FAMILY_EXPONENTS[self.tag]
        q = 1
        if b or d:
            q = 2
        if d:
            q = 3   # log2 log2 q must be positive
        while True:
            v = self.eval(q)
            if v.hi < HALF:
                return q
            q += 1
            if q > 10 ** 9:
                raise ValueError("no valid domain start below 1e9")

    @property
    def is_rational(self) -> bool:
        """Whether every value is an exact rational (const, overq, table)."""
        return self.tag in ("const", "overq", "table")

    def eval(self, q: int) -> Enclosure:
        """psi(q) as an enclosure (exact for const/overq/table)."""
        lo, hi, den = self.window(q)
        v = Fraction(lo, den)
        return Enclosure(v, v if hi == lo else Fraction(hi, den))

    def window(self, q: int) -> tuple:
        """(lo, hi, den) with psi(q) in [lo, hi] / den, on ints: lo = hi
        for const/overq/table, den = 2^PSI_BITS for the log families."""
        if q < 1:
            raise ValueError("q must be >= 1")
        if self.tag == "table":
            return self._table_windows.get(q, (0, 0, 1))
        cn, cd = self.c.numerator, self.c.denominator
        if self.tag == "const":
            return cn, cn, cd
        if self.tag == "overq":
            return cn, cn, cd * q
        a, b, d = _FAMILY_EXPONENTS[self.tag]
        if q < (3 if d else 2):
            raise ValueError(f"psi family {self.tag} undefined at q={q}")
        # the denominator q^a lg^b llg^d lies in [den_lo, den_hi] / 2^e
        lg_lo, lg_hi, w = log2_scaled(q, 64)
        den_lo, den_hi, e = q ** a * lg_lo ** b, q ** a * lg_hi ** b, w * b
        if d:
            # llg = log2 lg from the log2 of the bounds of lg on their grid
            ll_lo = log2_ratio(lg_lo, 1 << w, 64)[0]
            ll_hi = log2_ratio(lg_hi, 1 << w, 64)[1]
            if ll_lo <= 0:
                raise ValueError(f"psi family {self.tag} undefined at q={q}")
            if d == HALF:
                # sqrt(llg) on the 2^-64 grid, as rational_power takes it
                ll_lo = math.isqrt((ll_lo << 128) >> w)
                ll_hi = math.isqrt((ll_hi << 128) >> w) + 1
                w, d = 64, 1
            den_lo *= ll_lo ** d
            den_hi *= ll_hi ** d
            e += w * d
        return (*round_outward(cn << e, cd * den_hi, cn << e, cd * den_lo,
                               PSI_BITS), 1 << PSI_BITS)

    @cached_property
    def _table_windows(self) -> dict:
        """q -> (lo, hi, den) of the table's entries, built on first use;
        the cache is not a dataclass field, so equality and hashing ignore
        it."""
        return {q: (v.numerator, v.numerator, v.denominator)
                for q, v in self.table}

    def canonical(self) -> str:
        if self.tag == "table":
            items = ",".join(f"{q}={v}" for q, v in self.table)
            return f"table:{items}"
        return f"{self.tag}:{self.c}"


def parse_psi(text: str) -> ApproxFunction:
    """Grammar: const:1/10, overq:1/4, ev:1, mono2:1, log2sq:1/2,
    table:2=1/8,3=0,5=1/9."""
    kind, _, rest = text.partition(":")
    kind = kind.strip()
    if kind == "table":
        entries = {}
        for item in rest.split(","):
            qtxt, _, vtxt = item.partition("=")
            entries[int(qtxt)] = Fraction(vtxt)
        return ApproxFunction.from_table(entries)
    if kind not in _FAMILY_EXPONENTS:
        raise ValueError(f"unknown psi family {kind!r}")
    return ApproxFunction._formula(kind, Fraction(rest))


# ---------------------------------------------------------------------------
# The truncated quotient function psi'
# ---------------------------------------------------------------------------

OmegaSpec = Union[None, Fraction, tuple]  # tuple = ("main2"|"lemma3", c)


@dataclass(frozen=True)
class PsiPrime:
    """psi'(q) = psi(q)/||q beta - g'|| on the support
    ||q beta - g'|| in [q^-omega(q), 1), zero elsewhere.

    omega None means no truncation (the raw product set); a Fraction is a
    constant exponent; ("main2", c) and ("lemma3", c) select the named
    shrinking schedules."""

    psi: ApproxFunction
    beta: RealParam
    gamma_prime: RealParam
    omega: OmegaSpec = None

    def omega_at(self, q: int) -> Optional[Fraction]:
        if self.omega is None:
            return None
        if isinstance(self.omega, tuple):
            name, c = self.omega
            if name == "main2":
                return omega_schedule(q, Fraction(c))
            if name == "lemma3":
                return omega_schedule_lemma3(q, Fraction(c))
            raise ValueError(f"unknown omega schedule {name!r}")
        return self.omega if type(self.omega) is Fraction else Fraction(self.omega)

    def canonical(self) -> str:
        if self.omega is None:
            om = "none"
        elif isinstance(self.omega, tuple):
            om = f"{self.omega[0]}@{self.omega[1]}"
        else:
            om = str(self.omega)
        return (f"psi={self.psi.canonical()};beta={self.beta.canonical()};"
                f"gp={self.gamma_prime.canonical()};omega={om}")


class SupportState:
    IN = "IN"
    OUT = "OUT"
    UNDECIDED = "UNDECIDED"


class FibreContext:
    """Shared rigorous evaluation of ||q beta - g'|| and the psi' values.

    Support and census cell are one number per q, the level
    max(-1, floor(log2(||q beta - g'|| q^omega))): q lies in the support
    iff its level is at least 0, and in the census cell l iff its level is
    l.  `levels` is the one route to it, over a run of q.  It takes each
    q's first-rung distance window from the evaluator's walk
    (`FormEvaluator.run_windows` along beta's coordinate) and reads the
    level off that window on ints: exactly for omega = p/s with s <= 64,
    from 96-bit log2 bounds otherwise.  Every q gets that window, a form
    that collapses to a rational too; only a q whose window straddles a
    wall is decided by the evaluator's `decide`, which decides a collapsed
    form exactly.  What the cap cannot decide is flagged, never guessed.

    `psi_primes` maps the route to psi': (state, lo, hi), one pair of ints
    on the 2^-PSI_PRIME_BITS grid, the integer window of psi(q) divided by
    the first-rung window of q's level, or by `positive_window`'s where
    that one touches 0.  `support_state`, `cell_of` and `psi_prime` are
    the one-q calls of the route.
    """

    def __init__(self, pp: PsiPrime, cap: int = DEFAULT_PRECISION_CAP):
        self.pp = pp
        self.cap = cap
        params = [pp.beta]
        self._gp_in_form = False
        if pp.gamma_prime.is_rational:
            offset = -pp.gamma_prime.value
        else:
            params.append(pp.gamma_prime)
            offset = 0
            self._gp_in_form = True
        # the first window is taken at 128 bits, or at the cap below that
        self.fe = FormEvaluator(params, offset, bits=min(128, cap), cap=cap)

    def _coeffs(self, q: int):
        return (q, -1) if self._gp_in_form else (q,)

    def dist_is_zero(self, q: int) -> bool:
        return self.fe.dist_is_zero_exact(self._coeffs(q))

    def levels(self, qs, top: Optional[int] = None):
        """Yield (q, level, window) for each q of `qs`, ints >= 1:
        the level of q clamped to at most `top`, or None where the cap
        cannot decide it, and the distance window (lo, hi, scale) of the
        evaluator's first rung, for every q.  The level is read off that
        window, and only where it straddles a wall is q's level decided on
        the ladder.

        Where omega is None or not positive there is no level: a q is then
        yielded at level `top`, or at -1 where omega is not positive and its
        distance vanishes; a census (`top` None) refuses such an omega."""
        fe, pp = self.fe, self.pp
        schedule = isinstance(pp.omega, tuple)
        om = None if schedule else pp.omega_at(1)
        last = ()     # no omega yet
        for q, lo, hi, scale in fe.run_windows(self._coeffs(0), 0, qs):
            if q < 1:
                raise ValueError(f"q = {q}: levels need q >= 1")
            window = lo, hi, scale
            if schedule:
                om = pp.omega_at(q)
            if om is not last:
                # the exponent's constants, again only where omega changes
                last = om
                positive = om is not None and om > 0
                if positive:
                    p, s = om.numerator, om.denominator
                    sb = fe.bits * s + 1
            if not positive:
                if top is None:
                    raise ValueError("census cells need a positive omega")
                zero = om is not None and self.dist_is_zero(q)
                yield q, -1 if zero else top, window
                continue
            if s <= 64:
                # _pow_levels on scale = 2^bits: floor(log2(x^s q^p /
                # scale^s)) is the bit length of x^s q^p less (bits s + 1)
                qp = q ** p
                a = max(-1, ((lo ** s * qp).bit_length() - sb) // s)
                b = max(-1, ((hi ** s * qp).bit_length() - sb) // s)
            else:
                a, b = _log_levels(lo, hi, scale, p, s, log2_scaled(q, 96))
            if top is not None:
                a, b = min(a, top), min(b, top)
            yield q, a if a == b else self._level(q, om, top), window

    def _level(self, q: int, om: Fraction, top: Optional[int]) -> Optional[int]:
        """The level of q clamped to at most `top`, or None at the cap,
        decided on the evaluator's ladder."""
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

        return self.fe.decide(self._coeffs(q), verdict)

    def psi_primes(self, qs):
        """Yield (q, state, lo, hi) for each q of `qs`, ints >= 1,
        with psi'(q) in [lo, hi] / 2^PSI_PRIME_BITS, and (q, state, 0, 0)
        outside the support: psi(q) / ||q beta - g'|| rounded outward once.
        DependenceError where psi(q) > 0 meets a distance that vanishes or
        cannot be separated from 0 at the cap."""
        for q, level, window in self.levels(qs, 0):
            yield (q, *self._psi_prime(q, level, window))

    def _psi_prime(self, q: int, level: Optional[int], window) -> tuple:
        """(state, lo, hi) of psi'(q) from q's support level and first-rung
        window.  The distance window is that one where it is positive; where
        it reaches 0, `positive_window` climbs from the same first rung."""
        state = _support(level)
        if state != SupportState.IN:
            return state, 0, 0
        pl, ph, pd = self.pp.psi.window(q)
        if ph == 0:
            return state, 0, 0
        if window[0] == 0:
            window = self.fe.positive_window(self._coeffs(q))
        d_lo, d_hi, scale = window
        return (state, *round_outward(pl * scale, pd * d_hi, ph * scale,
                                      pd * d_lo, PSI_PRIME_BITS))

    def support_state(self, q: int) -> str:
        """Is ||q beta - g'|| inside [q^-omega(q), 1)?  (1 is never reached:
        the distance is at most 1/2.)  The level of q clamped to {-1, 0}."""
        (_, level, _), = self.levels((q,), 0)
        return _support(level)

    def cell_of(self, q: int) -> Optional[int]:
        """The level of q: the index l >= 0 with ||q beta - g'|| in
        [2^l q^-om, 2^(l+1) q^-om), -1 outside the support, or None when
        the cap cannot decide it."""
        (_, level, _), = self.levels((q,))
        return level

    def psi_prime(self, q: int) -> tuple:
        """(support state, lo, hi): `psi_primes` at q alone."""
        (_, state, lo, hi), = self.psi_primes((q,))
        return state, lo, hi


def _support(level: Optional[int]) -> str:
    """The support state of a level clamped to {-1, 0}, or of None."""
    if level is None:
        return SupportState.UNDECIDED
    return SupportState.IN if level >= 0 else SupportState.OUT


def _pow_levels(lo: int, hi: int, scale: int, s: int, qp: int) -> list:
    """max(-1, floor(log2((x/scale)^s q^p) / s)) for the distances x = lo
    and x = hi, exactly."""
    out = []
    d = scale ** s
    for x in (lo, hi):
        n = x ** s * qp
        if n == 0:
            out.append(-1)
            continue
        k = n.bit_length() - d.bit_length()     # floor(log2(n/d)) is k or k-1
        if (n >> k if k >= 0 else n << -k) < d:
            k -= 1
        out.append(max(-1, k // s))
    return out


def _log_levels(lo: int, hi: int, scale: int, p: int, s: int, lgq: tuple) -> list:
    """max(-1, floor(B)) for a lower bound B on log2(lo/scale) + (p/s)
    log2 q and for an upper bound B on log2(hi/scale) + (p/s) log2 q, from
    96-bit log2 bounds on one grid (`log2_ratio`, and `log2_scaled` for
    lgq)."""
    out = []
    for upper, x in enumerate((lo, hi)):
        if x == 0:
            out.append(-1)
            continue
        lx = log2_ratio(x, scale, 96)
        out.append(max(-1, (lx[upper] * s + p * lgq[upper]) // (s << lx[2])))
    return out


@dataclass
class DivergenceResult:
    Q: int
    total: Enclosure
    contributing: int
    undecided: int


def divergence_sum(pp: PsiPrime, Q: int,
                   cap: int = DEFAULT_PRECISION_CAP) -> DivergenceResult:
    """sum over q <= Q on the support of psi(q)/||q beta - g'||; undecided
    memberships are excluded from the sum and counted separately.  The
    terms share the 2^-PSI_PRIME_BITS grid, so they are summed as ints."""
    if Q < 1:
        raise ValueError("Q must be >= 1")
    ctx = FibreContext(pp, cap=cap)
    lo = hi = contributing = undecided = 0
    qs = range(max(1, pp.psi.q0), Q + 1)
    for _, state, t_lo, t_hi in ctx.psi_primes(qs):
        if state == SupportState.UNDECIDED:
            undecided += 1
        elif t_hi > 0:
            lo += t_lo
            hi += t_hi
            contributing += 1
    total = Enclosure.dyadic(lo, hi, PSI_PRIME_BITS)
    return DivergenceResult(Q, total, contributing, undecided)


# ---------------------------------------------------------------------------
# Census of the dyadic distance cells
# ---------------------------------------------------------------------------

@dataclass
class GlCensus:
    Q: int
    cells: dict                    # l -> sorted list of q
    undecided: list = field(default_factory=list)

    def members(self, l: int) -> list:
        return self.cells.get(l, [])


def gl_census(beta: RealParam, gamma_prime, omega, Q: int,
              cap: int = DEFAULT_PRECISION_CAP) -> GlCensus:
    """Half-open census: q is in cell l iff ||q beta - g'|| lands in
    [2^l q^-omega, 2^(l+1) q^-omega); the cells partition the support.
    A census reads no psi; the PsiPrime it builds carries a placeholder."""
    gp = gamma_prime if isinstance(gamma_prime, RealParam) \
        else RealParam.rational(Fraction(gamma_prime))
    pp = PsiPrime(ApproxFunction.const(Fraction(1, 4)), beta, gp, omega)
    ctx = FibreContext(pp, cap=cap)
    cells: dict = {}
    undecided = []
    for q, l, _ in ctx.levels(range(1, Q + 1)):
        if l is None:
            undecided.append(q)
        elif l >= 0:
            cells.setdefault(l, []).append(q)
    return GlCensus(Q, cells, undecided)


# ---------------------------------------------------------------------------
# Stratified counting sums
# ---------------------------------------------------------------------------

class NotADivisor(ValueError):
    pass


@dataclass
class SklrResult:
    count: int
    members: list
    undecided: int


def sklr_sum(pp: PsiPrime, gamma, q: int, k: int, l: int, r: int,
             cap: int = DEFAULT_PRECISION_CAP) -> SklrResult:
    """Count q' with gcd(q', q) = r, q' in the census cell l, q' in the
    dyadic band [q/2^(k+1), q/2^k], and the center-difference indicator
    I_{Delta(q',q)/r}({gamma (q'-q)/r}) equal to 1, where Delta uses psi'.
    """
    if q % r != 0:
        raise NotADivisor(f"{r} does not divide {q}")
    if k < 0 or l < 0:
        raise ValueError("k and l must be >= 0")
    ctx = FibreContext(pp, cap=cap)
    gamma_fe = param_evaluator(gamma, cap)
    lo_band = -((-q) // (1 << (k + 1)))    # ceil(q / 2^(k+1))
    hi_band = q // (1 << k)
    st_q, psq_lo, psq_hi = ctx.psi_prime(q)
    undecided = 1 if st_q == SupportState.UNDECIDED else 0
    members = []
    band = [qp for qp in range(max(1, lo_band), hi_band + 1)
            if qp != q and math.gcd(qp, q) == r]
    for qp, level, window in ctx.levels(band):
        if level is None:           # the support or the cell is undecided
            undecided += 1
            continue
        if level != l:
            continue
        # the level just decided puts q' in the support
        _, lo, hi = ctx._psi_prime(qp, level, window)
        # Delta / r = (psi'(q') q + psi'(q) q') / r, on the psi' grid
        delta = Enclosure.dyadic(lo * q + psq_lo * qp, hi * q + psq_hi * qp,
                                 PSI_PRIME_BITS) * Fraction(1, r)
        # None: the distance lands inside the threshold's own error bar
        ind = gamma_fe.dist_below(((qp - q) // r,), delta, closed=True)
        if ind is None:
            undecided += 1
        elif ind:
            members.append(qp)
    return SklrResult(len(members), members, undecided)


def f_moment_sum(beta: RealParam, gamma_prime, omega, Q: int, l: int, K: int,
                 cap: int = DEFAULT_PRECISION_CAP):
    """(sum of F(q)^K over the census cell l intersected with [Q/2, Q],
    reference value Q^(1-omega) 2^(l+1)) as enclosures."""
    if Q < 2 or K < 1:
        raise ValueError("need Q >= 2 and K >= 1")
    if l < 0:
        raise ValueError("l must be >= 0: level -1 lies outside the support")
    if isinstance(omega, tuple):
        raise ValueError("moment sums need a constant omega exponent")
    om = Fraction(omega)
    census = gl_census(beta, gamma_prime, om, Q, cap=cap)
    lo = Fraction(0)
    hi = Fraction(0)
    for q in census.members(l):
        if q < Fraction(Q, 2) or q > Q:
            continue
        f = arith.F_of(q).power(K)
        lo += f.lo
        hi += f.hi
    p, s = om.numerator, om.denominator
    # reference shape Q^(1-omega) * 2^(l+1)
    if om < 1:
        ref = rational_power(Enclosure.exact(Q), s - p, s, bits=96) \
            * Fraction(2 ** (l + 1))
    elif om == 1:
        ref = Enclosure.exact(Fraction(2 ** (l + 1)))
    else:
        ref = rational_power(Enclosure.exact(Q), p - s, s, bits=96) \
            .reciprocal() * Fraction(2 ** (l + 1))
    return Enclosure(lo, hi), ref


# ---------------------------------------------------------------------------
# Borel-Cantelli series and unions
# ---------------------------------------------------------------------------

def _radius_table(psi_or_pp, Q: int, cap: int):
    """Per-q half-measures min(1/2, psi'(q)) as enclosures, plus flags.

    Returns (values, undecided_count) where values[q] is the enclosure of
    psi'(q) (or psi(q) for a plain ApproxFunction), clamped below 1/2 only
    implicitly: callers clamp measures via min(1, 2 psi')."""
    values = {}
    undecided = 0
    if isinstance(psi_or_pp, PsiPrime):
        ctx = FibreContext(psi_or_pp, cap=cap)
        q0 = psi_or_pp.psi.q0
        for q in range(1, min(q0, Q + 1)):
            values[q] = Enclosure.exact(0)
        for q, state, lo, hi in ctx.psi_primes(range(q0, Q + 1)):
            if state == SupportState.UNDECIDED:
                undecided += 1
            values[q] = Enclosure.dyadic(lo, hi, PSI_PRIME_BITS)
    else:
        psi = psi_or_pp
        q0 = psi.q0
        for q in range(1, Q + 1):
            values[q] = psi.eval(q) if q >= q0 else Enclosure.exact(0)
    return values, undecided


@dataclass
class BCSeries:
    Q: int
    mass: list          # mass[i] = enclosure of sum_{q<=i+1} |A_q|
    pair_mass: list     # pair_mass[i] = enclosure of sum_{q,q'<=i+1} |A_q ∩ A_q'|
    ratio: Enclosure
    undecided: int = 0

    @property
    def final_mass(self) -> Enclosure:
        return self.mass[-1]

    @property
    def final_pair_mass(self) -> Enclosure:
        return self.pair_mass[-1]


def bc_ratio(psi_or_pp, gamma, Q: int, cap: int = DEFAULT_PRECISION_CAP,
             checkpoint_every: int = 0) -> BCSeries:
    """(sum |A_q|)^2 / sum |A_q intersect A_q'| over q, q' <= Q with the
    diagonal included; the divergence-type lower bound for the limsup mass.

    psi' values of 1/2 or more make A_q the full circle; the measure terms
    clamp accordingly.  Exact rationals when gamma and psi are rational,
    outward dyadic accumulation otherwise.
    """
    if Q < 2:
        raise ValueError("Q must be >= 2")
    values, undecided = _radius_table(psi_or_pp, Q, cap)
    fam = AqFamily(values, gamma, Q, bits=96)
    mass_list = []
    pair_list = []
    mass_lo = mass_hi = Fraction(0)
    pair_lo = pair_hi = 0
    mark = checkpoint_every if checkpoint_every > 0 else 1
    for q in range(1, Q + 1):
        mq = fam.mass[q]
        mass_lo += mq.lo
        mass_hi += mq.hi
        # the diagonal |A_q ∩ A_q| = |A_q|, and each q' < q twice
        dlo, dhi = fam.units(mq)
        rlo, rhi = fam.row(q)
        pair_lo += dlo + 2 * rlo
        pair_hi += dhi + 2 * rhi
        if q % mark == 0 or q == Q:
            mass_list.append(Enclosure(mass_lo, mass_hi))
            pair_list.append(fam.total(pair_lo, pair_hi))
    num = mass_list[-1]
    den = pair_list[-1]
    if den.hi <= 0:
        raise ValueError("all psi values are zero")
    num_sq = Enclosure(num.lo ** 2, num.hi ** 2)
    lo = num_sq.lo / den.hi
    hi = num_sq.hi / den.lo if den.lo > 0 else Fraction(1)
    ratio = Enclosure(lo, min(hi, Fraction(1)) if lo <= 1 else hi)
    return BCSeries(Q, mass_list, pair_list, ratio, undecided)


def union_series(psi_or_pp, gamma, Q0: int, Q: int,
                 cap: int = DEFAULT_PRECISION_CAP) -> Enclosure:
    """Measure of the union of A_q for Q0 <= q <= Q, by exact arc folding."""
    if not 1 <= Q0 <= Q:
        raise ValueError("need 1 <= Q0 <= Q")
    values, _ = _radius_table(psi_or_pp, Q, cap)
    sets = []
    for q in range(Q0, Q + 1):
        v = values[q]
        if v.hi == 0:
            continue
        if 2 * v.lo >= 1:
            return Enclosure.exact(1)
        sets.append(build_Aq(v, gamma, q))
    return arc_union(*sets).measure_bounds()


# ---------------------------------------------------------------------------
# Hit counting and Monte-Carlo surveys
# ---------------------------------------------------------------------------

def counter_sample(seed: int, index: int) -> int:
    """Counter-based uniform draw on [0, 2^64): keyed blake2b of the index,
    so streams are reproducible and independent of evaluation order."""
    h = hashlib.blake2b(index.to_bytes(8, "little"),
                        key=(seed % _U64).to_bytes(8, "little"),
                        digest_size=8)
    return int.from_bytes(h.digest(), "little")


@dataclass
class HitResult:
    count: int
    undecided: int
    degenerate: list    # q in the support with psi(q) > 0 and
    #                     ||q beta - g'|| = 0 exactly (product test
    #                     trivially satisfied; flagged, still counted)


class _HitSweep:
    """Precomputed per-q thresholds for counting q <= Q with
    ||q x - gamma|| < psi'(q), vectorized over dyadic samples x = k/2^64.

    gamma is pinned once per sweep by one evaluator: its 2^64 pin feeds the
    lane, and its ladder decides the entries that straddle a wall."""

    def __init__(self, gamma, pp: PsiPrime, Q: int, direct: bool,
                 cap: int = DEFAULT_PRECISION_CAP):
        if Q < 1:
            raise ValueError("Q must be >= 1")
        self.Q = Q
        self.fe = param_evaluator(gamma, cap)
        # gamma enters once, not per q: (q x - gamma) 2^64 is within the
        # margin - 1 of q k + offset
        self.offset, margin = form_lane(self.fe, [[-1]])
        self.undecided_q = []
        self.degenerate = []
        thr_lo = np.zeros(Q + 1, dtype=np.uint64)
        thr_hi = np.zeros(Q + 1, dtype=np.uint64)
        qs = range(max(1, pp.psi.q0), Q + 1)
        # q -> (lo, hi, den): the threshold lies in [lo, hi] / den
        self._thresholds = {}
        if direct:
            # a plain loop: drawing the windows through a generator cost
            # the direct survey about 4%
            for q in qs:
                lo, hi, den = pp.psi.window(q)
                if hi:
                    self._thresholds[q] = lo, hi, den
                    thr_lo[q], thr_hi[q] = lane_threshold(lo, hi, den)
        else:
            one = 1 << PSI_PRIME_BITS
            for q, lo, hi in self._fibre_psi_primes(pp, qs, cap):
                if hi:
                    self._thresholds[q] = lo, hi, one
                    thr_lo[q], thr_hi[q] = lane_threshold(lo, hi, one)
        self.qs = np.arange(Q + 1, dtype=np.uint64)
        if margin is not None:
            # q without a threshold get no margin, so the lane never flags them
            margin = np.where(thr_hi > 0, margin, np.uint64(0))
        self.sure_below, self.maybe_below = lane_bounds(thr_lo, thr_hi, margin)

    def _fibre_psi_primes(self, pp: PsiPrime, qs, cap: int):
        """Yield (q, lo, hi) with psi'(q) in [lo, hi] / 2^PSI_PRIME_BITS over
        the decided q of `qs`; the undecided go to `undecided_q`."""
        ctx = FibreContext(pp, cap=cap)
        one = 1 << PSI_PRIME_BITS
        for q, level, window in ctx.levels(qs, 0):
            try:
                state, lo, hi = ctx._psi_prime(q, level, window)
            except DependenceError:
                if not ctx.dist_is_zero(q):
                    raise
                # a vanishing distance inside the support, with psi(q) > 0:
                # the product 0 < psi(q) always hits
                self.degenerate.append(q)
                state, lo, hi = SupportState.IN, one, one
            if state == SupportState.UNDECIDED:
                self.undecided_q.append(q)
            else:
                yield q, lo, hi

    def expected(self) -> Enclosure:
        """sum over q of min(1, 2 t_q) for the thresholds t_q; an undecided
        support contributes [0, 1]."""
        ts = self._thresholds.values()
        undecided = len(self.undecided_q)
        dens = {den for _, _, den in ts}
        if len(dens) <= 1:
            # one grid (2^-128 for psi', c's denominator for a constant
            # psi): sum the terms on it as ints and reduce once
            den = dens.pop() if dens else 1
            lo = sum(min(den, 2 * t_lo) for t_lo, _, _ in ts)
            hi = sum(min(den, 2 * t_hi) for _, t_hi, _ in ts) + undecided * den
            return Enclosure(Fraction(lo, den), Fraction(hi, den))
        lo = exact_sum([(min(den, 2 * t_lo), den) for t_lo, _, den in ts])
        hi = lo if all(t_lo == t_hi for t_lo, t_hi, _ in ts) else exact_sum(
            [(min(den, 2 * t_hi), den) for _, t_hi, den in ts])
        return Enclosure(lo, hi + undecided)

    def tally(self, seed: int, indices) -> tuple:
        """(total hits, undecided) over the draws of the sample `indices`:
        each draw is keyed by its index, so disjoint index ranges split one
        survey into parts that add up."""
        total = undecided = 0
        for i in indices:
            res = self.count_for(counter_sample(seed, i))
            total += res.count
            undecided += res.undecided
        return total, undecided

    def count_for(self, k: int) -> HitResult:
        sure, maybe, _ = ball_lane(self.offset, self.qs, k, self.sure_below,
                                   self.maybe_below)
        qs = np.flatnonzero(maybe).tolist()
        return self._exact_count(qs, Fraction(k, _U64) if qs else None,
                                 int(np.count_nonzero(sure)))

    def _exact_count(self, qs, x: Optional[Fraction],
                     count: int = 0) -> HitResult:
        """The HitResult of `count` hits already certain plus the hits
        among qs, each decided exactly at the sample x."""
        undecided = 0
        for q in qs:
            res = self._exact_hit(q, x)
            if res is None:
                undecided += 1
            elif res:
                count += 1
        return HitResult(count, undecided + len(self.undecided_q),
                         list(self.degenerate))

    def _exact_hit(self, q: int, x: Fraction) -> Optional[bool]:
        """||q x - gamma|| < psi'(q), as the form -gamma shifted by q x."""
        t = self._thresholds.get(q)
        if t is None:
            return False
        lo, hi, den = t
        return self.fe.dist_below((-1,), Enclosure(Fraction(lo, den),
                                                   Fraction(hi, den)),
                                  closed=False, shift=q * x)


def hit_count(x, gamma, pp: PsiPrime, Q: int, direct: bool = False,
              cap: int = DEFAULT_PRECISION_CAP) -> HitResult:
    """#{q <= Q : ||q x - gamma|| * ||q beta - g'|| < psi(q)} for a rational
    sample x (with the omega truncation when pp carries one); `direct=True`
    ignores the fibre and tests ||q x - gamma|| < psi(q).

    q in the support with psi(q) > 0 and ||q beta - g'|| exactly 0 satisfy
    the product test vacuously; they are counted and flagged as degenerate.
    """
    x = Fraction(x)
    sweep = _HitSweep(gamma, pp, Q, direct, cap=cap)
    if x.denominator & (x.denominator - 1) == 0 and x.denominator <= _U64:
        k = x.numerator * (_U64 // x.denominator) % _U64
        return sweep.count_for(k)
    # non-dyadic sample: exact per-q path
    return sweep._exact_count(range(1, Q + 1), x)


@dataclass
class McSurvey:
    samples: int
    mean: Fraction
    undecided: int
    sweep: _HitSweep = field(repr=False)

    @cached_property
    def expected(self) -> Enclosure:
        """The exact expectation; computed on first use, since it costs more
        than the sampling for a direct survey."""
        return self.sweep.expected()

    @property
    def deviation(self) -> Fraction:
        return self.mean - self.expected.mid


def mc_survey(gamma, pp: PsiPrime, Q: int, samples: int, seed: int,
              direct: bool = False) -> McSurvey:
    """Mean hit count over `samples` uniform dyadic x versus the exact
    expectation sum_q min(1, 2 psi'(q)); deterministic given the seed."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    sweep = _HitSweep(gamma, pp, Q, direct)
    total, undecided = sweep.tally(seed, range(samples))
    return McSurvey(samples, Fraction(total, samples), undecided, sweep)


# ---------------------------------------------------------------------------
# Doubly metric sampling
# ---------------------------------------------------------------------------

@dataclass
class DoublyMetricResult:
    samples: int
    failures: int
    fraction: Fraction
    witnesses: dict      # sample index -> (k1, k2) worst witness
    union_bound: Enclosure


def doubly_metric_union_bound(N: int, H_prime) -> Enclosure:
    """sum_{k <= N} 4 k^(1 - H'), exactly, for an integer H' >= 1 and N >= 1.

    This is not the union bound of the pairs that `doubly_metric_sample`
    tests.  Those are the 4h - 2 pairs of each height h = max(|k1|, k2) from
    2 to N, each failing on a set of measure 2 h^-H', so their union bound
    is sum_{h=2}^{N} (8h - 4) h^-H'.  The sum here counts about half of
    them per height, and stays above the sampled fraction only through its
    k = 1 term, 4, which covers no tested pair."""
    if N < 1:
        raise ValueError("N must be >= 1")
    if Fraction(H_prime).denominator != 1 or H_prime < 1:
        raise ValueError("the union bound needs an integer H' >= 1")
    e = int(H_prime) - 1
    return Enclosure.exact(exact_sum([(4, k ** e) for k in range(1, N + 1)]))


#: Samples drawn per block of `doubly_metric_sample`: the block's arrays
#: hold one probe per (sample, k2) and one entry per candidate pair.
_DM_BLOCK = 128


def doubly_metric_sample(gamma: RealParam, H_prime, N: int, samples: int,
                         seed: int,
                         cap: int = DEFAULT_PRECISION_CAP) -> DoublyMetricResult:
    """Fraction of sampled beta admitting a pair (k1, k2), k1 k2 != 0 and
    2 <= max(|k1|, |k2|) <= N, with ||k1 gamma + k2 beta|| <=
    max(|k1|,|k2|)^(-H'); the almost-sure complement of joint Diophantinity.
    H' must exceed 2 for the union bound to converge.

    A pair fails at beta = k / 2^64 only if M = R(k1) + k2 k, with R(k1) =
    k1 gamma 2^64 mod 2^64, lies within the pair's `lane_bounds` maybe
    bound of 0.  The residues R are sorted once, and `lane_window` finds
    for each (sample, k2) the k1 within the widest bound W(k2) of that k2:
    O(N log N) probes plus the candidates per sample, not 4 N^2 pairs.
    Every other pair is certainly outside, as a scan of all pairs finds.
    The worst witness (smallest distance/threshold ratio in float64) and
    the exact fallbacks keep the scan's pair order: k2, then k1 from -N to
    N.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if N < 1:
        raise ValueError("N must be >= 1")
    Hp = Fraction(H_prime)
    if Hp <= 2:
        raise ValueError("H' must be larger than 2")
    if Hp.denominator != 1:
        raise ValueError("integer H' only (the threshold must stay rational)")
    Hp = int(Hp)
    if not gamma.is_irrational:
        raise ValueError("gamma must be irrational")
    fe = param_evaluator(gamma, cap)
    k1s = np.r_[-N:0, 1:N + 1]
    a = np.abs(k1s)
    # k1 gamma + k2 beta scaled to 2^64 is within the margin - 1 of R(k1) +
    # k2 k, with beta = k / 2^64
    R, marg = form_lane(fe, k1s[:, None])
    order = np.argsort(R, kind="stable")
    keys = R[order]
    # h^-H' by height h = max(|k1|, k2) from 2 to N; height 1 is untested
    heights = [1, 1] + [h ** Hp for h in range(2, N + 1)]
    thr = np.array([(0, 0)] * 2 + [lane_threshold(1, 1, t)
                                   for t in heights[2:]], dtype=np.uint64)
    thr_lo, thr_hi = thr[:, 0], thr[:, 1]
    if marg is None:
        W = np.full(N, _U64 - 1, dtype=np.uint64)
    else:
        m = np.zeros(N + 1, dtype=np.uint64)
        np.maximum.at(m, a, marg)               # the widest margin by |k1|
        # W(k2), the widest maybe bound thr_hi + margin of k2's pairs: those
        # with |k1| <= k2 have height k2, those with |k1| = a > k2 height a
        inner = thr_hi + np.maximum.accumulate(m)
        inner[1] = 0            # (+-1, 1), the one pair of height 1
        own = np.append(thr_hi + m, np.uint64(0))   # no |k1| exceeds N
        outer = np.maximum.accumulate(own[::-1])[::-1]
        W = np.maximum(inner[1:], outer[2:])
    k2s = np.arange(1, N + 1, dtype=np.uint64)
    witnesses = {}
    for first in range(0, samples, _DM_BLOCK):
        block = range(first, min(samples, first + _DM_BLOCK))
        ks = [counter_sample(seed, i) for i in block]
        kv = np.array(ks, dtype=np.uint64)
        probe, pos = lane_window(keys, k2s, kv[:, None], W)
        b, k2 = np.divmod(probe, N)
        k2 += 1
        j = order[pos]
        h = np.maximum(a[j], k2)
        keep = np.flatnonzero(h >= 2)
        probe, b, k2, j, h = probe[keep], b[keep], k2[keep], j[keep], h[keep]
        bounds = lane_bounds(thr_lo[h], thr_hi[h],
                             None if marg is None else marg[j])
        sure, maybe, d = ball_lane(R[j], k2.astype(np.uint64), kv[b], *bounds)
        # the candidates in the scan's order: sample, k2, then k1
        o = np.flatnonzero(sure | maybe)
        o = o[np.argsort(probe[o] * len(k1s) + j[o], kind="stable")]
        s = o[sure[o]]
        # worst witness: smallest dist/threshold ratio, the first in the
        # scan's order among equals
        ratio = d[s].astype(np.float64) / \
            np.maximum(thr_lo[h[s]].astype(np.float64), 1.0)
        s = s[np.lexsort((ratio, b[s]))]
        for x in s[np.unique(b[s], return_index=True)[1]].tolist():
            witnesses[block[b[x]]] = int(k1s[j[x]]), int(k2[x])
        for x in o[maybe[o]].tolist():
            i = block[b[x]]
            if i in witnesses:
                continue
            k1, kk2 = int(k1s[j[x]]), int(k2[x])
            ball = Enclosure.exact(Fraction(1, heights[h[x]]))
            if fe.dist_below((k1,), ball, closed=True,
                             shift=kk2 * Fraction(ks[b[x]], _U64)):
                witnesses[i] = k1, kk2
    witnesses = dict(sorted(witnesses.items()))
    return DoublyMetricResult(samples, len(witnesses),
                              Fraction(len(witnesses), samples), witnesses,
                              doubly_metric_union_bound(N, Hp))


# ---------------------------------------------------------------------------
# Experiment records
# ---------------------------------------------------------------------------

CSV_HEADER = ("experiment", "params", "q_or_Q", "value_num", "value_den",
              "err_num", "err_den", "undecided_count")


@dataclass(frozen=True)
class ExperimentRecord:
    """One serializable experiment datum with full parameter provenance."""

    experiment: str
    params: str
    q_or_Q: str
    value: Fraction
    err: Fraction = Fraction(0)
    undecided: int = 0

    @staticmethod
    def of_enclosure(experiment: str, params: str, q_or_Q,
                     e: Enclosure, undecided: int = 0) -> "ExperimentRecord":
        return ExperimentRecord(experiment, params, str(q_or_Q),
                                e.mid, e.width / 2, undecided)

    def to_csv_row(self) -> list:
        return [self.experiment, self.params, self.q_or_Q,
                str(self.value.numerator), str(self.value.denominator),
                str(self.err.numerator), str(self.err.denominator),
                str(self.undecided)]

    def to_json_obj(self) -> dict:
        return dict(zip(CSV_HEADER, self.to_csv_row()),
                    undecided_count=self.undecided)
