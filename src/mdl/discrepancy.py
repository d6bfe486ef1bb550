"""Counting Kronecker orbits in boxes, exact 1D star discrepancy, 2D grid
discrepancy brackets, and Erdos-Turan-Koksma bounds.

The orbit of an irrational rotation visits every box with frequency equal
to its volume; the error term E = count - Q*volume is what the bounds in
this module control.  Star (anchored) discrepancy is the exact primitive;
free-interval discrepancy sits between it and twice it, and the 2D
free-box supremum is bracketed by a grid scan plus slack.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Optional, Sequence, Union

import numpy as np

from .realnum import (
    DEFAULT_PRECISION_CAP,
    CapExceeded,
    Enclosure,
    FormEvaluator,
    RealParam,
    log2_enclosure,
    log2_scaled,
    orbit_lane,
    param_evaluator,
    precision_ladder,
    rational_power,
    round_outward,
)

RationalLike = Union[int, Fraction]


@dataclass
class BoxCountResult:
    Q: int
    box: tuple                 # ((a, b), ...) half-open per axis
    count: int
    undecided: int = 0

    @property
    def volume(self) -> Fraction:
        v = Fraction(1)
        for a, b in self.box:
            v *= (b - a)
        return v

    @property
    def error(self) -> Fraction:
        """count - Q * volume."""
        return self.count - self.Q * self.volume


def _in_box(a: Fraction, b: Fraction, s, err, scale: int) -> Optional[bool]:
    """Is {q x} in [a, b), for q > 0 and the window (s, err, scale) of
    `FormEvaluator.decide`?  The pin is a floor and q > 0, so {q x} lies in
    [u, u + err] / scale modulo one period, u = s mod scale: compare it and
    its shift by one period against [a, b) and against the complement
    [b, a + 1), cross-multiplied.  None when neither holds the whole
    window."""
    u = s % scale
    an, ad, bn, bd = a.numerator, a.denominator, b.numerator, b.denominator
    asc, bsc = an * scale, bn * scale
    for lo in (u, u + scale):
        hi = lo + err
        if lo * ad >= asc and hi * bd < bsc:
            return True
        if lo * bd >= bsc and hi * ad < asc + ad * scale:
            return False
    return None


def box_count(params: Sequence[RealParam], Q: int, box,
              cap: int = DEFAULT_PRECISION_CAP) -> BoxCountResult:
    """Exact count of q <= Q with ({q a_1}, ..., {q a_k}) in the half-open
    box; memberships are decided rigorously, at once for a rational
    parameter.  At the precision cap an irrational membership is counted
    as undecided, and a decimal literal raises CapExceeded."""
    params = list(params)
    if not 1 <= len(params) <= 2:
        raise ValueError("box counting supports dimension 1 or 2")
    boxes = [(Fraction(a), Fraction(b)) for a, b in box]
    if len(boxes) != len(params):
        raise ValueError("box dimension mismatch")
    for a, b in boxes:
        if not (0 <= a <= b <= 1):
            raise ValueError("box sides must satisfy 0 <= a <= b <= 1")
    evaluators = [param_evaluator(p, cap) for p in params]
    count = 0
    undecided = 0
    for q in range(1, Q + 1):
        for fe, (a, b) in zip(evaluators, boxes):
            if a == b:
                break
            if a == 0 and b == 1:
                continue
            inside = fe.decide((q,), partial(_in_box, a, b))
            if inside is None:
                x = fe.params[0]
                if x.is_decimal:
                    raise CapExceeded(f"{{{q}*{x}}} in [{a}, {b}) undecided "
                                      "at the precision cap")
                undecided += 1
            if not inside:
                break
        else:
            count += 1
    return BoxCountResult(Q, tuple(boxes), count, undecided)


# ---------------------------------------------------------------------------
# Exact star discrepancy (1D)
# ---------------------------------------------------------------------------

def star_discrepancy_1d(alpha: RealParam, Q: int,
                        cap: int = DEFAULT_PRECISION_CAP) -> Enclosure:
    """Exact anchored (star) discrepancy D* of {q*alpha}, q = 1..Q:
    D* = 1/(2Q) + max_i |x_(i) - (2i-1)/(2Q)| on the sorted points.

    Returned as a rigorous enclosure; the free-interval supremum lies in
    [D*, 2 D*].  Count-error conversion is Q * D*.

    The points are sorted on the first rung b of the precision ladder at
    which their windows separate.  `realnum.orbit_lane` certifies that order
    on uint64 keys when b is the first rung; then a float64 pass over the
    keys leaves only the few points near the maximum to evaluate as ints on
    rung b.  Otherwise every point is sorted as an int, rung after rung.
    Both routes give the same enclosure.  A decimal's pins cover its
    radius, so the enclosure holds D* of every real in it.
    """
    if Q < 1:
        raise ValueError("Q must be >= 1")
    if alpha.is_rational:
        raise ValueError("star discrepancy needs an irrational parameter")
    fe = param_evaluator(alpha, cap)
    lane = orbit_lane(fe, Q, next(precision_ladder(fe.bits, cap)))
    for b in precision_ladder(fe.bits, cap):
        lo_pin, spread, scale = fe.frac_window((1,), b)
        err = Q * spread  # absolute window width in grid units
        if lane is not None:    # certified on this first rung
            points = _near_the_maximum(lo_pin, scale, *lane)
            break
        us = sorted(((q * lo_pin) % scale) for q in range(1, Q + 1))
        # sorting by window midpoints is exact if adjacent windows separate
        ok = all(us[i + 1] - us[i] > 2 * err for i in range(Q - 1))
        ok = ok and us[0] > err and scale - us[-1] > err  # no wrap ambiguity
        if ok:
            points = enumerate(us, start=1)
            break
    else:
        raise CapExceeded("cannot separate orbit points at the cap")
    # |x_(i) - (2i-1)/(2Q)| scaled by 2Q 2^b; the window of x_(i) adds err
    vmax = max(abs(u * 2 * Q - (2 * i - 1) * scale) for i, u in points)
    den = 2 * Q * scale
    return Enclosure(Fraction(1, 2 * Q) + Fraction(max(0, vmax - 2 * Q * err), den),
                     Fraction(1, 2 * Q) + Fraction(vmax + 2 * Q * err, den))


def _near_the_maximum(lo_pin: int, scale: int, order, keys, margin: int):
    """(i, u) on rung `scale` for the i-th smallest points whose
    |x_(i) - (2i-1)/(2Q)| may be the largest, from the lane's keys.

    f_i = |keys[i] 2^-64 - (2i-1)/(2Q)| in float64 is within tau of the
    true value: the point lies within margin 2^-64 of its key, and three
    roundings (the key to float, the quotient, the difference, each below
    2^-53 on values under 1) add less than 2^-51.  tau is taken as
    (margin + 2^14) 2^-64, which also covers rounding tau itself.  The
    maximum's f is then at least max(f) - 2 tau."""
    Q = len(keys)
    i = np.arange(1, Q + 1)
    f = np.abs(keys * 2.0 ** -64 - (2 * i - 1) / (2 * Q))
    tau = (margin + 2 ** 14) * 2.0 ** -64
    for j in np.flatnonzero(f >= f.max() - 2 * tau).tolist():
        yield j + 1, (int(order[j]) + 1) * lo_pin % scale


# ---------------------------------------------------------------------------
# 2D grid discrepancy bracket
# ---------------------------------------------------------------------------

def disc2d_grid(alpha: RealParam, beta: RealParam, Q: int, m: int,
                cap: int = DEFAULT_PRECISION_CAP):
    """(lower, upper) bracket for the free-box count-error supremum of the
    orbit ({q a}, {q b}) at resolution m: `lower` is the exact maximum of
    |E| over all grid-aligned boxes [a1/m,b1/m) x [a2/m,b2/m); `upper` adds
    the 4Q/m slack covering boxes with off-grid sides.  A rational
    parameter's cells are exact; CapExceeded where a point's cell is still
    undecided at the cap.  Costs Q cell decisions plus the O(m^3) box
    maximum of `grid_box_max`."""
    if Q < 1:
        raise ValueError("Q must be >= 1")
    if m < 1:
        raise ValueError("m must be >= 1")
    cell = partial(_cell, m)
    ta, tb = param_evaluator(alpha, cap), param_evaluator(beta, cap)
    cells = np.zeros((m, m), dtype=np.int64)
    for q in range(1, Q + 1):
        i = ta.decide((q,), cell)
        j = tb.decide((q,), cell)
        if i is None or j is None:
            raise CapExceeded("orbit point sits on a grid line at the cap")
        cells[i, j] += 1
    lower = Fraction(grid_box_max(cells, Q), m * m)
    upper = lower + Fraction(4 * Q, m)
    return lower, upper


def grid_box_max(cells: np.ndarray, Q: int) -> int:
    """max |m^2 count - Q (b1 - a1)(b2 - a2)| over the grid-aligned boxes
    [a1, b1) x [a2, b2) of an (m, m) int64 grid of cell counts, exact.

    With P the prefix-count table (P[i, j] counts the cells [0, i) x
    [0, j)) and G[i, j] = m^2 P[i, j] - Q i j, the box's value is the
    second difference G[b1, b2] - G[a1, b2] - G[b1, a2] + G[a1, a2].  For
    fixed (a1, b1) it is R[b2] - R[a2] with R = G[b1] - G[a1], and the
    largest |R[b2] - R[a2]| over a2 < b2 is max R - min R.  So one pass per
    a1 over the rows G[a1+1:] - G[a1] takes the maximum: O(m^3) work and
    O(m^2) memory.  With N points in the grid, G and R lie in
    [-m^2 Q, m^2 N] and max R - min R <= m^2 (N + Q); for an orbit N = Q,
    so every value stays below 4 m^2 Q and int64 is exact while that is
    below 2^63."""
    m = len(cells)
    idx = np.arange(m + 1)
    g = np.zeros((m + 1, m + 1), dtype=np.int64)
    g[1:, 1:] = np.cumsum(np.cumsum(cells, axis=0), axis=1)
    g = m * m * g - Q * np.outer(idx, idx)
    return max(int(np.ptp(g[a1 + 1:] - g[a1], axis=1).max())
               for a1 in range(m))


def _cell(m: int, s, err, scale: int) -> Optional[int]:
    """The column floor({q x} m) of a point whose window (s, err, scale) of
    `FormEvaluator.decide` lies in [s, s + err] modulo one (the pin is a
    floor and q > 0), or None when the window meets a grid line."""
    i = s * m // scale                # floor: cells are indexed over Z
    return i % m if i == (s + err) * m // scale else None


# ---------------------------------------------------------------------------
# Erdos-Turan-Koksma bounds
# ---------------------------------------------------------------------------

#: Shell sums and the bound run on the 2^-SHELL_BITS grid, rounded outward.
SHELL_BITS = 96


@dataclass
class EtkBound:
    """An Erdos-Turan-Koksma bound at truncation H, kept as an integer
    triple and built as an enclosure when read."""

    N: int
    H: int
    bound_raw: tuple          # (lo, hi, den): the bound lies in [lo, hi]/den
    implied_constant: Optional[Enclosure] = None

    @property
    def bound(self) -> Enclosure:
        lo, hi, den = self.bound_raw
        return Enclosure(Fraction(lo, den), Fraction(hi, den))

    @staticmethod
    def of_shells(N: int, H: int, lo: int, hi: int) -> "EtkBound":
        """9N(1/H + S) for a shell sum S in [lo, hi] 2^-SHELL_BITS."""
        den = H << SHELL_BITS
        top = 9 * N << SHELL_BITS
        return EtkBound(N, H, (9 * lo * H + top, 9 * hi * H + top, den))


def _etk_shells_1d(fe: FormEvaluator, Hmax: int) -> list:
    """shell h contribution (both signs k = +-h) to
    sum 2/(|k|+1) * 2/||k alpha||, as outward-rounded integer pairs on the
    2^-SHELL_BITS grid; the shells h = 1..Hmax are one walk."""
    shells = []
    for h, lo, hi, scale in fe.run_windows((0,), 0, range(1, Hmax + 1)):
        if not lo:      # touches 0 on the first rung: climb
            lo, hi, scale = fe.positive_window((h,))
        shells.append(round_outward(8 * scale, (h + 1) * hi,
                                    8 * scale, (h + 1) * lo, SHELL_BITS))
    return shells


def _etk_shells_2d(fe: FormEvaluator, Hmax: int) -> list:
    """shell h: pairs with max(|k1|,|k2|) = h of
    4/((|k1|+1)(|k2|+1)) * 2/||k1 a + k2 b||, signs folded (factor 2), as
    integer pairs on the 2^-SHELL_BITS grid, each term rounded outward.
    A shell is two walks: (k1, h) for k1 = -h..h, then (h, k2) for k2 =
    -h+1..h-1, each (k1,k2) standing for {(k1,k2), (-k1,-k2)}."""
    shells = []
    first = 1 << (fe.bits + SHELL_BITS + 4)     # 16 scale 2^SHELL_BITS
    for h in range(1, Hmax + 1):
        lo_acc = hi_acc = 0
        for start, axis, ks in (((0, h), 0, range(-h, h + 1)),
                                ((h, 0), 1, range(1 - h, h))):
            for k, lo, hi, _ in fe.run_windows(start, axis, ks):
                num = first
                if not lo:      # touches 0 on the first rung: climb
                    lo, hi, scale = fe.positive_window(
                        (k, h) if axis == 0 else (h, k))
                    num = scale << (SHELL_BITS + 4)
                # 16 / (w ||form||) for ||form|| in [lo, hi] / scale, outward
                w = (abs(k) + 1) * (h + 1)
                lo_acc += num // (w * hi)
                hi_acc -= -num // (w * lo)
        shells.append((lo_acc, hi_acc))
    return shells


def etk_bound(params: Sequence[RealParam], N: int, H: int,
              cap: int = DEFAULT_PRECISION_CAP) -> EtkBound:
    """The Erdos-Turan-Koksma count-error bound at truncation H:
    1D: 9N(1/H + sum_{0<|k|<=H} (2/(|k|+1)) (2/(N ||k a||)));
    2D: 9N(1/H + sum' (4/((|k1|+1)(|k2|+1))) (2/(N ||k1 a + k2 b||))).
    """
    return etk_bound_sweep(params, N, H, cap)[-1]


def etk_bound_sweep(params: Sequence[RealParam], N: int, Hmax: int,
                    cap: int = DEFAULT_PRECISION_CAP) -> list:
    """EtkBound for every H = 1..Hmax, sharing one pass of shell sums."""
    shells = _shell_sums(params, N, Hmax, cap)
    out = []
    acc_lo = acc_hi = 0
    for H, (lo, hi) in enumerate(shells, start=1):
        # shells sit on the 2^-SHELL_BITS grid, so their sum is exact there
        acc_lo += lo
        acc_hi += hi
        out.append(EtkBound.of_shells(N, H, acc_lo, acc_hi))
    return out


def _shell_sums(params: Sequence[RealParam], N: int, Hmax: int, cap: int) -> list:
    params = list(params)
    if not 1 <= len(params) <= 2:
        raise ValueError("dimension 1 or 2 only")
    if N < 1 or Hmax < 1:
        raise ValueError("N and H must be >= 1")
    fe = FormEvaluator(params, 0, cap=cap)
    return (_etk_shells_1d if len(params) == 1 else _etk_shells_2d)(fe, Hmax)


def etk_autoH(N: int, sigma_N: Fraction) -> EtkBound:
    """Optimized truncation: H is the smallest positive integer with
    1/H <= (8000 sigma / N) * log2(H) * H^sigma, and the returned bound is
    9N(1/H + (8000 sigma/N) log2(H) H^sigma).

    Each H is tested on ints, 1 <= (coef lo)^s H^(p+s) with sigma = p/s
    and log2(H) in [lo, hi] / 2^w: no root is taken, and CapExceeded where
    hi passes but lo does not.  Both tests fail at H = 1 (log2 1 = 0) and
    grow with H from 2, as H^(p+s), lo and hi do: log2(H + 1) - log2(H) >
    2^-31 for H < 2^30, and hi - lo <= 2^(w-96).  So doubling, then
    bisection, finds the smallest H that passes with hi in O(log H) tests.

    The implied constant reported is bound / (N^(s/(s+1)) (log2 N)^(1/(s+1)))
    with s = sigma_N.
    """
    sigma = Fraction(sigma_N)
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    if N < 1:
        raise ValueError("N must be >= 1")
    p, s = sigma.numerator, sigma.denominator
    coef = Fraction(8000) * sigma / N
    w = log2_scaled(1, 96)[2]   # the grid 2^-w is the same for every H
    one = (coef.denominator << w) ** s

    def passes(H: int, end: int) -> bool:   # end 0 tests lo, 1 tests hi
        return (coef.numerator * log2_scaled(H, 96)[end]) ** s * H ** (p + s) >= one

    low, H = 1, 2
    while not passes(H, 1):
        if H >= 10 ** 9:
            raise RuntimeError("optimized H not found below 1e9")
        low, H = H, min(2 * H, 10 ** 9)
    while H - low > 1:
        mid = (low + H) // 2
        low, H = (low, mid) if passes(mid, 1) else (mid, H)
    if not passes(H, 0):
        raise CapExceeded(f"H-threshold comparison undecided at H={H}")
    lo, hi, _ = log2_scaled(H, 96)
    lg = Enclosure.dyadic(lo, hi, w)
    hsig = rational_power(Enclosure.exact(H), p, s, bits=96)
    bound = (Fraction(1, H) + coef * lg * hsig) * (9 * N)
    # reference shape: C * N^(sigma/(sigma+1)) * (log2 N)^(1/(sigma+1))
    npow = rational_power(Enclosure.exact(N), p, p + s, bits=96)
    lgn = log2_enclosure(N, 96) if N > 1 else Enclosure.exact(1)
    lpow = rational_power(lgn, s, p + s, bits=96) if N > 2 else Enclosure.exact(1)
    denom = npow * lpow
    implied = bound / denom if denom.lo > 0 else None
    lo, hi = round_outward(bound.lo.numerator, bound.lo.denominator,
                           bound.hi.numerator, bound.hi.denominator, 96)
    return EtkBound(N, H, (lo, hi, 1 << 96), implied)
