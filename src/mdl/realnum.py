"""Rigorous evaluation of real parameters and integer-linear expressions.

Every real quantity in this package is either an exact rational or a
two-sided rational enclosure [lo, hi] guaranteed to contain the true
value.  Enclosures shrink under refinement (more bits) but never exclude
the truth, so every comparison made through this module is a theorem
about the exact real numbers involved, not about floating-point shadows.

Supported parameter kinds: exact rationals, square roots of non-square
integers, base-2 logarithms of integers that are not powers of two, the
named constants e / pi / golden, and decimal literals with a declared
uncertainty radius (never treated as exact).

Hot loops run on integer windows, not on `Fraction`s: a window is a pair
of ints [lo, hi] on a dyadic grid 2^-k, and a record reduces it once.

- `log2_scaled` is the integer core of `log2_enclosure`.  Its digits come
  from the series lane `_log2_lane`, an atanh series on fixed-point ints
  with a table of log2(1 + j/64), wherever the lane's error bound certifies
  the digits that the bit-by-bit squaring loop `_log2_frac_floor` would
  extract; the loop runs only for the rest.  `log2_ratio` bounds the log2
  of a positive rational num/den on the same grid, and every log2 of a
  ratio in the package (`neg_log2_enclosure`, the iterated logs of the
  omega schedules and of the psi families, the fibre levels) is one call.
- `round_outward` rounds num 2^k / den outward to ints, and
  `Enclosure.dyadic` turns such a pair back into an enclosure.
- `FormEvaluator` pins parameters as scaled integers.  `decide` is the one
  ladder for a predicate on a form: it hands a verdict the window of the
  form's signed fractional part, rung after rung, until the verdict
  answers; orbit boxes, grid cells, fibre levels and distance balls are
  all verdicts on it.  `dist_window` gives one integer distance window and
  `run_windows` the windows, certified positive, of a run of coefficient
  vectors start + j e_axis, one addition of a pin per vector: an ETK shell
  is two runs, and `positive_windows` takes any vectors as runs of one.
- One certified uint64 lane: `form_lane` alone turns pins into residues
  M mod 2^64 of many forms, with margins m.  Its readers: `ball_lane`
  decides many distances by two compares against the bounds `lane_bounds`
  folds from thresholds and margins, leaving the entries on a wall to
  `FormEvaluator.dist_below`; `lane_window` finds, by two probes into
  sorted residues R, the entries R + t k whose distance can fall below a
  width, so that `ball_lane` sees only those; `orbit_lane` sorts the
  points {q x}, q <= Q, and answers None where it cannot certify the exact
  ladder's order; `cfrac._top_band` leaves the sigma scans only the
  vectors near the top.
- `exact_sum` adds many rationals, given as int pairs, exactly by a
  pairwise tree, and builds one `Fraction` for the total.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from typing import Optional, Sequence, Union

import numpy as np

RationalLike = Union[int, Fraction]

#: Hard ceiling for refinement; predicates that cannot be decided at this
#: precision are reported undecided instead of looping forever.
DEFAULT_PRECISION_CAP = 4096


class CapExceeded(Exception):
    """Raised when an operation needs more precision than the configured cap."""


class DependenceError(Exception):
    """Raised when a linear form over supposedly independent parameters is 0."""

    def __init__(self, witness, message="rational dependence detected"):
        # both arguments in args, so the error survives pickling from a
        # worker process with its witness intact
        super().__init__(witness, message)
        self.witness = witness
        self.message = message

    def __str__(self):
        return f"{self.message}: witness {self.witness}"


# ---------------------------------------------------------------------------
# Enclosures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Enclosure:
    """Closed rational interval [lo, hi] certified to contain a real value."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"empty enclosure [{self.lo}, {self.hi}]")

    @staticmethod
    def exact(value: RationalLike) -> "Enclosure":
        v = Fraction(value)
        return Enclosure(v, v)

    @staticmethod
    def dyadic(lo: int, hi: int, bits: int) -> "Enclosure":
        """[lo, hi] / 2^bits."""
        scale = 1 << bits
        return Enclosure(Fraction(lo, scale), Fraction(hi, scale))

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2

    @property
    def is_exact(self) -> bool:
        return self.lo == self.hi

    def __add__(self, other):
        if isinstance(other, Enclosure):
            return Enclosure(self.lo + other.lo, self.hi + other.hi)
        v = Fraction(other)
        return Enclosure(self.lo + v, self.hi + v)

    __radd__ = __add__

    def __neg__(self):
        return Enclosure(-self.hi, -self.lo)

    def __sub__(self, other):
        return self + (-other if isinstance(other, Enclosure) else -Fraction(other))

    def __mul__(self, other):
        if isinstance(other, Enclosure):
            cands = [self.lo * other.lo, self.lo * other.hi,
                     self.hi * other.lo, self.hi * other.hi]
            return Enclosure(min(cands), max(cands))
        v = Fraction(other)
        if v >= 0:
            return Enclosure(self.lo * v, self.hi * v)
        return Enclosure(self.hi * v, self.lo * v)

    __rmul__ = __mul__

    def reciprocal(self) -> "Enclosure":
        if self.lo <= 0 <= self.hi:
            raise ZeroDivisionError("enclosure straddles zero")
        return Enclosure(1 / self.hi, 1 / self.lo)

    def __truediv__(self, other):
        if isinstance(other, Enclosure):
            return self * other.reciprocal()
        return self * (Fraction(1) / Fraction(other))

    def power(self, k: int) -> "Enclosure":
        if k == 0:
            return Enclosure.exact(1)
        if k < 0:
            return self.power(-k).reciprocal()
        lo, hi = self.lo ** k, self.hi ** k
        if k % 2 == 0 and self.lo < 0:
            if self.hi <= 0:
                lo, hi = hi, lo
            else:
                lo, hi = Fraction(0), max(hi, self.lo ** k)
        return Enclosure(min(lo, hi), max(lo, hi))

    def __float__(self):
        return float(self.mid)

    def __repr__(self):
        if self.is_exact:
            return f"Enclosure({self.lo})"
        return f"Enclosure({float(self.lo):.17g}, {float(self.hi):.17g})"


# ---------------------------------------------------------------------------
# Low-level rigorous kernels (integer arithmetic only)
# ---------------------------------------------------------------------------

def round_outward(lo_num: int, lo_den: int, hi_num: int, hi_den: int,
                  k: int) -> tuple:
    """(floor(lo_num 2^k / lo_den), ceil(hi_num 2^k / hi_den)) for positive
    denominators: bounds lo <= hi scaled onto the 2^-k grid, rounded
    outward.  The fractions need not be reduced."""
    return (lo_num << k) // lo_den, -((-hi_num << k) // hi_den)


def exact_sum(terms) -> Fraction:
    """The exact sum of rationals given as (numerator, denominator) int
    pairs, denominators positive, added in a pairwise tree.

    Each addition puts its two operands on the lcm of their denominators,
    one gcd, and only the total is reduced, so no term builds a `Fraction`.
    Each partial sum carries a denominator close to the lcm of its own
    terms only, so the big operations are few and balanced: binary
    splitting (Haible & Papanikolaou, ANTS 1998).  A left-to-right sum
    drags the full-size denominator through every addition."""
    gcd = math.gcd
    level = list(terms)
    while len(level) > 1:
        paired = []
        for (a, b), (c, d) in zip(level[::2], level[1::2]):
            g = gcd(b, d)
            paired.append((a * (d // g) + c * (b // g), b // g * d))
        if len(level) % 2:
            paired.append(level[-1])
        level = paired
    return Fraction(*level[0]) if level else Fraction(0)

def sqrt_enclosure(n: int, bits: int) -> Enclosure:
    """Enclosure of sqrt(n) with width <= 2^-bits, via integer isqrt."""
    scale = 1 << bits
    s = math.isqrt(n << (2 * bits))
    return Enclosure(Fraction(s, scale), Fraction(s + 1, scale))


def _log2_frac_floor(x0: int, work: int, nbits: int) -> int:
    """Truncating digit extraction: returns f with
    f/2^nbits <= log2(x0 / 2^work) <= f/2^nbits + nbits*2^(2-work) + 2^-nbits
    for x0/2^work in [1, 2].  Truncation only ever lowers the result.

    Proof.  For x0 < 2^(work+1) every x the loop holds lies in [2^work,
    2^(work+1)); let l_i in [0, 1) be log2(x / 2^work) after i steps, so
    that T = 2^nbits l_0 is the scaled value.  A step squares (l -> 2l),
    and if the square reaches 2 it emits the bit b_i = 1 and halves (minus
    1): l_(i+1) = 2 l_i - b_i - e_i, where e_i >= 0 is what the two
    truncations lose.  The square floor(x^2 / 2^work) is at least
    x^2/2^work - 1 with x^2/2^work >= 2^work, and the halving floor(x / 2)
    at least x/2 - 1/2 with x/2 >= 2^work, so e_i <= -log2(1 - 2^-work) -
    log2(1 - 2^-(work+1)) < 2.2 2^-work.  Unrolled, T = f + l_nbits + E
    with 0 <= E = sum_i e_i 2^(nbits-1-i) < 2.2 2^(nbits-work): f <= T <
    f + 1 + 2.2 2^(nbits-work), inside the bound above.  The input x0 =
    2^(work+1) keeps x there and emits all ones, T = f + 1."""
    one = 1 << work
    x = x0
    frac = 0
    for _ in range(nbits):
        x = (x * x) >> work
        frac <<= 1
        if x >= 2 * one:
            frac |= 1
            x >>= 1
    return frac


#: The series lane reduces m in [1, 2] to the nearest table point c_j = 1 +
#: j/2^_LANE_J, so that its atanh argument has |t| <= 2^-(_LANE_J + 2).
_LANE_J = 6


def _atanh_inv(N: int, bits: int) -> tuple:
    """(s, e) with s <= atanh(1/N) 2^bits < s + e, for an integer N >= 3.

    Term k of sum 1/((2k+1) N^(2k+1)) is floored on its own, and nested
    floors of positive ints are exact, so each term loses less than 1; the
    tail after the first vanishing power is below 1 as well."""
    p = (1 << bits) // N
    s, e, k, nn = p, 2, 1, N * N
    while p:
        p //= nn
        k += 2
        s += p // k
        e += 1
    return s, e


@lru_cache(maxsize=None)
def _log2_lane_constants(P: int) -> tuple:
    """(log2c, k2, terms, err) of the series lane on the 2^-P grid.

    log2c[j] and k2 lie within their measured errors e_c and e_k of
    log2(c_j) 2^P and (2/ln 2) 2^P: ln 2 = 2 atanh(1/3) and ln(c_i /
    c_(i-1)) = 2 atanh(1 / (2^(J+1) + 2i - 1)) are summed 40 bits finer,
    each as an interval, and the ratio's interval is measured.  `terms`
    atanh terms leave a tail below 2^-P, since (J + 2)(2 terms + 1) >= P.
    err bounds |a - log2(y) 2^P| for the a of `_log2_series`."""
    J = _LANE_J
    fine = P + 40
    l2, e2 = _atanh_inv(3, fine)
    ln2_lo, ln2_hi = 2 * l2, 2 * (l2 + e2)
    log2c, e_c, acc, e_acc = [0], 0, 0, 0
    for i in range(1, (1 << J) + 1):
        s, e = _atanh_inv((2 << J) + 2 * i - 1, fine)
        acc += 2 * s
        e_acc += 2 * e
        lo = (acc << P) // ln2_hi
        log2c.append(lo)
        e_c = max(e_c, -((-(acc + e_acc) << P) // ln2_lo) - lo)
    k2 = (1 << (P + fine + 1)) // ln2_hi
    e_k = -((-1 << (P + fine + 1)) // ln2_lo) - k2
    terms = max(1, -(-(P - J - 2) // (2 * J + 4)))
    return tuple(log2c), k2, terms, e_c + e_k + 6 * terms + 2


def _lane_floor(lo: int, hi: int, sh: int, slack: int) -> Optional[int]:
    """floor(T) for T in [lo, hi] / 2^sh when that puts T more than slack /
    2^sh above the integer floor(T) (and below the next); else None."""
    f = lo >> sh
    if hi >> sh == f and lo - (f << sh) > slack:
        return f
    return None


def _log2_series(x0: int, work: int) -> tuple:
    """(a, err, P): a is within err of log2(y) 2^P, y = x0 / 2^work in [1,
    2], with P >= work + 8.

    log2 y = log2 c_j + (2 / ln 2) atanh(t), t = (y - c_j)/(y + c_j), on
    fixed-point ints (Brent & Zimmermann, Modern Computer Arithmetic, 2010,
    4.2).  Error budget in units u = 2^-P: t is floored (< u); t^2 and each
    power are floored, so each power of t is within 2u of the true one (|t|
    <= 2^-8); each term is within 2u/(2k+1) + u, and with the tail the sum
    is within 2 terms u of atanh(t).  Scaled by k2 (< 2.9 2^P, within e_k),
    floored, and added to log2c[j] (within e_c), a is within e_c + e_k + 6
    terms + 1 < err of log2(y) 2^P."""
    J = _LANE_J
    P = -(-(work + 8) // 32) * 32   # one table serves 32 precisions
    log2c, k2, terms, err = _log2_lane_constants(P)
    one = 1 << P
    y = x0 << (P - work)
    j = (y - one + (1 << (P - J - 1))) >> (P - J)   # nearest c_j
    c = one + (j << (P - J))
    t = ((y - c) << P) // (y + c)
    t2 = (t * t) >> P
    s = p = t
    for k in range(3, 2 * terms + 1, 2):
        p = (p * t2) >> P
        s += p // k
    return log2c[j] + ((s * k2) >> P), err, P


def _log2_lane(x0: int, work: int, nb: int) -> tuple:
    """(f0, f1): the digits `_log2_frac_floor(x, work, nb)` of x = x0 and of
    x = x0 + 1, for x0 / 2^work in [1, 2), both from one `_log2_series`
    evaluation, each None where the series cannot certify it.

    T = 2^nb log2(x / 2^work) is a / 2^sh within err / 2^sh.  The loop's f
    satisfies T - 1 - slack <= f <= T with slack nb 2^(2 + nb - work) (its
    docstring), so f = floor(T) wherever T lies more than slack above
    floor(T)."""
    a, err, P = _log2_series(x0, work)
    sh = P - nb
    slack = nb << (P - work + 2)
    # log2(1 + 1/x0) < 2^(1-work), which is 2 << (P - work) on this grid
    return (_lane_floor(a - err, a + err, sh, slack),
            _lane_floor(a - err, a + err + (2 << (P - work)), sh, slack))


def log2_scaled(n: int, bits: int) -> tuple:
    """(lo, hi, w) with log2(n) in [lo, hi] / 2^w and (hi - lo) / 2^w <=
    2^-bits, for n >= 1; w = bits + 19.  Integers only.

    Splits log2(n) = k + log2(m) with m = n/2^k in [1, 2) and takes the
    fractional bits that repeated squaring of scaled integers extracts,
    truncating downward (`_log2_frac_floor`); the upper bound takes them at
    the next grid point and pads by the accumulated truncation error.  The
    series lane `_log2_lane` gives the same digits wherever it can certify
    them, and the squaring loop runs only where it cannot.
    """
    if n < 1:
        raise ValueError("log2 needs n >= 1")
    k = n.bit_length() - 1
    nb = bits + 3
    work = nb + 16
    if n & (n - 1) == 0:
        return k << work, k << work, work
    x0 = (n << work) >> k          # floor(m * 2^work), m = n / 2^k in (1, 2)
    f0, f1 = _log2_lane(x0, work, nb)
    if f0 is None:
        f0 = _log2_frac_floor(x0, work, nb)
    if f1 is None:
        f1 = _log2_frac_floor(x0 + 1, work, nb)
    lo = f0 << 16
    # truncation loses at most 2^(1-work) relatively per squaring step, so
    # pad by 4 nb 2^-work + 2^(1-nb), and never past k + 1
    hi = min(((f1 + 2) << 16) + 4 * nb, 1 << work)
    return (k << work) + lo, (k << work) + hi, work


def log2_enclosure(n: int, bits: int) -> Enclosure:
    """Enclosure of log2(n) with width <= 2^-bits, n >= 1 (see
    `log2_scaled`)."""
    return Enclosure.dyadic(*log2_scaled(n, bits))


def log2_ratio(num: int, den: int, bits: int) -> tuple:
    """(lo, hi, w) with log2(num / den) in [lo, hi] / 2^w, for ints num, den
    >= 1: `log2_scaled(num)` minus `log2_scaled(den)` on their shared grid,
    w = bits + 19.  A power-of-two factor common to num and den cancels
    exactly, since log2_scaled(m 2^t) = log2_scaled(m) + t 2^w."""
    n_lo, n_hi, w = log2_scaled(num, bits)
    d_lo, d_hi, _ = log2_scaled(den, bits)
    return n_lo - d_hi, n_hi - d_lo, w


def nth_root_enclosure(x: Fraction, s: int, bits: int) -> Enclosure:
    """Enclosure of x**(1/s) for x >= 0 and integer s >= 1."""
    if x < 0:
        raise ValueError("nth root of a negative rational")
    if s == 1:
        return Enclosure.exact(x)
    scale = 1 << bits
    # floor(root) of x * 2^(s*bits), done on a single integer
    num = x.numerator * (scale ** s)
    whole = num // x.denominator
    if s == 2:
        r = math.isqrt(whole)
    else:
        r = _integer_nth_root(whole, s)
    return Enclosure(Fraction(r, scale), Fraction(r + 1, scale))


def _integer_nth_root(n: int, s: int) -> int:
    if n < 0:
        raise ValueError("negative radicand")
    if n == 0:
        return 0
    # Newton's step from far above shrinks r by only a factor (s - 1) / s, so
    # start near the root, from log2 n read off n's top 64 bits.  One step
    # lifts any start to at least the floor of the root, and from there the
    # steps decrease to it.
    t = max(0, n.bit_length() - 64)
    e = (math.log2(n >> t) + t) / s
    r = (int(2 ** (e % 1) * (1 + 2 ** -30) * 2 ** 53) << int(e) >> 53) + 1
    r = ((s - 1) * r + n // r ** (s - 1)) // s
    while True:
        nr = ((s - 1) * r + n // r ** (s - 1)) // s
        if nr >= r:
            break
        r = nr
    while r ** s > n:
        r -= 1
    return r


def rational_power(e: Enclosure, num: int, den: int, bits: int = 64) -> Enclosure:
    """e^(num/den) for e >= 0 and num, den >= 1, with outward rounding."""
    if e.lo < 0:
        raise ValueError("rational power needs a nonnegative enclosure")
    lo = nth_root_enclosure(e.lo ** num, den, bits).lo if e.lo > 0 else Fraction(0)
    hi = nth_root_enclosure(e.hi ** num, den, bits).hi
    return Enclosure(lo, hi)


def neg_log2_enclosure(x: Enclosure, bits: int = 64) -> Enclosure:
    """-log2 of a positive rational interval (see `log2_ratio`)."""
    if x.lo <= 0:
        raise ValueError("-log2 needs a positive interval")
    _, hi, w = log2_ratio(x.hi.numerator, x.hi.denominator, bits)
    lo, _, _ = log2_ratio(x.lo.numerator, x.lo.denominator, bits)
    return Enclosure.dyadic(-hi, -lo, w)


def _atan_inv(N: int, bits: int) -> tuple:
    """(s, e) with |atan(1/N) 2^bits - s| < e for an integer N >= 2: nested
    floors floor each term of sum (-1)^k / ((2k+1) N^(2k+1)) exactly, so
    each loses less than 1, and the alternating tail is below 1."""
    p = (1 << bits) // N
    s, k = p, 1
    while p:
        p //= N * N
        t = p // (2 * k + 1)
        s += -t if k & 1 else t
        k += 1
    return s, k + 1


def _const_enclosure(name: str, bits: int) -> Enclosure:
    """Enclosure of e, pi or the golden ratio with width <= 2^-bits.

    e = sum 1/k! and pi = 16 atan(1/5) - 4 atan(1/239) are integer series on
    the grid 2^-w.  The guard bits keep the pins `FormEvaluator` takes at
    2^-(bits-4) equal to those of mpmath's interval pi and e at precision
    bits + 12, checked at every bits from 12 to 4100."""
    if name == "golden":
        root5 = sqrt_enclosure(5, bits + 2)
        return Enclosure((1 + root5.lo) / 2, (1 + root5.hi) / 2)
    w = bits + 24 + 2 * bits.bit_length()
    if name == "pi":
        (a, ea), (b, eb) = _atan_inv(5, w), _atan_inv(239, w)
        s, err = 16 * a - 4 * b, 16 * ea + 4 * eb
        return Enclosure.dyadic(s - err, s + err, w)
    # nested floors give each term floor(2^w / k!) exactly: the k terms lose
    # less than 1 each, and the tail after the first zero term is below 2
    p = s = 1 << w
    k = 1
    while p:
        p //= k
        s += p
        k += 1
    return Enclosure.dyadic(s, s + k + 2, w)


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------

_CONST_NAMES = ("e", "pi", "golden")


@dataclass(frozen=True)
class RealParam:
    """A single symbolic real parameter.

    kind is one of "rational", "sqrt", "log2", "const", "decimal".
    """

    kind: str
    value: Fraction = Fraction(0)   # rational / decimal midpoint
    arg: int = 0                    # sqrt / log2 argument
    name: str = ""                  # const name
    radius: Fraction = Fraction(0)  # decimal uncertainty

    @staticmethod
    def rational(value: RationalLike) -> "RealParam":
        return RealParam("rational", value=Fraction(value))

    @staticmethod
    def sqrt(n: int) -> "RealParam":
        if n < 2 or math.isqrt(n) ** 2 == n:
            raise ValueError(f"sqrt parameter needs a non-square integer >= 2, got {n}")
        return RealParam("sqrt", arg=n)

    @staticmethod
    def log2(n: int) -> "RealParam":
        if n < 3 or n & (n - 1) == 0:
            raise ValueError(f"log2 parameter needs n >= 3 not a power of two, got {n}")
        return RealParam("log2", arg=n)

    @staticmethod
    def const(name: str) -> "RealParam":
        if name not in _CONST_NAMES:
            raise ValueError(f"unknown constant {name!r}; choose from {_CONST_NAMES}")
        return RealParam("const", name=name)

    @staticmethod
    def decimal(text: str, radius: RationalLike) -> "RealParam":
        mid = Fraction(text)
        rad = Fraction(radius)
        if rad <= 0:
            raise ValueError("decimal literal needs a positive uncertainty radius")
        return RealParam("decimal", value=mid, radius=rad)

    @property
    def is_rational(self) -> bool:
        return self.kind == "rational"

    @property
    def is_irrational(self) -> bool:
        return self.kind in ("sqrt", "log2", "const")

    @property
    def is_decimal(self) -> bool:
        return self.kind == "decimal"

    def enclosure(self, bits: int) -> Enclosure:
        if self.kind == "rational":
            return Enclosure.exact(self.value)
        if self.kind == "sqrt":
            return sqrt_enclosure(self.arg, bits)
        if self.kind == "log2":
            return log2_enclosure(self.arg, bits)
        if self.kind == "const":
            return _const_enclosure(self.name, bits)
        # decimal: the declared radius is a hard floor on the width
        return Enclosure(self.value - self.radius, self.value + self.radius)

    def __hash__(self):
        # the generated hash would rehash both Fraction fields on every
        # call, and the pins and evaluators are cached on parameters; the
        # hash is kept once per instance, outside the pickled state (str
        # hashes differ between processes)
        try:
            return self.__dict__["_hash"]
        except KeyError:
            h = hash((self.kind, self.value, self.arg, self.name, self.radius))
            object.__setattr__(self, "_hash", h)
            return h

    def __getstate__(self):
        return {k: v for k, v in self.__dict__.items() if k != "_hash"}

    def canonical(self) -> str:
        if self.kind == "rational":
            return f"rat:{self.value}"
        if self.kind == "sqrt":
            return f"sqrt:{self.arg}"
        if self.kind == "log2":
            return f"log2:{self.arg}"
        if self.kind == "const":
            return f"const:{self.name}"
        return f"dec:{self.value}@{self.radius}"

    def __str__(self):
        return self.canonical()


def parse_param(text: str) -> RealParam:
    """Parse the parameter grammar: sqrt:2, log2:3, rat:3/7, const:golden,
    dec:1.4142135@1e-7."""
    if ":" not in text:
        raise ValueError(f"parameter {text!r} is not of the form kind:value")
    kind, _, rest = text.partition(":")
    kind = kind.strip()
    rest = rest.strip()
    if kind == "sqrt":
        return RealParam.sqrt(int(rest))
    if kind == "log2":
        return RealParam.log2(int(rest))
    if kind == "rat":
        return RealParam.rational(Fraction(rest))
    if kind == "const":
        return RealParam.const(rest)
    if kind == "dec":
        mid, _, rad = rest.partition("@")
        if not rad:
            raise ValueError(f"decimal literal {text!r} must declare a radius: dec:x@r")
        return RealParam.decimal(mid, Fraction(rad))
    raise ValueError(f"unknown parameter kind {kind!r} in {text!r}")


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RealExpr:
    """Integer-linear combination of parameters plus a rational offset.

    Identical parameters are merged on construction, so e.g. sqrt(2) -
    sqrt(2) collapses to the exact rational 0 and equality against
    rationals becomes decidable for such degenerate inputs.
    """

    terms: tuple  # ordered tuple of (coeff: int, RealParam), coeff != 0
    offset: Fraction = Fraction(0)

    @staticmethod
    def build(terms: Sequence, offset: RationalLike = 0) -> "RealExpr":
        merged: dict = {}
        off = Fraction(offset)
        for coeff, param in terms:
            coeff = int(coeff)
            if coeff == 0:
                continue
            if param.is_rational:
                off += coeff * param.value
                continue
            key = param.canonical()
            if key in merged:
                old_c, _ = merged[key]
                merged[key] = (old_c + coeff, param)
            else:
                merged[key] = (coeff, param)
        kept = tuple(sorted(
            ((c, p) for c, p in merged.values() if c != 0),
            key=lambda cp: cp[1].canonical()))
        return RealExpr(kept, off)

    @property
    def is_rational(self) -> bool:
        return not self.terms

    def __add__(self, other):
        if isinstance(other, RealExpr):
            return RealExpr.build(list(self.terms) + list(other.terms),
                                  self.offset + other.offset)
        return RealExpr.build(self.terms, self.offset + Fraction(other))

    def __neg__(self):
        return RealExpr.build([(-c, p) for c, p in self.terms], -self.offset)

    def __sub__(self, other):
        if isinstance(other, RealExpr):
            return self + (-other)
        return self + (-Fraction(other))

    def eval(self, bits: int, cap: int = DEFAULT_PRECISION_CAP) -> Enclosure:
        """Enclosure of width <= 2^-bits (unless limited by decimal literals)."""
        if bits > cap:
            raise CapExceeded(f"requested {bits} bits exceeds cap {cap}")
        if not self.terms:
            return Enclosure.exact(self.offset)
        total = sum(abs(c) for c, _ in self.terms)
        inner = bits + max(total.bit_length(), 1) + 1
        acc = Enclosure.exact(self.offset)
        for coeff, param in self.terms:
            acc = acc + param.enclosure(inner) * coeff
        return acc


# ---------------------------------------------------------------------------
# Decision procedures
# ---------------------------------------------------------------------------

def precision_ladder(start: int, cap: int):
    """The precisions a predicate is tried at until it is decided: `start`
    (floored at 8 bits), then doubling.  Every level is clamped to `cap`,
    and the ladder ends with the level that reaches it."""
    b = max(start, 8)
    while True:
        yield min(b, cap)
        if b >= cap:
            return
        b *= 2


# ---------------------------------------------------------------------------
# Scaled-integer evaluator
# ---------------------------------------------------------------------------

class FormEvaluator:
    """Fast rigorous evaluation of k1*x1 + ... + kn*xn + c modulo 1 over many
    integer coefficient vectors.

    Each parameter is pinned once per precision as a scaled integer
    floor(x * 2^B) plus a spread from a certified enclosure; a coefficient
    vector then costs a handful of big-int operations, with a rigorous error
    window.  `decide` is the one ladder of a predicate on a form: it raises
    the precision along `precision_ladder` until the predicate's verdict on
    the window answers, or the cap is reached.

    Syntactic dependence is decided once, on construction: parameters with
    the same canonical form share a group and rational parameters only shift
    the offset, so a form collapses to a rational exactly when the
    coefficients of every group sum to zero.
    """

    def __init__(self, params: Sequence[RealParam], offset: RationalLike = 0,
                 bits: int = 128, cap: int = DEFAULT_PRECISION_CAP):
        self.params = tuple(params)
        self.offset = Fraction(offset)
        self.cap = cap
        self.bits = bits
        self._tables: dict = {}
        groups: dict = {}
        self._rational = []
        for i, p in enumerate(self.params):
            if p.is_rational:
                self._rational.append((i, p.value))
            else:
                groups.setdefault(p.canonical(), []).append(i)
        self._groups = list(groups.values())
        self.pin(bits)

    def pin(self, bits: int):
        """(pins, off_lo, off_err) at scale 2^bits: pins[i] = (lo, spread)
        with x_i * 2^bits in [lo, lo + spread], and c * 2^bits in
        [off_lo, off_lo + off_err]."""
        table = self._tables.get(bits)
        if table is None:
            scale = 1 << bits
            pins = []
            for p in self.params:
                e = p.enclosure(bits + 4)
                lo_scaled = math.floor(e.lo * scale)
                pins.append((lo_scaled, math.ceil(e.hi * scale) - lo_scaled))
            off_lo = math.floor(self.offset * scale)
            off_err = 1 if self.offset * scale != off_lo else 0
            table = self._tables[bits] = (pins, off_lo, off_err)
        return table

    def frac_window(self, coeffs: Sequence[int], bits: int | None = None,
                    shift: RationalLike = 0):
        """(s, err, scale_bits): the signed fractional part of the form plus
        `shift`, scaled by 2^scale_bits, lies within err of s (modulo
        2^scale_bits), with s in (-2^(scale_bits-1), 2^(scale_bits-1)]."""
        b = self.bits if bits is None else bits
        pins, acc, err = self.pin(b)
        scale = 1 << b
        if shift:
            v = shift * scale
            fl = math.floor(v)
            acc += fl
            err += v != fl
        for k, (pin, spread) in zip(coeffs, pins):
            acc += k * pin
            err += abs(k) * spread
        m = acc % scale
        return (m if 2 * m <= scale else m - scale), err, b

    def dist_window(self, coeffs: Sequence[int], bits: int | None = None):
        """(d_lo, d_hi, scale_bits): rigorous integer window for
        ||sum k_i x_i + c|| scaled by 2^scale_bits."""
        s, err, b = self.frac_window(coeffs, bits)
        lo, hi, _ = frac_to_dist(s, err, 1 << b)
        return lo, hi, b

    def positive_windows(self, vectors: Sequence[Sequence[int]]):
        """Yield, for each coefficient vector in order, the window that
        `run_windows` yields for the run of that one vector."""
        for coeffs in vectors:
            yield from self.run_windows(coeffs, 0, 1)

    def run_windows(self, start: Sequence[int], axis: int, n: int):
        """Yield, for j = 0..n-1, a window (lo, hi, b) with 0 < lo <=
        ||form|| 2^b <= hi of the vector start + j e_axis.

        On the table pinned at `self.bits` the sum grows by the one pin of
        `axis` a vector, and the error is the fixed coordinates' err0 plus
        |k| times that pin's spread.  That separates almost every vector
        from 0; the rest are checked for syntactic dependence and climb
        `precision_ladder`.  DependenceError names the first vector (sign-
        normalized) whose distance is 0 or not separated from 0 at the cap."""
        b = self.bits
        pins, acc, err0 = self.pin(b)
        scale = 1 << b
        half, mask = scale >> 1, scale - 1     # acc & mask is acc % scale
        for i, (k, (pin, spread)) in enumerate(zip(start, pins)):
            acc += k * pin
            if i != axis:
                err0 += abs(k) * spread
        step, spread = pins[axis]
        vec = list(start)
        for k in range(vec[axis], vec[axis] + n):
            d = acc & mask
            if d > half:
                d = scale - d
            err = err0 + abs(k) * spread
            if d > err:
                hi = d + err
                yield d - err, hi if hi < half else half, b
            else:
                vec[axis] = k
                yield self._positive_window(vec)
            acc += step

    def _positive_window(self, coeffs: Sequence[int]) -> tuple:
        witness = normalize_witness(coeffs)
        if self.dist_is_zero_exact(coeffs):
            raise DependenceError(witness)
        for bits in precision_ladder(self.bits, self.cap):
            if bits == self.bits:
                continue    # the rung `run_windows` has just tried
            window = self.dist_window(coeffs, bits)
            if window[0] > 0:
                return window
        raise DependenceError(witness, "distance cannot be separated from 0")

    def _rational_value(self, coeffs: Sequence[int]) -> Optional[Fraction]:
        """The form's value if it collapses syntactically to a rational."""
        for group in self._groups:
            if sum([coeffs[i] for i in group]):
                return None
        return self.offset + sum(coeffs[i] * v for i, v in self._rational)

    def decide(self, coeffs: Sequence[int], verdict, shift: RationalLike = 0):
        """The first non-None verdict(s, err, scale), where s, err and scale
        are ints and the signed fractional part of form + shift lies within
        err / scale of s / scale: the exact window (s, 0, den) on the
        denominator of the value of a form that collapses to a rational,
        else `frac_window`'s on each rung of `precision_ladder`; None at the
        cap.  The one ladder of every predicate on a form."""
        v = self._rational_value(coeffs)
        if v is not None:
            if shift:
                v += shift
            den = v.denominator
            m = v.numerator % den
            return verdict(m if 2 * m <= den else m - den, 0, den)
        for bits in precision_ladder(self.bits, self.cap):
            s, err, b = self.frac_window(coeffs, bits, shift)
            answer = verdict(s, err, 1 << b)
            if answer is not None:
                return answer
        return None

    def dist_below(self, coeffs: Sequence[int], t: Enclosure, closed: bool,
                   shift: RationalLike = 0) -> Optional[bool]:
        """Decide ||form + shift|| < t, or <= t when `closed`, for a
        threshold known as the enclosure t: True, False, or None when the
        distance cannot be separated from t (a rational form is decided
        exactly, so None there means t itself straddles the distance)."""
        return self.decide(coeffs, partial(_ball_verdict, t, closed), shift)

    def dist_is_zero_exact(self, coeffs: Sequence[int]) -> bool:
        """True iff the linear form collapses syntactically to an integer."""
        v = self._rational_value(coeffs)
        return v is not None and v.denominator == 1


def normalize_witness(coeffs: Sequence[int]) -> tuple:
    """Sign-normalize to k1 > 0, or k1 == 0 with the last k > 0: a vector
    and its negative give the same distance."""
    if coeffs[0] < 0 or (coeffs[0] == 0 and coeffs[-1] < 0):
        return tuple(-k for k in coeffs)
    return tuple(coeffs)


@lru_cache(maxsize=None)
def param_evaluator(param, cap: int = DEFAULT_PRECISION_CAP) -> FormEvaluator:
    """One evaluator of the single parameter `param` (a RealParam or a
    rational), and so one pin per precision, per (param, cap)."""
    p = param if isinstance(param, RealParam) else RealParam.rational(param)
    return FormEvaluator([p], 0, cap=cap)


def frac_to_dist(s, err, scale: int) -> tuple:
    """(lo, hi, scale): the window [lo, hi] / scale of ||x|| for a signed
    fractional part of x in [s - err, s + err] / scale.  The distance to
    the nearest integer is 1-Lipschitz, and lies in [0, 1/2]."""
    d = abs(s)
    hi = d + err
    return max(0, d - err), hi if 2 * hi <= scale else scale >> 1, scale


def _ball_verdict(t: Enclosure, closed: bool, s, err, scale: int) -> Optional[bool]:
    """Is ||x|| below t (at most t when closed), for x's window (s, err,
    scale)?  Cross-multiplied, so an integer window builds no Fraction."""
    lo, hi, _ = frac_to_dist(s, err, scale)
    below = hi * t.lo.denominator - t.lo.numerator * scale
    if below < 0 or (closed and below == 0):
        return True
    above = lo * t.hi.denominator - t.hi.numerator * scale
    return False if above > 0 or (above == 0 and not closed) else None


# ---------------------------------------------------------------------------
# The certified uint64 lane
# ---------------------------------------------------------------------------

_U64 = 1 << 64
#: Thresholds are clamped here: 3/4 exceeds every distance (at most 1/2) by
#: more than any margin, and leaves room to add a margin without wrapping.
_LANE_CLAMP = 3 << 62


def lane_threshold(lo: int, hi: int, den: int) -> tuple:
    """(floor(lo 2^64 / den), ceil(hi 2^64 / den)) for a threshold in [lo,
    hi] / den, clamped for `lane_bounds`."""
    lo, hi = round_outward(lo, den, hi, den, 64)
    return min(_LANE_CLAMP, lo), min(_LANE_CLAMP, hi)


def _wrap(offset, mult, k):
    """offset + mult k modulo 2^64 on uint64 operands: the one product of
    the lane, shared by `form_lane` and `ball_lane`, and the one place where
    numpy's overflow warning is silenced."""
    with np.errstate(over="ignore"):
        return offset + mult * k


def lane_bounds(thr_lo, thr_hi, margin) -> tuple:
    """(sure_below, maybe_below) = (thr_lo - min(thr_lo, margin), thr_hi +
    margin), the two `ball_lane` bounds of thresholds thr_lo <= thr_hi from
    `lane_threshold` and margins from `form_lane`.  Neither wraps: thr_lo
    - min(thr_lo, margin) >= 0, and thr_hi <= _LANE_CLAMP with margin <
    2^62 keeps thr_hi + margin < 2^64.  A margin of None gives the bounds
    that certify nothing: never sure, always maybe."""
    if margin is None:
        return np.zeros_like(thr_lo), np.full_like(thr_hi, _U64 - 1)
    return thr_lo - np.minimum(thr_lo, margin), thr_hi + margin


def ball_lane(offset, mult, k, sure_below, maybe_below):
    """Decide ||x_i|| against t_i for many entries at once on the 2^-64
    grid, where x_i 2^64 is within margin_i - 1 of offset_i + mult_i k
    (mod 2^64), t_i 2^64 lies in [thr_lo_i, thr_hi_i] (`lane_threshold`),
    and the bounds come from `lane_bounds(thr_lo, thr_hi, margin)`.  The
    arrays are uint64 and broadcast.

    Returns (sure, maybe, d): `sure` entries are certainly strictly inside
    the ball, `maybe` entries need an exact decision, and every other entry
    is certainly strictly outside, so the lane serves the open and the
    closed ball alike.  d <= 2^63 is the scaled distance of the pinned
    value, and ||x_i|| 2^64 is within margin_i - 1 of d_i.  So d <
    thr_lo - margin puts ||x|| 2^64 below thr_lo - 1 < t 2^64, and d >=
    thr_hi + margin puts it at thr_hi + 1 > t 2^64 or above; a margin
    above thr_lo makes nothing sure, and a clamped thr_hi, which may lie
    below t 2^64, exceeds 2^63 >= d.  Since thr_lo <= thr_hi, every sure
    entry lies below maybe_below, and `maybe` is the rest below it.

    k is an int, or a uint64 array of one k per entry (the entries that
    `lane_window` leaves, say).
    """
    if not isinstance(k, np.ndarray):
        k = np.uint64(k % _U64)
    M = _wrap(offset, mult, k)
    d = np.minimum(M, -M)      # uint64 wraparound: min(M, 2^64 - M)
    sure = d < sure_below
    return sure, (d < maybe_below) ^ sure, d


def lane_window(keys, mult, k, width) -> tuple:
    """The entries M = R + mult k (mod 2^64) with min(M, 2^64 - M) < width,
    found in the sorted uint64 residues `keys` in place of a scan over all
    of them.  mult, k and width are uint64 arrays that broadcast to the
    shape of the probes; a width above 2^63 takes every key, since no
    distance exceeds 2^63, and a width of 0 none.

    Returns (probe, pos), flat int arrays: probe[j] is the flat index of a
    probe and keys[pos[j]] one of its residues R, the probes in increasing
    order and each probe's keys along the circle.  With t = mult k and u =
    width - 1, M lies within u of 0 exactly when R lies in the circular
    segment [-t - u, -t + u]; two `np.searchsorted` probes bound it, and
    a segment that wraps past 2^64 takes the keys at the top and at the
    bottom."""
    n = len(keys)
    u = np.maximum(width, 1) - np.uint64(1)
    neg = np.uint64(_U64 - 1)                       # -1 mod 2^64
    centre = _wrap(np.uint64(0), neg, _wrap(np.uint64(0), mult, k))
    lo = _wrap(centre, neg, u)
    hi = _wrap(centre, np.uint64(1), u)
    start = np.searchsorted(keys, lo, "left")
    stop = np.searchsorted(keys, hi, "right")
    count = np.where(lo <= hi, stop - start, n - start + stop)
    whole = width > np.uint64(1 << 63)
    count = np.where(whole, n, np.where(width > 0, count, 0)).ravel()
    start = np.where(whole, 0, start).ravel()
    probe = np.repeat(np.arange(count.size), count)
    # each probe's run starts at its own key, first - its offset in probe
    first = np.repeat(start - (np.cumsum(count) - count), count)
    return probe, (first + np.arange(probe.size)) % max(n, 1)


def form_lane(fe: FormEvaluator, vectors) -> tuple:
    """(M, m) for the rows k of the int array `vectors`: residues M = off +
    sum k_i P_i mod 2^64 from the pins x_i 2^64 in [P_i, P_i + s_i] and c
    2^64 in [off, off + s_0], and uint64 margins m with form(k) 2^64 within
    m - 1 of M mod 2^64.  m is None when its bound (each column at its
    largest |k|) reaches 2^62: below that neither d + m (d <= 2^63) nor a
    `lane_threshold` + m wraps, and a pin that wide certifies nothing.

    m also covers the window `run_windows` takes at b = fe.bits.  Both
    pinned boxes hold a point y (the parameters, or a decimal's interval);
    with E = err / 2^bits, the b-window lies within 2 E_b of form(y), and
    form(y) within E_64 of M.  So m = 1 + err_64 + ceil(2 err_b 2^(64 - b))
    suffices: 1, plus |k| times s_64 + ceil(2 s_b 2^(64 - b)) summed over
    the spreads s of the pins and, with weight 1, of the offset."""
    vectors = np.asarray(vectors, dtype=np.int64)
    pins, off, off_err = fe.pin(64)
    wide, _, wide_err = fe.pin(fe.bits)
    spreads = [(off_err, wide_err)] + [(s, t) for (_, s), (_, t) in zip(pins, wide)]
    w = [s - (-2 * sb << 64 >> fe.bits) for s, sb in spreads]
    cols = np.abs(vectors.T)
    top = 1 + w[0] + sum(x * int(c.max(initial=0)) for x, c in zip(w[1:], cols))
    M = np.full(len(vectors), off % _U64, dtype=np.uint64)
    m = None if top >> 62 else np.full(len(vectors), 1 + w[0], dtype=np.uint64)
    for (pin, _), x, k, c in zip(pins, w[1:], vectors.T, cols):
        M = _wrap(M, np.uint64(pin % _U64), k.astype(np.uint64))
        if m is not None:
            m += np.uint64(x) * c.astype(np.uint64)
    return M, m


def orbit_lane(fe: FormEvaluator, Q: int, b: int) -> Optional[tuple]:
    """The points {q x}, q = 1..Q, of the evaluator's one parameter x in
    increasing order, certified on the 2^-64 grid: (order, keys, margin)
    with order[i] = q - 1 for the i-th smallest point, keys[i] its
    `form_lane` residue q P mod 2^64 and margin the rows' largest, so that
    the point lies within margin - 1 of keys[i] / 2^64.  None when the
    order is not certified; the caller then sorts on its exact rung b.

    Certified, the order is that of the exact rung b, and b's own check
    (points more than err_b = Q spread_b from 0, from 1 and from each
    other) passes.  Let y = {q x'} for an x' in the pins at 64 bits, at
    fe.bits and at b.  A key in [margin, 2^64 - margin] puts y 2^64 within
    margin - 1 of it, in [1, 2^64 - 1], and keys more than 2 margin apart
    order their points more than 2 apart on the 2^-64 grid.  The rung-b
    point is y 2^b - eps with 0 <= eps <= err_b, and 3 err_b < 2^(b-64)
    keeps it more than err_b from 0 and 2^b, and neighbours more than
    2^(b-63) - err_b > 2 err_b apart in the same order."""
    if b <= 64:
        return None
    (_, spread_b), = fe.pin(b)[0]
    if 3 * Q * spread_b >= 1 << (b - 64):
        return None
    keys, m = form_lane(fe, np.arange(1, Q + 1)[:, None])
    if m is None:
        return None
    margin = int(m.max())
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    if keys[0] < margin or int(keys[-1]) > _U64 - margin:
        return None
    if not (np.diff(keys) > np.uint64(2 * margin)).all():
        return None
    return order, keys, margin
