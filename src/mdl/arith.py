"""Divisor-based arithmetic: d(q), the weight F(q) = sum over r|q of
log2(r)/r, and their aggregates.

F controls how strongly two arc systems with indices sharing a divisor can
overlap; its average is bounded, which is what makes divisor-aligned
intersections summable.  All logs are base 2 and all values are carried as
rational enclosures since log2 of a non-power-of-two is irrational.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .realnum import Enclosure, log2_enclosure, log2_scaled

#: Factorization below this bound uses the smallest-prime-factor sieve;
#: beyond it Pollard-Brent splitting with a Miller-Rabin primality test.
DEFAULT_SIEVE_BOUND = 10 ** 7

#: Miller-Rabin on the first 13 prime bases decides primality exactly below
#: _MR_BOUND (Sorenson & Webster, Math. Comp. 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


class _Sieve:
    """Lazily grown smallest-prime-factor sieve, immutable once built."""

    def __init__(self):
        self.limit = 0
        self.spf = None

    def ensure(self, n: int):
        if n <= self.limit:
            return
        limit = max(n, 2 * self.limit, 1 << 16)
        spf = np.zeros(limit + 1, dtype=np.int64)
        spf[1] = 1
        for p in range(2, limit + 1):
            if spf[p] == 0:
                spf[p::p][spf[p::p] == 0] = p
        self.limit = limit
        self.spf = spf


_SIEVE = _Sieve()


def factorize(q: int, sieve_bound: int = DEFAULT_SIEVE_BOUND) -> dict:
    """Prime factorization {p: e}, primes ascending: via the sieve up to
    `sieve_bound`, beyond it by trial division and Pollard-Brent splitting.
    Every factor found is proved prime, which the Miller-Rabin test does
    below 3.3e24; a larger cofactor without a small factor raises
    ValueError."""
    if q < 1:
        raise ValueError("factorize needs q >= 1")
    out: dict = {}
    if q <= sieve_bound:
        _SIEVE.ensure(q)
        spf = _SIEVE.spf
        while q > 1:
            p = int(spf[q])
            out[p] = out.get(p, 0) + 1
            q //= p
        return out
    for p in _MR_BASES:
        while q % p == 0:
            out[p] = out.get(p, 0) + 1
            q //= p
    stack = [q] if q > 1 else []
    while stack:
        n = stack.pop()
        if _is_prime(n):
            out[n] = out.get(n, 0) + 1
        else:
            d = _brent_factor(n)
            stack += [d, n // d]
    return dict(sorted(out.items()))


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n > 41 without a factor in _MR_BASES."""
    if n >= _MR_BOUND:
        raise ValueError(f"cannot certify the primality of {n}: "
                         f"factorize is exact below {_MR_BOUND}")
    if n < 43 * 43:
        return True
    s = ((n - 1) & (1 - n)).bit_length() - 1     # n - 1 = d 2^s, d odd
    d = (n - 1) >> s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _brent_factor(n: int) -> int:
    """A proper factor of the odd composite n: Pollard's rho with Brent's
    power-of-two cycle detection (Brent, BIT 1980)."""
    for c in range(1, n):
        y, r, g = 2, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
                g = math.gcd(x - y, n)
                if g != 1:
                    break
            r *= 2
        if g != n:
            return g
    raise ArithmeticError(f"no factor of {n} found")


def divisors_of(q: int, sieve_bound: int = DEFAULT_SIEVE_BOUND) -> list:
    fac = factorize(q, sieve_bound)
    divs = [1]
    for p, e in fac.items():
        divs = [d * p ** k for d in divs for k in range(e + 1)]
    divs.sort()
    return divs


@dataclass(frozen=True)
class DivisorTable:
    q: int
    divisors: tuple
    d: int
    F: Enclosure

    def __post_init__(self):
        ds = set(self.divisors)
        assert all(self.q % r == 0 and self.q // r in ds for r in self.divisors)
        assert self.d == len(self.divisors)


@lru_cache(maxsize=None)
def _log2_cached(n: int, bits: int) -> Enclosure:
    return log2_enclosure(n, bits)


def F_of(q: int, width_bits: int = 32) -> Enclosure:
    """Enclosure of F(q) = sum over r|q of log2(r)/r, width <= 2^-width_bits."""
    if q < 1:
        raise ValueError("F needs q >= 1")
    divs = divisors_of(q)
    # per-term slack: width_bits + headroom for the number of terms
    bits = width_bits + max(len(divs).bit_length(), 1) + 1
    lo = Fraction(0)
    hi = Fraction(0)
    for r in divs:
        if r == 1:
            continue
        e = _log2_cached(r, bits)
        lo += e.lo / r
        hi += e.hi / r
    return Enclosure(lo, hi)


def divisor_table(q: int) -> DivisorTable:
    divs = divisors_of(q)
    return DivisorTable(q, tuple(divs), len(divs), F_of(q))


def divisor_counts(N: int) -> np.ndarray:
    """d(q) for q = 0..N (index 0 unused), by harmonic slice sweeps."""
    d = np.zeros(N + 1, dtype=np.int32)
    for r in range(1, N + 1):
        d[r::r] += 1
    return d


# ---------------------------------------------------------------------------
# Rigorous bulk log2 (table-driven, vectorized)
# ---------------------------------------------------------------------------

_TABLE_BITS = 12


@lru_cache(maxsize=4)
def _log2_table(table_bits: int = _TABLE_BITS):
    """Rigorous lower/upper tables for log2(1 + i/2^tb) on the unit grid."""
    size = 1 << table_bits
    lo = np.zeros(size + 1, dtype=np.float64)
    hi = np.zeros(size + 1, dtype=np.float64)
    for i in range(size + 1):
        # int / int is correctly rounded, as float() of the Fraction is
        l, h, w = log2_scaled((1 << table_bits) + i, 40)
        lo[i] = l / (1 << w) - table_bits
        hi[i] = h / (1 << w) - table_bits
    return lo, hi


def log2_bounds_vector(ns: np.ndarray):
    """(lo, hi) float64 arrays bracketing log2 of positive int64 values.

    Table lookup on the top _TABLE_BITS mantissa bits; the bracket absorbs
    the grid step (~1.8e-4), which is plenty for averaged aggregates.
    """
    lo_t, hi_t = _log2_table()
    ns = ns.astype(np.int64)
    # k = floor(log2 n), exactly, via shift cascades on int64
    k = np.zeros_like(ns)
    v = ns.copy()
    for shift in (32, 16, 8, 4, 2, 1):
        mask = v >= (1 << shift)
        k[mask] += shift
        v[mask] >>= shift
    idx_lo = (ns << _TABLE_BITS >> k) - (1 << _TABLE_BITS)   # floor((m-1)*2^tb)
    idx_lo = np.clip(idx_lo, 0, 1 << _TABLE_BITS)
    idx_hi = np.minimum(idx_lo + 1, 1 << _TABLE_BITS)
    pad = 2.0 ** -38  # table endpoint width + float eval slack
    return k + lo_t[idx_lo] - pad, k + hi_t[idx_hi] + pad


def F_average(Q: int) -> Enclosure:
    """(1/Q) * sum_{q <= Q} F(q), via the divisor-swap identity
    sum_{q<=Q} F(q) = sum_{r<=Q} (log2 r / r) * floor(Q/r), O(Q) time."""
    if Q < 1:
        raise ValueError("Q must be >= 1")
    if Q == 1:
        return Enclosure.exact(0)
    if Q <= 65536:
        # dyadic accumulation: floor/ceil each term, a bound of log2 r on
        # the 2^-w grid times floor(Q/r) / r, onto the 2^-64 grid so the
        # running sum stays a pair of plain integers
        shift = 64
        lo_acc = 0
        hi_acc = 0
        for r in range(2, Q + 1):
            lo, hi, w = log2_scaled(r, 48)
            m = (Q // r) << shift
            lo_acc += lo * m // (r << w)
            hi_acc -= -hi * m // (r << w)
        scale = Q << shift
        return Enclosure(Fraction(lo_acc, scale), Fraction(hi_acc, scale))
    rs = np.arange(2, Q + 1, dtype=np.int64)
    lo_l, hi_l = log2_bounds_vector(rs)
    weight = (Q // rs).astype(np.float64) / rs
    # directed rounding slack for the float accumulation: pairwise summation
    # of n terms keeps the relative error under ~log2(n) ulp
    slack = 1 + 2.0 ** -40
    lo_sum = float(np.sum(lo_l * weight))
    hi_sum = float(np.sum(hi_l * weight))
    lo_sum, hi_sum = min(lo_sum, hi_sum), max(lo_sum, hi_sum)
    lo_b = Fraction(lo_sum) * (1 / Fraction(slack)) / Q
    hi_b = Fraction(hi_sum) * Fraction(slack) / Q
    return Enclosure(lo_b, hi_b)


def F_sum_direct(Q: int, width_bits: int = 24) -> Enclosure:
    """sum_{q <= Q} F(q) by per-q divisor enumeration; the independent slow
    route used to cross-check the divisor-swap identity."""
    shift = 64
    lo_acc = 0
    hi_acc = 0
    for q in range(1, Q + 1):
        e = F_of(q, width_bits=width_bits)
        lo_acc += math.floor(e.lo * (1 << shift))
        hi_acc += math.ceil(e.hi * (1 << shift))
    return Enclosure(Fraction(lo_acc, 1 << shift), Fraction(hi_acc, 1 << shift))
