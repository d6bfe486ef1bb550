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

from .realnum import (Enclosure, _atanh_inv, log2_enclosure, log2_scaled,
                      round_outward)

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
        # a composite up to limit has its smallest prime factor below
        # isqrt(limit); the entries left at 0 are the primes (and index 0)
        for p in range(2, math.isqrt(limit) + 1):
            if spf[p] == 0:
                spf[p * p::p][spf[p * p::p] == 0] = p
        unset = np.flatnonzero(spf == 0)
        spf[unset] = unset
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


def divisors_of(q: int) -> list:
    fac = factorize(q)
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


def F_of(q: int) -> Enclosure:
    """Enclosure of F(q) = sum over r|q of log2(r)/r, width <= 2^-32."""
    if q < 1:
        raise ValueError("F needs q >= 1")
    divs = divisors_of(q)
    # per-term slack: 32 bits + headroom for the number of terms
    bits = 32 + max(len(divs).bit_length(), 1) + 1
    lo = Fraction(0)
    hi = Fraction(0)
    for r in divs:
        e = _log2_cached(r, bits)
        lo += e.lo / r
        hi += e.hi / r
    return Enclosure(lo, hi)


def divisor_table(q: int) -> DivisorTable:
    divs = divisors_of(q)
    return DivisorTable(q, tuple(divs), len(divs), F_of(q))


def _em_terms(x: int) -> tuple:
    """(n_a, n_b, den): g/2 + g'/12 - g'''/720 + g^(5)/30240 at t = x is
    (log2(x) n_a + log2(e) n_b) / den, with n_a, n_b > 0 for x >= 1."""
    x2 = x * x
    return (x2 * (x2 * (7560 * x - 1260) + 126) - 60,
            x2 * (1260 * x2 - 231) + 137, 15120 * x2 * x2 * x2)


def _F_average_hyperbola(Q: int) -> Enclosure:
    """F_average(Q) = T(Q) / Q for Q >= 121, in O(sqrt Q) time and O(1)
    memory; T(Q) = sum_{r=2}^{Q} g(r) floor(Q/r), g(t) = log2(t) / t.

    Hyperbola identity at u = isqrt(Q) (Tenenbaum, Introduction to Analytic
    and Probabilistic Number Theory, I.3.2): T(Q) = sum_{r=2}^{u} g(r)
    floor(Q/r) + sum_{s=1}^{u} D(floor(Q/s)), D(x) = sum_{r=u+1}^{x} g(r),
    where each floor(Q/s) >= u and D(u) = 0.  Euler-Maclaurin (Apostol, Amer.
    Math. Monthly 106, 1999): D(x) = Psi(x) - Psi(u+1) + g(u+1) + R, with
    Psi = (ln 2 / 2) log2(t)^2 + g/2 + g'/12 - g'''/720 + g^(5)/30240 and
    g^(n)(t) = (-1)^n n! (log2(t) - H_n log2(e)) / t^(n+1), H_n harmonic.
    For t >= 12, g^(6) > 0 > g^(5), so |R| <= int |g^(6)| / 30240 <=
    |g^(5)(u+1)| / 30240, as 2 zeta(6) / (2 pi)^6 = 1/30240: hence u >= 11.
    The 2u + 1 logs are `log2_scaled(., 96)`, ln 2 = 2 atanh(1/3), and the
    sums over s are outward-rounded ints on the logs' grid."""
    u = math.isqrt(Q)
    if u < 11:
        raise ValueError("the hyperbola route needs Q >= 121")
    lo_t = hi_t = 0         # sum_{r <= u} g(r) floor(Q/r) + sum_s log2(x) n_a / den
    for r in range(2, u + 1):
        lo, hi, w = log2_scaled(r, 96)
        lo_t += lo * (Q // r) // r
        hi_t -= -hi * (Q // r) // r
    n = u if Q // u > u else u - 1      # floor(Q/s) = u only at s = u
    lo_sq = hi_sq = lo_b = hi_b = 0
    for s in range(1, n + 1):
        x = Q // s
        lo, hi, w = log2_scaled(x, 96)
        na, nb, den = _em_terms(x)
        lo_sq += lo * lo
        hi_sq += hi * hi
        lo_t += lo * na // den
        hi_t -= -hi * na // den
        lo_b += (nb << w) // den
        hi_b -= -(nb << w) // den
    h, e = _atanh_inv(3, 2 * w)
    ln2_half = Enclosure.dyadic(h, h + e, 2 * w)
    log2e = (2 * ln2_half).reciprocal()
    v = u + 1
    lv = log2_enclosure(v, 96)
    na, nb, den = _em_terms(v)
    psi_v = (ln2_half * lv.power(2) + lv * Fraction(na - 15120 * v ** 5, den)
             + log2e * Fraction(nb, den))       # Psi(v) - g(v)
    rem = n * ((lv - log2e * Fraction(137, 60)) / (252 * v ** 6)).hi
    T = (Enclosure.dyadic(lo_t, hi_t, w) + ln2_half * Enclosure.dyadic(lo_sq, hi_sq, 2 * w)
         + log2e * Enclosure.dyadic(lo_b, hi_b, w) - n * psi_v + Enclosure(-rem, rem))
    lo, hi = round_outward(*T.lo.as_integer_ratio(), *T.hi.as_integer_ratio(), w)
    return Enclosure(Fraction(lo, Q << w), Fraction(hi, Q << w))


def F_average(Q: int) -> Enclosure:
    """(1/Q) * sum_{q <= Q} F(q), via the divisor-swap identity
    sum_{q<=Q} F(q) = sum_{r<=Q} (log2 r / r) * floor(Q/r): term by term on
    dyadic ints up to Q = 65536, O(Q) time and 53 certified bits; above, by
    `_F_average_hyperbola` in O(sqrt Q).  That route is the tighter from
    about Q = 10^4 (35 against 53 bits at 121, 62 at 65536); the switch
    stays at 65536 so that every enclosure up to there is unchanged."""
    if Q < 1:
        raise ValueError("Q must be >= 1")
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
    return _F_average_hyperbola(Q)
