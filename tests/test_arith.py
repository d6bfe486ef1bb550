import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from mdl.arith import (
    F_average,
    F_of,
    _F_average_hyperbola,
    _Sieve,
    divisor_table,
    divisors_of,
    factorize,
)
from mdl.realnum import Enclosure
from oracles import (
    F_sum_direct,
    contains,
    divisor_counts,
    f_average_fraction,
    overlaps,
    spf_sieve,
)

F = Fraction


def test_divisor_table_examples():
    t = divisor_table(6)
    assert t.divisors == (1, 2, 3, 6) and t.d == 4
    t1 = divisor_table(1)
    assert t1.divisors == (1,) and t1.d == 1
    assert t1.F == Enclosure.exact(0)
    t4 = divisor_table(4)
    assert contains(t4.F, 1) and t4.F.width <= F(1, 2**32)


def test_divisor_list_closed_under_complement():
    for q in (12, 360, 97, 1024):
        t = divisor_table(q)
        s = set(t.divisors)
        assert all(q // r in s for r in s)


def test_factorize_paths():
    assert factorize(1) == {}
    assert factorize(360) == {2: 3, 3: 2, 5: 1}
    big = 10**14 + 31
    f = factorize(big)
    assert math.prod(p**e for p, e in f.items()) == big


def test_factorize_beyond_the_sieve_agrees_with_the_sieve():
    for q in range(1, 2 * 10**5 + 1):
        assert factorize(q, sieve_bound=1) == factorize(q), q


P61 = 2**61 - 1     # a Mersenne prime


@pytest.mark.parametrize("q, want", [
    (P61, {P61: 1}),
    (3 * P61, {3: 1, P61: 1}),
    (999983 * 1000003, {999983: 1, 1000003: 1}),
    (999979 * 999983, {999979: 1, 999983: 1}),
    (1000003 * 1000033, {1000003: 1, 1000033: 1}),
    (1000003**2, {1000003: 2}),
    (65537**4, {65537: 4}),
    (2**40 * 43**3, {2: 40, 43: 3}),
    (10**12, {2: 12, 5: 12}),
])
def test_factorize_large(q, want):
    assert q > 10**7
    assert factorize(q) == want
    assert list(factorize(q)) == sorted(want)


def test_factorize_refuses_an_uncertified_prime():
    with pytest.raises(ValueError, match="cannot certify"):
        factorize(2**89 - 1)       # a prime past the deterministic range


def test_F_examples():
    assert contains(F_of(2), F(1, 2)) and F_of(2).width <= F(1, 2**32)
    # oracle: direct mpmath summation at high precision
    mpmath.mp.prec = 120
    oracle = mpmath.mpf(0)
    for r in (2, 3, 6):
        oracle += mpmath.log(r, 2) / r
    assert float(F_of(6).mid) == pytest.approx(float(oracle), abs=1e-9)
    assert float(F_of(6).mid) == pytest.approx(1.4591479, abs=1e-6)
    for p in (7, 97, 65537):
        assert float(F_of(p).mid) == pytest.approx(math.log2(p) / p, abs=1e-9)


def test_F_average_small():
    assert F_average(1) == Enclosure.exact(0)
    assert contains(F_average(2), F(1, 4))


def test_divisor_swap_identity_matches_direct():
    """The O(Q) swap route and the per-q route bracket the same number."""
    for Q in (10, 100, 2000, 10**4):
        swap = F_average(Q) * Q
        direct = F_sum_direct(Q)
        assert overlaps(swap, direct), (Q, float(swap.mid), float(direct.mid))
        assert direct.width < F(1, 10**4)


def cert_bits(e: Enclosure) -> float:
    """log2(|mid| / half-width), as the benchmark's cert_bits reads it."""
    return math.log2(abs(e.mid) / (e.width / 2))


def test_F_average_hyperbola_path():
    e = F_average(10**5)
    assert 1.33 < float(e.mid) < 1.36
    assert cert_bits(e) >= 64
    assert cert_bits(F_average(10**6)) >= 70
    # continuity across the switch between the two routes
    lo_path = F_average(65536)
    hi_path = F_average(65537)
    assert abs(float(lo_path.mid) - float(hi_path.mid)) < 1e-3


@pytest.mark.parametrize("Q", [2, 3, 1000, 65536])
def test_F_average_exact_path_matches_the_fraction_route(Q):
    """The integer products give the same floors as the Fraction ones."""
    assert F_average(Q) == f_average_fraction(Q)


def test_F_average_at_10_to_the_8():
    e = F_average(10**8)
    assert 1.35 < float(e.mid) < 1.36
    assert cert_bits(e) >= 64


# perfect squares (an s with floor(Q/s) = u), Q = u(u+1) and u(u+1) - 1
@pytest.mark.parametrize("Q", [121, 131, 132, 144, 1024, 4096, 4159, 4160, 65536])
def test_hyperbola_route_overlaps_the_fraction_route(Q):
    assert overlaps(_F_average_hyperbola(Q), f_average_fraction(Q))


# Q = 121 drops s = u, Q = 143 keeps it; 10^4 is a square again
@pytest.mark.parametrize("Q", [121, 143, 1000, 10**4])
def test_hyperbola_midpoint_is_near_the_truth(Q):
    """The midpoint lies within 1% of the width from a 200-bit mpmath value
    of T(Q)/Q; on this grid it lies within 0.2%.  An error in the
    Euler-Maclaurin terms that the remainder slack still covers, such as
    dropping the g^(5) term (a shift of 35-42% of the width), fails here."""
    e = _F_average_hyperbola(Q)
    with mpmath.workprec(200):
        T = mpmath.fsum(mpmath.log(r) / r * (Q // r) for r in range(2, Q + 1))
        mid = mpmath.mpf(e.mid.numerator) / e.mid.denominator
        width = mpmath.mpf(e.width.numerator) / e.width.denominator
        assert abs(mid - T / (mpmath.log(2) * Q)) <= width / 100


def test_hyperbola_route_is_narrower_than_the_dyadic_path_at_65536():
    assert _F_average_hyperbola(65536).width < F_average(65536).width


def test_hyperbola_route_needs_u_at_least_11():
    with pytest.raises(ValueError):
        _F_average_hyperbola(120)


@pytest.mark.parametrize("limit", [2**16 + 1, 10**5])
def test_sieve_matches_the_loop_over_every_p(limit):
    sieve = _Sieve()
    sieve.ensure(limit)
    assert sieve.limit == limit
    assert np.array_equal(sieve.spf, spf_sieve(limit))


def test_maximal_order_constant():
    """log2 d(q) * log2 log2 q / log2 q stays below 1.75 up to 1e6; the
    exhaustive maximum is ~1.7436 at q = 55440 (so 1.6 would be false)."""
    N = 10**6
    d = divisor_counts(N)
    q = np.arange(3, N + 1, dtype=np.float64)
    val = np.log2(d[3:].astype(np.float64)) * np.log2(np.log2(q)) / np.log2(q)
    mx = float(val.max())
    arg = int(np.argmax(val)) + 3
    assert arg == 55440 and abs(mx - 1.7436) < 1e-3
    assert mx <= 1.75


def test_divisor_tail_bound():
    """sum over r|q, r >= q^(2 omega) of 1/r is at most d(q) q^(-2 omega)
    for omega in {0.05, 0.1}, decided exactly by raising both sides to the
    exponent's denominator."""
    for om_num, om_den in ((1, 10), (1, 5)):   # the value of 2*omega
        for q in range(1, 10**4 + 1):
            divs = divisors_of(q)
            tail = [r for r in divs if r**om_den >= q**om_num]
            if not tail:
                continue
            lhs = sum(F(1, r) for r in tail)
            # lhs <= d(q) q^(-2w)  <=>  lhs^den * q^num <= d(q)^den
            assert lhs**om_den * q**om_num <= len(divs)**om_den, (q, om_num)


def test_F_width_contract():
    for q in (2, 6, 5040, 720720):
        assert F_of(q).width <= F(1, 2**32)
