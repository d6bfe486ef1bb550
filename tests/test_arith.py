import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from mdl.arith import (
    DivisorTable,
    F_average,
    F_of,
    F_sum_direct,
    _TABLE_BITS,
    _log2_table,
    divisor_counts,
    divisor_table,
    divisors_of,
    factorize,
)
from mdl.realnum import Enclosure
from oracles import f_average_fraction, log2_table_fraction

F = Fraction


def test_divisor_table_examples():
    t = divisor_table(6)
    assert t.divisors == (1, 2, 3, 6) and t.d == 4
    t1 = divisor_table(1)
    assert t1.divisors == (1,) and t1.d == 1
    assert t1.F == Enclosure.exact(0)
    t4 = divisor_table(4)
    assert t4.F.contains(1) and t4.F.width <= F(1, 2**32)


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
    assert F_of(2).contains(F(1, 2)) and F_of(2).width <= F(1, 2**32)
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
    assert F_average(2).contains(F(1, 4))


def test_divisor_swap_identity_matches_direct():
    """The O(Q) swap route and the per-q route bracket the same number."""
    for Q in (10, 100, 2000, 10**4):
        swap = F_average(Q) * Q
        direct = F_sum_direct(Q)
        assert swap.overlaps(direct), (Q, float(swap.mid), float(direct.mid))
        assert direct.width < F(1, 10**4)


def test_F_average_large_vectorized_path():
    e = F_average(10**5)
    assert 1.33 < float(e.mid) < 1.36
    assert float(e.width) < 1e-3
    # continuity across the exact/vectorized path boundary
    lo_path = F_average(65536)
    hi_path = F_average(65537)
    assert abs(float(lo_path.mid) - float(hi_path.mid)) < 1e-3


@pytest.mark.parametrize("Q", [2, 3, 1000, 65536])
def test_F_average_exact_path_matches_the_fraction_route(Q):
    """The integer products give the same floors as the Fraction ones."""
    assert F_average(Q) == f_average_fraction(Q)


def test_log2_table_matches_the_fraction_route():
    lo, hi = _log2_table()
    want_lo, want_hi = log2_table_fraction(_TABLE_BITS)
    assert lo.tobytes() == want_lo.tobytes()
    assert hi.tobytes() == want_hi.tobytes()


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
