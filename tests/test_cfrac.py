import math
from fractions import Fraction

import mpmath
import pytest

from mdl.cfrac import (
    CFExpansion,
    _best_candidate,
    expand,
    min_dist,
    omega_schedule,
    omega_schedule_lemma3,
    sigma_pair,
    sigma_single,
)
from mdl.realnum import DependenceError, FormEvaluator, RealParam
from oracles import witness_verifies

F = Fraction


def test_expand_sqrt2(sqrt2):
    cf = expand(sqrt2, 4)
    assert cf.quotients == (1, 2, 2, 2, 2)
    assert cf.convergents == ((1, 1), (3, 2), (7, 5), (17, 12), (41, 29))


def test_expand_golden(golden):
    assert expand(golden, 3).quotients == (1, 1, 1, 1)


def test_expand_rational_terminates():
    cf = expand(RealParam.rational(F(3, 7)), 10)
    assert cf.quotients == (0, 2, 3)
    assert cf.terminated
    assert cf.convergents[-1] == (3, 7)


def test_expand_rejects_decimal():
    with pytest.raises(ValueError):
        expand(RealParam.decimal("1.41", F(1, 100)), 3)


@pytest.mark.parametrize("param,value", [
    ("sqrt2", mpmath.sqrt(2)), ("golden", (1 + mpmath.sqrt(5)) / 2)])
def test_convergent_quality(param, value, request):
    """|alpha - p_k/q_k| < 1/(q_k q_{k+1}) for every computed convergent."""
    alpha = request.getfixturevalue(param)
    mpmath.mp.prec = 200
    cf = expand(alpha, 15)
    for k in range(len(cf.convergents) - 1):
        p, q = cf.convergents[k]
        q_next = cf.convergents[k + 1][1]
        assert abs(value - mpmath.mpf(p) / q) < mpmath.mpf(1) / (q * q_next)


def test_min_dist_examples(sqrt2, golden):
    d, n = min_dist(golden, 5)
    assert n == 5 and abs(float(d.mid) - 0.0901699) < 1e-4
    d, n = min_dist(sqrt2, 5)
    assert n == 5 and abs(float(d.mid) - 0.0710678) < 1e-4
    d, n = min_dist(sqrt2, 1)
    assert n == 1
    assert d.contains(F(665857, 470832) - 1) or float(d.mid) == pytest.approx(
        math.sqrt(2) - 1, abs=1e-12)


def test_min_dist_brute_force_oracle(sqrt2, golden):
    """Brute-force minimum over n <= N agrees, and the minimum over any
    prefix up to a convergent denominator is attained at that denominator."""
    for alpha in (sqrt2, golden, RealParam.log2(3)):
        fe = FormEvaluator([alpha], 0)
        denoms = [q for _, q in expand(alpha, 16).convergents if q <= 1000]
        for N in [1, 2, 3, 10, 137, 1000]:
            d, n = min_dist(alpha, N)
            best = min(range(1, N + 1),
                       key=lambda m: fe.dist_enclosure((m,)).mid)
            assert n == best
            assert d.overlaps(fe.dist_enclosure((best,)))
        for qk in denoms:
            _, n = min_dist(alpha, qk)
            assert n == qk


def test_sigma_single_examples(sqrt2):
    entry = sigma_single(sqrt2, 5)
    assert entry.witness == (2,)
    assert abs(float(entry.value.mid) - 2.5431) < 2e-3
    entry2 = sigma_single(sqrt2, 2)
    assert abs(float(entry2.value.mid) - 2.5431) < 2e-3


def test_sigma_single_oracle(sqrt2, golden):
    """Exhaustive float oracle for the max exponent."""
    for alpha, av in ((sqrt2, math.sqrt(2)), (golden, (1 + 5**0.5) / 2)):
        for N in (2, 7, 33):
            entry = sigma_single(alpha, N)
            best = max(
                -math.log2(min((n * av) % 1, 1 - (n * av) % 1)) / math.log2(n)
                for n in range(2, N + 1))
            assert float(entry.value.mid) == pytest.approx(best, rel=1e-9)


def test_sigma_single_rejects(sqrt2):
    with pytest.raises(ValueError):
        sigma_single(RealParam.rational(F(2, 3)), 5)
    with pytest.raises(ValueError):
        sigma_single(RealParam.decimal("1.41", F(1, 10**6)), 5)
    with pytest.raises(ValueError):
        sigma_single(sqrt2, 1)
    # override admits the literal
    entry = sigma_single(RealParam.decimal("1.414213562373", F(1, 10**12)), 4,
                         allow_decimal=True)
    assert entry.witness


def test_sigma_monotone(sqrt2):
    values = [sigma_single(sqrt2, N).value for N in (2, 5, 10, 50, 200)]
    for a, b in zip(values, values[1:]):
        assert b.hi >= a.lo


def test_sigma_pair_examples(sqrt2, sqrt3):
    entry = sigma_pair(sqrt2, sqrt3, 2)
    assert entry.witness == (1, -2)
    assert abs(float(entry.value.mid) - 4.3249) < 1e-2
    with pytest.raises(DependenceError) as exc:
        sigma_pair(sqrt2, sqrt2, 4)
    assert exc.value.witness == (1, -1)
    with pytest.raises(DependenceError):
        sigma_pair(sqrt2, RealParam.sqrt(8), 6)


def test_sigma_pair_equal_decimals_collapse_at_the_first_witness():
    dec = RealParam.decimal("1.4142", F(1, 10**6))
    with pytest.raises(DependenceError) as exc:
        sigma_pair(dec, RealParam.decimal("1.4142", F(1, 10**6)), 30,
                   allow_decimal=True)
    assert exc.value.witness == (1, -1)
    assert str(exc.value) == "rational dependence detected: witness (1, -1)"
    # distinct literals share no group: no syntactic refusal
    assert sigma_pair(dec, RealParam.decimal("1.7320", F(1, 10**6)), 3,
                      allow_decimal=True).witness


def test_sigma_pair_dominates_single(sqrt2, sqrt3):
    for N in (2, 5, 20):
        sp = sigma_pair(sqrt2, sqrt3, N)
        ss = sigma_single(sqrt2, N)
        assert sp.value.hi >= ss.value.lo


def test_sigma_pair_witness_verifies(sqrt2, sqrt3):
    entry = sigma_pair(sqrt2, sqrt3, 12)
    fe = FormEvaluator([sqrt2, sqrt3], 0)
    assert witness_verifies(entry, fe)


def test_scaling_of_witnesses(sqrt2, sqrt3):
    """A witness (k1,k2) of (g,b) maps to (k1*M2, k2*M1) for (M1 g, M2 b):
    same linear form scaled by M1 M2, so the distance grows by at most
    M1*M2 and the height by at most max(M1,M2) when min(M1,M2) = 1."""
    fe = FormEvaluator([sqrt2, sqrt3], 0)
    N = 10
    entry = sigma_pair(sqrt2, sqrt3, N)
    k1, k2 = entry.witness
    d = fe.dist_enclosure((k1, k2))
    for M1, M2 in ((2, 1), (1, 3), (3, 1)):
        scaled = FormEvaluator([RealParam.sqrt(2 * M1 * M1),
                                RealParam.sqrt(3 * M2 * M2)], 0)
        dd = scaled.dist_enclosure((k1 * M2, k2 * M1))
        assert dd.lo <= max(M1, M2) * d.hi + F(1, 2**90)
        assert max(abs(k1 * M2), abs(k2 * M1)) <= max(M1, M2) * N


def test_omega_schedule_examples():
    assert omega_schedule(4, F(1)) == 1          # log2 log2 4 = 1
    assert omega_schedule(2, F(1)) == 1
    assert omega_schedule(1, F(17, 5)) == 1
    v = omega_schedule(2**16, F(1, 10))
    assert abs(float(v) - 0.1 / math.sqrt(2)) < 1e-8
    assert v <= F(1, 10) / 1                      # rounded down
    with pytest.raises(ValueError):
        omega_schedule(0, F(1))
    with pytest.raises(ValueError):
        omega_schedule(4, F(0))


def test_omega_schedule_lemma3():
    assert omega_schedule_lemma3(4, F(1)) == 1
    v = omega_schedule_lemma3(2**16, F(1))
    assert abs(float(v) - 0.5) < 1e-8            # 1/sqrt(log2 log2 2^16) = 1/2


def test_cf_invariant_determinant(sqrt2, golden):
    for alpha in (sqrt2, golden):
        cf = expand(alpha, 12)
        ps = cf.convergents
        for k in range(1, len(ps)):
            p1, q1 = ps[k]
            p0, q0 = ps[k - 1]
            assert p1 * q0 - p0 * q1 == (-1) ** (k - 1)
            assert math.gcd(p1, q1) == 1
            assert q1 > q0 or k == 1


def test_cap_tie_returns_the_hull(sqrt2, sqrt3):
    """The exponents of (-12, 35) and (-1, 26) differ by about 2e-8, so at
    a 31-bit cap they stay tied.  The lexicographic winner (-12, 35) is the
    smaller one: its own enclosure misses the maximum, the hull holds
    both."""
    fe = FormEvaluator([sqrt2, sqrt3], 0)
    enc, witness = _best_candidate([(-12, 35), (-1, 26)], fe, 31)
    assert witness == (-12, 35)
    with mpmath.workdps(60):
        lo = mpmath.mpf(enc.lo.numerator) / enc.lo.denominator
        hi = mpmath.mpf(enc.hi.numerator) / enc.hi.denominator
        for k1, k2 in ((-12, 35), (-1, 26)):
            v = k1 * mpmath.sqrt(2) + k2 * mpmath.sqrt(3)
            expo = -mpmath.log(abs(v - mpmath.nint(v)), 2) \
                / mpmath.log(max(-k1, k2), 2)
            assert lo <= expo <= hi
