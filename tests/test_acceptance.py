"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Every tolerance is pinned here; derived thresholds were frozen
from the stated oracles before the assertions were written.
"""

import math
import random
import time
from fractions import Fraction

import mpmath
import oracles
import pytest

from mdl import arith, cfrac, circlesets, discrepancy, gallagher
from mdl.gallagher import ApproxFunction, FibreContext, PsiPrime, SupportState
from mdl.realnum import Enclosure, RealParam, log2_enclosure

F = Fraction
SEED = 2026

SQRT2 = RealParam.sqrt(2)
SQRT3 = RealParam.sqrt(3)
GOLDEN = RealParam.const("golden")
R0 = RealParam.rational(0)


def gate(name: str, ok: bool, detail: str = ""):
    line = f"{'PASS' if ok else 'FAIL'}  {name}" + (f"  [{detail}]" if detail else "")
    print(line, flush=True)
    assert ok, line


def test_criterion_1_measure_identity():
    """200 pseudo-random arc systems have measure exactly 2 psi (within the
    endpoint slack bars for the irrational shift); under 10 seconds."""
    t0 = time.time()
    rng = random.Random(SEED)
    gammas = [F(0), F(1, 3), SQRT2]
    checked = 0
    for _ in range(200):
        q = rng.randint(1, 1000)
        den = rng.randint(3, 10**6)
        num = rng.randint(1, (den - 1) // 2)
        psi = F(num, den)
        gamma = rng.choice(gammas)
        s = circlesets.build_Aq(psi, gamma, q)
        mb = s.measure_bounds()
        assert oracles.contains(mb, 2 * psi), (q, psi, gamma)
        if isinstance(gamma, F):
            assert mb.is_exact and mb.lo == 2 * psi
        checked += 1
    elapsed = time.time() - t0
    gate("criterion-1 measure identity",
         checked == 200 and elapsed < 10,
         f"200 sets, {elapsed:.2f}s")


def test_criterion_2_master_sweep():
    """Every pair q' < q <= 300 obeys the two-case intersection bound for
    each gamma in {sqrt2, sqrt3, golden} and H in {3, 10}; minimal case-II
    constant finite and at most 100; under 5 minutes."""
    t0 = time.time()
    psi = lambda q: F(1, 4 * q)
    total = viol = case2 = 0
    min_C0 = F(1)
    undecided = 0
    for gamma in (SQRT2, SQRT3, GOLDEN):
        for H in (3, 10):
            for q in range(2, 301):
                for qp in range(1, q):
                    rep = circlesets.master_check(psi, gamma, q, qp, H=H,
                                                  C0=100)
                    total += 1
                    if rep.verdict is None:
                        undecided += 1
                    elif rep.verdict is False:
                        viol += 1
                    if rep.case == "II":
                        case2 += 1
                        if rep.min_C0 > min_C0:
                            min_C0 = rep.min_C0
    elapsed = time.time() - t0
    gate("criterion-2 two-case bound sweep",
         viol == 0 and undecided == 0 and min_C0 <= 100 and elapsed < 300,
         f"{total} checks, {case2} case-II, min C0 {float(min_C0):.3f}, "
         f"{elapsed:.1f}s")


def test_criterion_3_etk_upper_bound():
    """Exact count-error discrepancy never exceeds the ETK bound: 1D for
    alpha in {sqrt2, golden}, N in {1e2, 1e3, 1e4}, every H <= 1e3; 2D grid
    lower bound at N = 1e3, m = 64 for (sqrt2, sqrt3)."""
    violations = 0
    checks = 0
    for alpha in (SQRT2, GOLDEN):
        for N in (100, 1000, 10000):
            nd = discrepancy.star_discrepancy_1d(alpha, N) * N
            for b in discrepancy.etk_bound_sweep([alpha], N, 1000):
                checks += 1
                if not nd.lo <= b.bound.hi:
                    violations += 1
    lower, _ = discrepancy.disc2d_grid(SQRT2, SQRT3, 1000, 64)
    sweep2d = discrepancy.etk_bound_sweep([SQRT2, SQRT3], 1000, 1000)
    for H in (1, 4, 16, 64, 256, 1000):
        checks += 1
        if not lower <= sweep2d[H - 1].bound.hi:
            violations += 1
    gate("criterion-3 ETK upper bound",
         violations == 0,
         f"{checks} comparisons, 2D grid lower {float(lower):.2f}")


def test_criterion_4_discrepancy_exponent_proxy():
    """log2(Q D*) / log2 Q stays at or below 0.2 for the golden rotation at
    Q = 1e5; the threshold was frozen from the Q = 1e4 oracle run (which
    gives ~0.102, safely under 0.2)."""
    pre = discrepancy.star_discrepancy_1d(GOLDEN, 10**4) * (10**4)
    pre_expo = math.log2(float(pre.hi)) / math.log2(10**4)
    assert pre_expo <= 0.2, "pre-run oracle would not have frozen 0.2"
    Q = 10**5
    nd = discrepancy.star_discrepancy_1d(GOLDEN, Q) * Q
    # log2(nd)/log2(Q) <= 1/5  <=>  nd^5 <= Q, exactly
    ok = nd.hi**5 <= Q
    gate("criterion-4 discrepancy exponent proxy", ok,
         f"Q*D* = {float(nd.mid):.4f}, exponent "
         f"{math.log2(float(nd.mid)) / math.log2(Q):.4f} <= 0.2")


def test_criterion_5_f_average():
    """F_average(1e6) within 1% of the series limit, the latter computed by
    direct summation with a rigorous integral tail bound (and cross-checked
    against the zeta-derivative closed form); under 30 seconds."""
    t0 = time.time()
    avg = arith.F_average(10**6)
    R = 20000
    lo = F(0)
    hi = F(0)
    for r in range(2, R + 1):
        e = log2_enclosure(r, 40)
        lo += e.lo / (r * r)
        hi += e.hi / (r * r)
    # tail: sum_{r>R} log2(r)/r^2 <= (log2 R + 1/ln 2 + 1/R)/R, and >= 0
    tail_hi = (log2_enclosure(R, 40).hi + F(3, 2)) / R
    series = Enclosure(lo, hi + tail_hi)
    # independent special-function cross-check of the limit
    mpmath.mp.prec = 80
    zform = float(-mpmath.zeta(2, derivative=1) / mpmath.log(2))
    assert series.lo <= F(int(zform * 10**12), 10**12) <= series.hi + F(1, 10**6)
    diff_hi = max(abs(avg.hi - series.lo), abs(avg.lo - series.hi))
    ok = diff_hi <= series.lo / 100
    elapsed = time.time() - t0
    gate("criterion-5 F-average vs series limit",
         ok and elapsed < 30,
         f"avg {float(avg.mid):.6f}, limit {float(series.mid):.6f}, "
         f"gap {float(diff_hi):.2e}, {elapsed:.1f}s")


def test_criterion_6_bc_ratio():
    """Second-moment ratios stay in (0, 1]; the Q = 2000 run with the
    rational radius family and an irrational shift reproduces itself
    exactly (same enclosure, numerator and denominator) on a second run."""
    configs = [
        (ApproxFunction.const(F(1, 10)), F(0), 50),
        (ApproxFunction.over_q(F(1, 4)), F(1, 3), 80),
        (ApproxFunction.over_q(F(1, 3)), SQRT2, 60),
    ]
    for psi, gamma, Q in configs:
        series = gallagher.bc_ratio(psi, gamma, Q)
        assert series.ratio.lo > 0 and series.ratio.lo <= 1
        assert series.ratio.hi <= 1
    psi = ApproxFunction.over_q(F(1, 4))
    t0 = time.time()
    run1 = gallagher.bc_ratio(psi, SQRT3, 2000, checkpoint_every=2000)
    run2 = gallagher.bc_ratio(psi, SQRT3, 2000, checkpoint_every=2000)
    same = (run1.ratio == run2.ratio
            and run1.final_pair_mass == run2.final_pair_mass)
    ok = same and 0 < run1.ratio.lo and run1.ratio.hi <= 1
    gate("criterion-6 Borel-Cantelli ratio", ok,
         f"ratio {float(run1.ratio.mid):.6f}, width "
         f"{float(run1.ratio.width):.1e}, {time.time() - t0:.1f}s for both runs")


def _pairwise_sum(terms):
    """The exact sum of a list of Fractions, split in halves recursively:
    the same value as a left-to-right sum, with balanced operand sizes."""
    if len(terms) == 1:
        return terms[0]
    mid = len(terms) // 2
    return _pairwise_sum(terms[:mid]) + _pairwise_sum(terms[mid:])


def test_criterion_7_monte_carlo_concordance():
    """Mean hit counts agree with the exact expectations: within 20% for
    the direct radius family 1/(4q) at Q = 1e5, within 25% for the fibred
    family 1/(2q log2(q)^2) with beta = sqrt3, omega = 1/4."""
    pp_direct = PsiPrime(ApproxFunction.over_q(F(1, 4)), SQRT3, R0, None)
    direct = gallagher.mc_survey(SQRT3, pp_direct, 10**5, 200, seed=SEED,
                                 direct=True)
    harmonic_half = _pairwise_sum([F(1, 2 * q) for q in range(1, 10**5 + 1)])
    assert oracles.contains(direct.expected, harmonic_half)
    lo_ok = direct.mean >= F(8, 10) * direct.expected.lo
    hi_ok = direct.mean <= F(12, 10) * direct.expected.hi
    ratio_d = float(direct.mean) / float(direct.expected.mid)

    pp_fib = PsiPrime(ApproxFunction.log2sq_shape(F(1, 2)), SQRT3, R0,
                      F(1, 4))
    fib = gallagher.mc_survey(SQRT3, pp_fib, 10**5, 200, seed=SEED)
    flo_ok = fib.mean >= F(3, 4) * fib.expected.lo
    fhi_ok = fib.mean <= F(5, 4) * fib.expected.hi
    ratio_f = float(fib.mean) / float(fib.expected.mid)
    gate("criterion-7 Monte-Carlo concordance",
         lo_ok and hi_ok and flo_ok and fhi_ok
         and direct.undecided == 0 and fib.undecided == 0,
         f"direct mean/exp {ratio_d:.3f}, fibred mean/exp {ratio_f:.3f}")


def test_criterion_8_sigma_profiles():
    """sigma_pair(sqrt2, sqrt3, N) non-decreasing and at most 5 up to
    N = 200 (against the float brute-force oracle); sigma_single(sqrt2, N)
    at most 2.6 up to N = 1000."""
    prev = F(0)
    ok = True
    for N in (2, 5, 10, 25, 50, 100, 200):
        entry = cfrac.sigma_pair(SQRT2, SQRT3, N)
        ok = ok and entry.value.hi >= prev and float(entry.value.hi) <= 5
        prev = entry.value.lo
    # float oracle at N = 200
    s2, s3 = math.sqrt(2), math.sqrt(3)
    best = 0.0
    for k2 in range(0, 201):
        for k1 in range(-200, 201):
            h = max(abs(k1), k2)
            if h < 2 or (k2 == 0 and k1 <= 0):
                continue
            v = (k1 * s2 + k2 * s3) % 1.0
            d = min(v, 1 - v)
            if d > 0:
                best = max(best, -math.log2(d) / math.log2(h))
    final = cfrac.sigma_pair(SQRT2, SQRT3, 200)
    ok = ok and abs(float(final.value.mid) - best) < 1e-6
    singles = [cfrac.sigma_single(SQRT2, N).value
               for N in (2, 10, 100, 1000)]
    for a, b in zip(singles, singles[1:]):
        ok = ok and b.hi >= a.lo
    ok = ok and float(singles[-1].hi) <= 2.6
    gate("criterion-8 sigma profiles", ok,
         f"pair(200) = {float(final.value.mid):.4f} <= 5, "
         f"single(1000) = {float(singles[-1].mid):.4f} <= 2.6")


def test_criterion_9_partition_and_support():
    """Census cells partition the psi' support exactly for Q = 1e4 across
    three fibre configurations, with zero undecided memberships at the
    default precision cap.  Support and cells come from one level, so the
    partition holds by construction; both are also held to the
    wall-comparison oracle."""
    Q = 10**4
    configs = [
        (SQRT2, F(0), F(1)),
        (SQRT3, F(1, 3), F(1, 2)),
        (GOLDEN, F(1, 2), F(1, 4)),
    ]
    ok = True
    detail = []
    for beta, gp, om in configs:
        pp = PsiPrime(ApproxFunction.const(F(1, 10)), beta,
                      RealParam.rational(gp), om)
        ctx = FibreContext(pp)
        census = gallagher.gl_census(beta, gp, om, Q)
        ok = ok and not census.undecided
        cell_of = {}
        for l, members in census.cells.items():
            for q in members:
                ok = ok and q not in cell_of
                cell_of[q] = l
        supported = 0
        for q in range(1, Q + 1):
            state = ctx.support_state(q)
            ok = ok and state != SupportState.UNDECIDED
            in_support = state == SupportState.IN
            ok = ok and (in_support == (q in cell_of))
            ok = ok and state == oracles.fibre_support(ctx, q)
            if q in cell_of:
                ok = ok and cell_of[q] == oracles.fibre_level(ctx, q)
            if in_support:
                supported += 1
                st, lo, _ = ctx.psi_prime(q)
                ok = ok and st == SupportState.IN and lo > 0
        detail.append(f"{beta.canonical()}:{supported}/{Q}")
    gate("criterion-9 partition and support invariants", ok,
         " ".join(detail))


def test_criterion_10_doubly_metric():
    """Sampled joint-Diophantine failure fraction sits below twice the
    exact truncated union bound sum_{k<=50} 4/k^2 (H' = 3, N = 50, 1e3
    seeded samples)."""
    r = gallagher.doubly_metric_sample(SQRT2, 3, 50, 1000, seed=SEED)
    bound = gallagher.doubly_metric_union_bound(50, F(3))
    oracle = sum(F(4, k * k) for k in range(1, 51))
    assert bound == Enclosure.exact(oracle)
    ok = r.fraction <= 2 * bound.lo and r.fraction <= 1
    gate("criterion-10 doubly metric proxy", ok,
         f"failure fraction {float(r.fraction):.3f} <= 2x bound "
         f"{float(2 * bound.lo):.2f}")


@pytest.mark.parametrize("Hp", [3, 6])
def test_criterion_10_against_the_failure_measure(Hp):
    """The sampled failure fraction of doubly_metric_sample(sqrt 2, H', N =
    12, 4000 samples, seed 7) lies within Hoeffding's eps = sqrt(ln(2/delta)
    / 2n) < 0.043 (delta = 1e-6) of the measure of the set it samples
    (`oracles.doubly_metric_measure`); on the 2^-64 grid of the samples that
    measure moves by less than 2^-40.  The measure stays below the union
    bound sum_{h=2}^{N} (8h - 4) h^-H' of the pairs tested."""
    n, N, eps = 4000, 12, F(43, 1000)
    assert math.sqrt(math.log(2 / 1e-6) / (2 * n)) < eps
    r = gallagher.doubly_metric_sample(SQRT2, Hp, N, n, seed=7)
    m = oracles.doubly_metric_measure(SQRT2, Hp, N)
    bound = sum(F(8 * h - 4, h ** Hp) for h in range(2, N + 1))
    assert m.hi <= bound
    ok = m.lo - eps - F(1, 2**40) <= r.fraction <= m.hi + eps + F(1, 2**40)
    gate(f"criterion-10 failure measure H'={Hp}", ok,
         f"failure fraction {float(r.fraction):.4f}, measure "
         f"[{float(m.lo):.4f}, {float(m.hi):.4f}]")
