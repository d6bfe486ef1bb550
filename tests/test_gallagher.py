import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from mdl.gallagher import (
    ApproxFunction,
    FibreContext,
    PSI_PRIME_BITS,
    HitResult,
    NotADivisor,
    PsiPrime,
    SupportState,
    bc_ratio,
    counter_sample,
    divergence_sum,
    doubly_metric_sample,
    doubly_metric_union_bound,
    f_moment_sum,
    gl_census,
    hit_count,
    mc_survey,
    parse_psi,
    sklr_sum,
    union_series,
    _HitSweep,
)
from mdl.arith import F_of
from mdl.realnum import (
    DependenceError,
    Enclosure,
    FormEvaluator,
    RealParam,
    form_lane,
    lane_threshold,
    param_evaluator,
    parse_param,
)
import oracles
from oracles import contains, dist_pow_compare, eval_checked, overlaps

F = Fraction
R0 = RealParam.rational(0)


# ---------------------------------------------------------------------------
# approximation functions
# ---------------------------------------------------------------------------

def test_psi_families():
    assert ApproxFunction.const(F(1, 10)).eval(123).lo == F(1, 10)
    oq = ApproxFunction.over_q(F(1, 2))
    assert oq.eval(4).lo == F(1, 8)
    assert oq.q0 == 2      # psi(1) = 1/2 violates the range
    m2 = parse_psi("mono2:1")
    ref = 1 / (100 * math.log2(100)**2 * math.sqrt(math.log2(math.log2(100))))
    assert float(m2.eval(100).mid) == pytest.approx(ref, rel=1e-9)
    ev = parse_psi("ev:1")
    ref = 1 / (100 * math.log2(100) * math.log2(math.log2(100))**2)
    assert float(ev.eval(100).mid) == pytest.approx(ref, rel=1e-9)
    lsq = ApproxFunction.log2sq_shape(F(1, 2))
    assert float(lsq.eval(16).mid) == pytest.approx(1 / (2 * 16 * 16), rel=1e-12)
    with pytest.raises(ValueError):
        ApproxFunction.const(F(0))
    with pytest.raises(ValueError):
        ApproxFunction.from_table({3: F(1, 2)})
    tab = ApproxFunction.from_table({2: F(1, 8), 3: F(0)})
    assert tab.eval(3).hi == 0


def test_psi_domain_start():
    assert parse_psi("mono2:1").q0 >= 3
    assert parse_psi("ev:1").q0 >= 3
    assert ApproxFunction.const(F(2, 5)).q0 == 1
    for c in (F(1, 2), F(3, 5), F(7)):
        with pytest.raises(ValueError, match="never drops below 1/2"):
            ApproxFunction.const(c).q0
    with pytest.raises(ValueError):
        eval_checked(ApproxFunction.over_q(F(1, 2)), 1)


def test_parse_psi_round_trip():
    for text in ("const:1/10", "overq:1/4", "ev:1", "mono2:1", "log2sq:1/2"):
        p = parse_psi(text)
        assert parse_psi(p.canonical()).canonical() == p.canonical()
    tab = parse_psi("table:2=1/8,5=1/9")
    assert tab.eval(5).lo == F(1, 9)


# ---------------------------------------------------------------------------
# psi'
# ---------------------------------------------------------------------------

def _psi_prime(ctx, q):
    """psi'(q) as (enclosure, support state)."""
    state, lo, hi = ctx.psi_prime(q)
    return Enclosure.dyadic(lo, hi, PSI_PRIME_BITS), state


def test_psi_prime_examples(sqrt2):
    pp = PsiPrime(ApproxFunction.over_q(F(1, 2)), sqrt2, R0, F(1))
    v, state = _psi_prime(FibreContext(pp), 4)
    assert state == SupportState.IN
    assert float(v.mid) == pytest.approx(0.3642767, abs=1e-5)
    v, state = _psi_prime(FibreContext(pp), 2)
    assert state == SupportState.OUT and v.hi == 0


def test_psi_prime_support_invariant(sqrt2):
    """psi'(q) > 0 forces ||q b - g'|| into [q^-omega, 1), checked through
    the independent comparison route."""
    pp = PsiPrime(ApproxFunction.over_q(F(1, 4)), sqrt2, R0, F(1, 2))
    ctx = FibreContext(pp)
    for q in range(1, 400):
        v, state = _psi_prime(ctx, q)
        if v.lo > 0:
            # dist^2 * q >= 1, exactly
            assert dist_pow_compare(ctx.fe, (q,), 2, F(1, q)).name in ("GT", "EQ")
            assert oracles.fibre_dist(ctx, q).hi < 1


def test_psi_prime_bound_by_power(sqrt2):
    """psi'(q) <= psi(q) * q^omega."""
    pp = PsiPrime(ApproxFunction.over_q(F(1, 4)), sqrt2, R0, F(1, 2))
    ctx = FibreContext(pp)
    for q in range(1, 200):
        v, _ = _psi_prime(ctx, q)
        if v.hi > 0:
            # q^(1/2) >= v/psi  <=>  q >= (v/psi)^2
            ratio = v.hi / (F(1, 4 * q))
            assert ratio**2 <= q + 1  # +1 absorbs enclosure width


def test_psi_prime_degenerate_fibre():
    pp = PsiPrime(ApproxFunction.const(F(1, 10)),
                  RealParam.rational(F(1, 3)), R0, None)
    ctx = FibreContext(pp)
    assert ctx.dist_is_zero(3)
    with pytest.raises(DependenceError):
        ctx.psi_prime(3)


def test_divergence_sum_example(sqrt2):
    pp = PsiPrime(ApproxFunction.over_q(F(1, 2)), sqrt2, R0, F(1))
    r = divergence_sum(pp, 4)
    assert r.contributing == 1 and r.undecided == 0
    assert float(r.total.mid) == pytest.approx(0.3642767, abs=1e-5)
    assert divergence_sum(pp, 1).total.hi == 0
    # monotone in Q
    prev = F(0)
    for Q in (4, 8, 16, 64):
        t = divergence_sum(pp, Q).total
        assert t.hi >= prev
        prev = t.lo


# ---------------------------------------------------------------------------
# census
# ---------------------------------------------------------------------------

def test_census_example(sqrt2):
    c = gl_census(sqrt2, 0, F(1), 4)
    assert c.members(0) == [4]
    assert c.undecided == []


def test_census_empty_high_cells(sqrt2):
    # cells with 2^l q^-omega >= 1 cannot hold any q
    c = gl_census(sqrt2, 0, F(1), 64)
    for l, members in c.cells.items():
        for q in members:
            assert 2**l < q    # 2^l q^-1 < 1


def test_census_partitions_support(sqrt2, sqrt3):
    for beta, gp, om in ((sqrt2, 0, F(1)), (sqrt3, F(1, 3), F(1, 2)),
                         (sqrt2, 0, F(1, 4))):
        pp = PsiPrime(ApproxFunction.const(F(1, 10)), beta,
                      RealParam.rational(F(gp)), om)
        ctx = FibreContext(pp)
        c = gl_census(beta, gp, om, 500)
        assert not c.undecided
        seen = {}
        for l, members in c.cells.items():
            for q in members:
                assert q not in seen
                seen[q] = l
        for q in range(1, 501):
            state = ctx.support_state(q)
            assert (state == SupportState.IN) == (q in seen)


# ---------------------------------------------------------------------------
# stratified counts and moments
# ---------------------------------------------------------------------------

def test_sklr_validation(sqrt2, sqrt3):
    pp = PsiPrime(ApproxFunction.const(F(1, 24)), sqrt2, R0, F(1))
    with pytest.raises(NotADivisor):
        sklr_sum(pp, sqrt3, 12, 1, 0, 5)
    assert sklr_sum(pp, sqrt3, 12, 10, 0, 4).count == 0   # empty dyadic band


def test_sklr_enumeration_oracle(sqrt2, sqrt3):
    """Independent enumeration of the stratified count at (q=12, r=4,
    k=1, l=0)."""
    pp = PsiPrime(ApproxFunction.const(F(1, 24)), sqrt2, R0, F(1))
    ctx = FibreContext(pp)
    r = sklr_sum(pp, sqrt3, 12, 1, 0, 4)
    # oracle: brute force over the dyadic band [3, 6]
    expected = []
    psq, _ = _psi_prime(ctx, 12)
    for qp in (3, 4, 5, 6):
        if qp == 12 or math.gcd(qp, 12) != 4:
            continue
        if ctx.support_state(qp) != SupportState.IN or ctx.cell_of(qp) != 0:
            continue
        pspq, _ = _psi_prime(ctx, qp)
        thr = (pspq * 12 + psq * qp) * F(1, 4)
        d = (qp - 12) // 4 * math.sqrt(3)
        dist = abs(d - round(d))
        if dist <= float(thr.mid):
            expected.append(qp)
    assert r.members == expected
    assert r.undecided == 0


def _counting_levels(monkeypatch):
    """A Counter of the q that `FibreContext.levels` yields from now on."""
    seen = Counter()
    real = FibreContext.levels

    def counting(self, qs, top=None):
        for item in real(self, qs, top):
            seen[item[0]] += 1
            yield item

    monkeypatch.setattr(FibreContext, "levels", counting)
    return seen


def test_sklr_decides_each_level_once(monkeypatch, sqrt2, sqrt3):
    """One level per fibre point: the level of q' decides its support, and
    psi'(q') does not decide it again; here every level is read off the
    running first rung, so the fibre climbs no ladder."""
    pp = PsiPrime(ApproxFunction.over_q(F(1, 4)), sqrt2, R0, F(1, 2))
    seen = _counting_levels(monkeypatch)
    ladders = Counter()
    real = FormEvaluator.decide

    def counting(self, coeffs, verdict, shift=0):
        if self.params == (sqrt2,):     # the fibre, not gamma's indicator
            ladders[tuple(coeffs)] += 1
        return real(self, coeffs, verdict, shift)

    monkeypatch.setattr(FormEvaluator, "decide", counting)
    r = sklr_sum(pp, sqrt3, 120, 0, 1, 1)
    assert r.count == 11 and r.undecided == 0
    band = [qp for qp in range(60, 121) if math.gcd(qp, 120) == 1]
    assert seen == Counter({q: 1 for q in band + [120]})
    assert ladders == Counter()


def _counting_calls(monkeypatch, cls, names):
    """A Counter of the calls to the methods `names` of `cls` from now on."""
    calls = Counter()
    for name in names:
        def counting(self, *args, _real=getattr(cls, name), _name=name,
                     **kwargs):
            calls[_name] += 1
            return _real(self, *args, **kwargs)
        monkeypatch.setattr(cls, name, counting)
    return calls


def test_divergence_sum_takes_one_window_per_q(monkeypatch, sqrt3):
    """psi'(q) divides by the window its level decision took: here every
    window is the running first rung, so neither `frac_window` nor
    `positive_windows` takes a second one."""
    calls = _counting_calls(monkeypatch, FormEvaluator,
                            ("frac_window", "positive_windows"))
    pp = PsiPrime(ApproxFunction.log2sq_shape(F(1, 2)), sqrt3, R0, F(1, 4))
    r = divergence_sum(pp, 2000)
    assert (pp.psi.q0, r.contributing, r.undecided) == (2, 1208, 0)
    assert calls == Counter()


def test_an_untruncated_divergence_sum_takes_no_second_window(monkeypatch,
                                                              sqrt2):
    """With omega None there is no level to decide, and psi'(q) still
    divides by the running first rung: no q takes a window of its own."""
    calls = _counting_calls(monkeypatch, FormEvaluator,
                            ("frac_window", "positive_windows", "decide"))
    pp = PsiPrime(ApproxFunction.over_q(F(1, 4)), sqrt2, R0, None)
    r = divergence_sum(pp, 2000)
    assert (pp.psi.q0, r.contributing, r.undecided) == (1, 2000, 0)
    assert calls == Counter()


def test_a_rational_fibre_reads_its_levels_off_the_first_rung(monkeypatch):
    """A form that collapses to a rational at every q takes its level off
    the running first rung like any other: ||2q/7 - 1/3|| never straddles
    a wall of omega = 1/2 there, so no q climbs the ladder, and every cell
    is the one that the exact distance gives."""
    calls = _counting_calls(monkeypatch, FibreContext, ("_level",))
    census = gl_census(parse_param("rat:2/7"), F(1, 3), F(1, 2), 2500)
    assert calls == Counter() and census.undecided == []
    want = {}
    for q in range(1, 2501):
        x = F(2 * q, 7) - F(1, 3)
        d = abs(x - round(x))
        # the level l >= 0 has 4^l <= d^2 q < 4^(l+1)
        l, v = -1, d * d * q
        while v >= 1:
            l, v = l + 1, v / 4
        if l >= 0:
            want.setdefault(l, []).append(q)
    assert census.cells == want


def test_hit_sweep_decides_each_support_once(monkeypatch, sqrt3):
    """The fibred sweep takes psi' along `FibreContext.levels`, which
    decides the support of each q >= q0 once."""
    seen = _counting_levels(monkeypatch)
    pp = PsiPrime(ApproxFunction.log2sq_shape(F(1, 2)), sqrt3, R0, F(1, 4))
    _HitSweep(sqrt3, pp, 300, direct=False)
    assert seen == Counter({q: 1 for q in range(pp.psi.q0, 301)})


def test_sklr_counts_an_undecided_cell(sqrt3):
    """A decimal fibre whose window never narrows: q' = 355 is in the
    support, but its cell is undecided at the cap, so it is counted as
    undecided, not dropped."""
    pp = PsiPrime(ApproxFunction.over_q(F(1, 4)),
                  parse_param("dec:0.4142135@1e-6"), R0, F(1))
    ctx = FibreContext(pp, cap=512)
    assert ctx.support_state(355) == SupportState.IN
    assert ctx.cell_of(355) is None
    r = sklr_sum(pp, sqrt3, 356, 0, 0, 1, cap=512)
    band = [qp for qp in range(178, 356) if math.gcd(qp, 356) == 1]
    assert r.undecided >= sum(1 for qp in band if ctx.cell_of(qp) is None) >= 1


_LEVEL_BETAS = ("sqrt:2", "sqrt:3", "const:golden", "log2:3", "const:pi",
                "rat:2/7", "rat:1/3", "dec:0.4142135@1e-6")
_LEVEL_GPS = ("rat:0", "rat:1/3", "sqrt:5", "sqrt:2")
_LEVEL_OMEGAS = (F(1, 2), F(1), F(1, 4), F(3, 2), F(2, 3), F(7, 5),
                 ("main2", F(1)), ("lemma3", F(1, 2)))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_LEVEL_BETAS), st.sampled_from(_LEVEL_GPS),
       st.sampled_from(_LEVEL_OMEGAS), st.integers(1, 5000))
@example("const:golden", "sqrt:5", F(1, 2), 2)       # 2 golden - sqrt5 = 1
@example("rat:2/7", "rat:0", ("main2", F(1)), 14)    # exact zero, schedule
@example("rat:1/3", "rat:1/3", F(3, 2), 4)           # exact rational level
@example("dec:0.4142135@1e-6", "rat:0", F(1), 355)   # undecided cell
@example("dec:0.4142135@1e-6", "rat:0", ("lemma3", F(1, 2)), 577)
def test_level_matches_the_wall_oracle(beta, gp, omega, q):
    """Support and cell, read from one level, agree with the wall-by-wall
    comparison route, undecided answers included."""
    pp = PsiPrime(ApproxFunction.const(F(1, 10)), parse_param(beta),
                  parse_param(gp), omega)
    ctx = FibreContext(pp, cap=512)
    assert ctx.support_state(q) == oracles.fibre_support(ctx, q)
    assert ctx.cell_of(q) == oracles.fibre_level(ctx, q)


_RANGE_BETAS = ("sqrt:2", "sqrt:3", "log2:3", "const:golden", "const:pi",
                "rat:2/7", "rat:1/3", "dec:0.4142135@1e-6")
# "beta": g' equal to beta, whose form collapses to 0 at q = 1
_RANGE_GPS = ("rat:0", "rat:1/3", "sqrt:5", "const:e", "beta")
_RANGE_OMEGAS = (None, F(1, 2), F(1), F(1, 4), F(2, 3), F(7, 5), F(63, 64),
                 F(5, 67), ("main2", F(1)), ("lemma3", F(1, 2)))
_RANGE_PSIS = ("overq:1/4", "log2sq:1/2", "const:1/10")


def _until_dependence(items):
    """The items of an iterator up to its first DependenceError, and that
    error's witness (None when there is none)."""
    out = []
    try:
        for item in items:
            out.append(item)
    except DependenceError as e:
        return out, e.witness
    return out, None


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(_RANGE_BETAS), st.sampled_from(_RANGE_GPS),
       st.sampled_from(_RANGE_OMEGAS), st.sampled_from((16, 64, 96, 128, 4096)),
       st.sampled_from(_RANGE_PSIS), st.integers(1, 3000),
       st.integers(1, 40), st.integers(1, 3))
@example("sqrt:2", "beta", F(1, 2), 128, "overq:1/4", 1, 30, 1)
@example("sqrt:3", "beta", None, 4096, "const:1/10", 1, 5, 1)
@example("rat:2/7", "rat:0", F(1), 128, "overq:1/4", 1, 30, 1)
@example("const:golden", "sqrt:5", None, 128, "const:1/10", 2, 3, 1)
@example("dec:0.4142135@1e-6", "rat:0", F(1), 512, "overq:1/4", 350, 10, 1)
def test_the_range_route_matches_the_per_q_route(beta, gp, omega, cap, tag,
                                                 start, length, step):
    """`levels` and `psi_primes` over a run of q give, q for q, the level,
    the first-rung window and psi' of the per-q route (`oracles.PerQFibre`),
    undecided answers and DependenceError witnesses included; the window
    comes with every q, a collapsed form's and a q without a level too."""
    b = parse_param(beta)
    pp = PsiPrime(parse_psi(tag), b, b if gp == "beta" else parse_param(gp),
                  omega)
    qs = range(start, start + length * step, step)
    oms = [pp.omega_at(q) for q in qs]
    no_level = any(om is None or om <= 0 for om in oms)
    if no_level:
        # a census refuses an omega that gives no level
        with pytest.raises(ValueError):
            list(FibreContext(pp, cap=cap).levels(qs))
    for top in (0,) if no_level else (None, 0):
        ctx = FibreContext(pp, cap=cap)
        oracle = oracles.PerQFibre(ctx)
        want = [(q, oracle.level(q, om, top), oracle.window(q))
                for q, om in zip(qs, oms)]
        assert list(ctx.levels(qs, top)) == want
    qs = range(max(start, pp.psi.q0), start + length * step, step)
    ctx = FibreContext(pp, cap=cap)
    oracle = oracles.PerQFibre(ctx)
    want = _until_dependence((q, *oracle.psi_prime(q)) for q in qs)
    assert _until_dependence(ctx.psi_primes(qs)) == want


def test_f_moment_examples(sqrt2):
    s, ref = f_moment_sum(sqrt2, 0, F(1), 8, 0, 2)
    census = gl_census(sqrt2, 0, F(1), 8)
    oracle_lo = F(0)
    oracle_hi = F(0)
    for q in census.members(0):
        if 4 <= q <= 8:
            f2 = F_of(q).power(2)
            oracle_lo += f2.lo
            oracle_hi += f2.hi
    assert overlaps(s, Enclosure(oracle_lo, oracle_hi))
    assert ref.lo > 0
    empty, _ = f_moment_sum(sqrt2, 0, F(1), 8, 40, 2)
    assert empty.hi == 0


def test_f_moment_k1_cross_module(sqrt2):
    """K = 1 reduces to the plain F sum over the census cell."""
    s, _ = f_moment_sum(sqrt2, 0, F(1, 2), 200, 1, 1)
    census = gl_census(sqrt2, 0, F(1, 2), 200)
    lo = F(0)
    hi = F(0)
    for q in census.members(1):
        if 100 <= q <= 200:
            f = F_of(q)
            lo += f.lo
            hi += f.hi
    assert overlaps(s, Enclosure(lo, hi))


# ---------------------------------------------------------------------------
# Borel-Cantelli machinery
# ---------------------------------------------------------------------------

def test_bc_ratio_of_zero_psi_is_a_value_error():
    with pytest.raises(ValueError, match="all psi values are zero"):
        bc_ratio(parse_psi("table:5=1/9"), F(0), 3)


def test_bc_ratio_example():
    series = bc_ratio(ApproxFunction.const(F(1, 10)), F(0), 3)
    assert series.ratio == Enclosure.exact(F(27, 80))
    assert series.final_mass.lo == F(3, 5)
    assert series.final_pair_mass.lo == F(3, 5) + 2 * F(7, 30)


def test_bc_ratio_identical_and_disjoint():
    # one nonzero event of measure m: ratio = m
    one = ApproxFunction.from_table({1: F(1, 14), 2: F(0)})
    assert bc_ratio(one, F(0), 2).ratio == Enclosure.exact(F(1, 7))
    # two disjoint events (arcs at 1/2 and at {1/4, 3/4}): ratio = a + b
    two = ApproxFunction.from_table({1: F(1, 20), 2: F(1, 16)})
    r = bc_ratio(two, F(1, 2), 2).ratio
    assert r == Enclosure.exact(F(1, 10) + F(1, 8))


def test_bc_ratio_in_unit_interval(sqrt2, sqrt3):
    for psi, gamma in ((ApproxFunction.over_q(F(1, 4)), sqrt3),
                       (ApproxFunction.const(F(1, 10)), F(1, 3)),
                       (ApproxFunction.over_q(F(1, 3)), sqrt2)):
        series = bc_ratio(psi, gamma, 60)
        assert series.ratio.hi <= 1
        assert series.ratio.lo > 0


def test_bc_ratio_fibred(sqrt2, sqrt3):
    pp = PsiPrime(ApproxFunction.over_q(F(1, 4)), sqrt3, R0, F(1, 2))
    series = bc_ratio(pp, sqrt2, 120)
    assert 0 < series.ratio.lo and series.ratio.lo <= 1
    assert series.undecided == 0


def test_union_series_examples():
    psi = ApproxFunction.const(F(1, 10))
    assert union_series(psi, F(0), 1, 1).lo == F(1, 5)
    assert union_series(psi, F(0), 1, 2).lo == F(3, 10)
    prev = F(0)
    for Q in (1, 2, 3, 5, 9):
        u = union_series(psi, F(0), 1, Q)
        assert u.hi >= prev
        prev = u.lo


# ---------------------------------------------------------------------------
# hit counting
# ---------------------------------------------------------------------------

def test_hit_count_examples(sqrt2):
    pp = PsiPrime(ApproxFunction.const(F(1, 10)), sqrt2, R0, None)
    assert hit_count(F(0), F(0), pp, 9).count == 9
    r = hit_count(F(1, 2), F(0), pp, 2)
    assert r.count == 1
    zero = PsiPrime(ApproxFunction.from_table(
        {q: F(0) for q in range(1, 6)}), sqrt2, R0, None)
    assert hit_count(F(1, 3), F(0), zero, 5).count == 0


def test_hit_count_rational_fibre_degenerates():
    """beta = p/r with r | q gives ||q beta - 0|| = 0: flagged, counted."""
    pp = PsiPrime(ApproxFunction.const(F(1, 10)),
                  RealParam.rational(F(2, 5)), R0, None)
    r = hit_count(F(1, 7), F(1, 3), pp, 20)
    assert r.degenerate == [5, 10, 15, 20]
    # those q hit regardless of x
    assert r.count >= 4


def test_hit_count_vanishing_distance_outside_the_support(sqrt2):
    """||q/2|| = 0 for even q lies below q^-1, outside the support, where
    psi' = 0: no hit and not degenerate (q = 2, 4, ..., 10 were once
    counted, and added 1 each to the expectation)."""
    pp = PsiPrime(ApproxFunction.over_q(F(1, 4)), RealParam.rational(F(1, 2)),
                  R0, F(1))
    r = hit_count(F(1, 3), sqrt2, pp, 10)
    assert (r.count, r.undecided, r.degenerate) == (0, 0, [])
    # odd q >= 3 carry psi' = 1/(2q), and nothing else contributes
    expected = mc_survey(sqrt2, pp, 10, 1, seed=0).expected
    assert contains(expected, F(1, 3) + F(1, 5) + F(1, 7) + F(1, 9))
    assert expected.width < F(1, 2**120)


def test_hit_count_zero_psi_on_a_vanishing_distance(sqrt2):
    """psi(3) = 0 where ||3 beta|| = 0: psi'(3) = 0, so q = 3 is neither a
    hit nor degenerate; q = 2 and q = 4 hit."""
    pp = PsiPrime(parse_psi("table:2=1/8,3=0,4=1/9"), RealParam.rational(F(1, 3)),
                  R0, None)
    r = hit_count(F(1, 3), sqrt2, pp, 4)
    assert (r.count, r.undecided, r.degenerate) == (2, 0, [])


def test_hit_count_slow_path_agrees(sqrt2, sqrt3):
    """Non-dyadic samples go through the exact path; dyadic samples through
    the vectorized screen.  The two agree on common inputs."""
    pp = PsiPrime(ApproxFunction.over_q(F(1, 4)), sqrt3, R0, F(1, 2))
    for num in (1, 7, 200):
        x_dyadic = F(num, 256)
        fast = hit_count(x_dyadic, sqrt2, pp, 150)
        # same value as a non-dyadic fraction forces the exact route
        x_odd = F(num * 3, 768)
        assert x_odd == x_dyadic * 3 / 3
        slow = hit_count(F(num * 5, 1280), sqrt2, pp, 150)
        assert fast.count == slow.count
        assert fast.undecided == slow.undecided == 0


def test_counter_rng_is_stable():
    # frozen stream head: schedule-independent reproducibility contract
    assert counter_sample(2026, 0) == counter_sample(2026, 0)
    assert counter_sample(2026, 0) != counter_sample(2026, 1)
    assert counter_sample(1, 5) != counter_sample(2, 5)


def test_mc_survey_examples(sqrt2, sqrt3):
    zero = PsiPrime(ApproxFunction.from_table(
        {q: F(0) for q in range(1, 8)}), sqrt2, R0, None)
    r = mc_survey(F(1, 3), zero, 7, 5, seed=1)
    assert r.mean == 0 and r.expected.hi == 0
    # a single q with psi' >= 1/2 contributes exactly 1 to the expectation
    big = PsiPrime(ApproxFunction.from_table({1: F(2, 5)}), sqrt2, R0, None)
    ctx = FibreContext(big)
    v, _ = _psi_prime(ctx, 1)
    assert v.lo > F(1, 2)          # 0.4 / ||sqrt2|| ~ 0.966
    r = mc_survey(sqrt3, big, 1, 20, seed=1)
    assert r.expected == Enclosure.exact(1)
    assert r.mean == 1             # the hit test is vacuous for psi' > 1/2


def test_mc_survey_harmonic_oracle(sqrt3):
    pp = PsiPrime(ApproxFunction.over_q(F(1, 4)), RealParam.sqrt(2), R0, None)
    r = mc_survey(sqrt3, pp, 400, 60, seed=9, direct=True)
    harmonic = sum(F(1, 2 * q) for q in range(1, 401))
    assert contains(r.expected, harmonic)
    assert abs(float(r.mean) - float(harmonic)) < 0.8
    assert r.undecided == 0


def test_mc_survey_parts_add_up(sqrt3):
    """Disjoint sample-index ranges split one survey into parts."""
    pp = PsiPrime(ApproxFunction.over_q(F(1, 4)), RealParam.sqrt(2), R0, None)
    whole = mc_survey(sqrt3, pp, 100, 10, seed=5, direct=True)
    sweep = _HitSweep(sqrt3, pp, 100, direct=True)
    head, u_head = sweep.tally(5, range(0, 4))
    tail, u_tail = sweep.tally(5, range(4, 10))
    assert whole.mean * 10 == head + tail
    assert whole.undecided == u_head + u_tail
    assert whole.expected == sweep.expected()


def test_table_gaps_are_zero():
    tab = parse_psi("table:2=1/8,5=1/9")
    assert tab.eval(3) == tab.eval(4) == tab.eval(9) == Enclosure.exact(0)
    assert tab.eval(5).lo == F(1, 9)


_TABLE_VALUES = st.one_of(st.just(F(0)), st.fractions(
    min_value=0, max_value=F(49, 100), max_denominator=10**6))


@given(st.dictionaries(st.integers(1, 60), _TABLE_VALUES, max_size=20),
       st.integers(1, 30))
@settings(max_examples=100, deadline=None)
def test_table_window_matches_the_linear_scan(values, past):
    """The table's lookup, built once per instance, gives the window of a
    linear scan at every q: entries, zero entries, missing indices and q
    past the last key; equality and hashing still see only the table."""
    tab = ApproxFunction.from_table(values)
    for q in range(1, max(values, default=0) + past + 1):
        assert tab.window(q) == oracles.table_window(tab, q)
    twin = ApproxFunction.from_table(values)
    assert tab == twin and hash(tab) == hash(twin)


def test_mc_survey_deterministic(sqrt3):
    pp = PsiPrime(ApproxFunction.over_q(F(1, 4)), RealParam.sqrt(2), R0, None)
    a = mc_survey(sqrt3, pp, 100, 10, seed=5, direct=True)
    b = mc_survey(sqrt3, pp, 100, 10, seed=5, direct=True)
    assert a.mean == b.mean


# ---------------------------------------------------------------------------
# doubly metric sampling
# ---------------------------------------------------------------------------

def test_doubly_metric_monotone_in_Hprime(sqrt2):
    base = doubly_metric_sample(sqrt2, 3, 12, 40, seed=11)
    for hp in (4, 6, 9):
        tighter = doubly_metric_sample(sqrt2, hp, 12, 40, seed=11)
        assert tighter.failures <= base.failures
        base = tighter


def test_doubly_metric_union_bound_exact():
    b = doubly_metric_union_bound(50, F(3))
    oracle = sum(F(4, k * k) for k in range(1, 51))
    assert b == Enclosure.exact(oracle)


def test_doubly_metric_validation(sqrt2):
    with pytest.raises(ValueError):
        doubly_metric_sample(sqrt2, 2, 10, 5, seed=1)
    with pytest.raises(ValueError):
        doubly_metric_sample(RealParam.rational(F(1, 3)), 3, 10, 5, seed=1)


def test_doubly_metric_witnesses_verify(sqrt2):
    """Recorded witnesses actually violate the threshold."""
    r = doubly_metric_sample(sqrt2, 3, 8, 30, seed=17)
    for i, (k1, k2) in r.witnesses.items():
        beta = F(counter_sample(17, i), 2**64)
        v = k1 * math.sqrt(2) + k2 * float(beta)
        dist = abs(v - round(v))
        h = max(abs(k1), abs(k2))
        assert dist <= h**-3 + 1e-12
        assert k1 != 0 and k2 != 0 and 2 <= h <= 8


@pytest.mark.parametrize("x,fibred,direct", [
    (F(1, 3), 0, 1), (F(2, 7), 4, 2), (F(5, 11), 14, 5)])
def test_exact_hit_pins_gamma_once(monkeypatch, sqrt2, sqrt3, x, fibred, direct):
    """A non-dyadic sample takes the exact per-q path for every q; gamma is
    pinned once per precision level, not once per q, and the counts are
    those the per-q pinning gave."""
    calls = Counter()
    enclosure = RealParam.enclosure

    def counted(self, bits):
        if self == sqrt3:
            calls[bits] += 1
        return enclosure(self, bits)

    monkeypatch.setattr(RealParam, "enclosure", counted)
    pp = PsiPrime(ApproxFunction.over_q(F(1, 4)), sqrt2, R0, F(1, 2))
    for is_direct, count in ((False, fibred), (True, direct)):
        calls.clear()
        param_evaluator.cache_clear()
        assert hit_count(x, sqrt3, pp, 300, direct=is_direct) == \
            HitResult(count, 0, [])
        assert calls and max(calls.values()) == 1


def test_doubly_metric_needs_a_sample(sqrt2):
    with pytest.raises(ValueError, match="samples"):
        doubly_metric_sample(sqrt2, 3, 5, 0, seed=1)


def test_hit_sweep_needs_a_height(sqrt2, sqrt3):
    pp = PsiPrime(ApproxFunction.over_q(F(1, 4)), sqrt2, R0, None)
    for Q in (0, -3):
        with pytest.raises(ValueError, match="Q must be >= 1"):
            mc_survey(sqrt3, pp, Q, 3, seed=1)
        with pytest.raises(ValueError, match="Q must be >= 1"):
            hit_count(F(1, 3), sqrt3, pp, Q)


def test_doubly_metric_without_pairs(sqrt2):
    """N < 2 leaves no pair (k1, k2) to test, so no sample fails."""
    r = doubly_metric_sample(sqrt2, 3, 1, 3, seed=1)
    assert (r.failures, r.fraction, r.witnesses) == (0, 0, {})
    assert r.union_bound == Enclosure.exact(4)


@pytest.mark.parametrize("N", [0, -3])
def test_an_empty_range_is_refused(N, sqrt2):
    """N < 1 (Q < 1) leaves no range to sample or sum, and is refused
    rather than reported as a fraction or a sum of 0."""
    with pytest.raises(ValueError, match="N must be >= 1"):
        doubly_metric_sample(sqrt2, 3, N, 2, seed=1)
    with pytest.raises(ValueError, match="N must be >= 1"):
        doubly_metric_union_bound(N, 3)
    pp = PsiPrime(ApproxFunction.over_q(F(1, 4)), sqrt2, R0, F(1, 2))
    with pytest.raises(ValueError, match="Q must be >= 1"):
        divergence_sum(pp, N)


@given(st.sampled_from(("sqrt:2", "sqrt:3", "const:golden", "log2:3",
                        "const:pi", "const:e")),
       st.integers(3, 6), st.integers(1, 30), st.integers(0, 2**16),
       st.integers(1, 150))
@example("sqrt:2", 3, 30, 2026, 150)
@example("const:golden", 6, 2, 0, 70)
@settings(max_examples=40, deadline=None)
def test_the_window_search_finds_what_the_full_scan_finds(gamma, Hp, N, seed,
                                                          samples):
    """The window search over sorted k1 gamma residues gives the failures
    and the worst witnesses of the scan over all 4N^2 - 2 pairs, across
    blocks of samples."""
    g = parse_param(gamma)
    r = doubly_metric_sample(g, Hp, N, samples, seed)
    assert r.witnesses == oracles.doubly_metric_full_scan(g, Hp, N, samples,
                                                          seed)
    assert r.failures == len(r.witnesses)


@pytest.mark.parametrize("gamma", ["sqrt:2", "const:golden"])
def test_a_pair_on_its_wall_is_decided_exactly(gamma, monkeypatch):
    """Samples that put 2 gamma + beta within 6 units of +-2^-6 on the
    2^-64 grid, the wall of the pair (2, 1) at H' = 6, where no other pair
    of N = 2 comes near: the lane leaves them to the exact decision, which
    finds the two at d = 2^58 and 2^58 + 1 on the negative side truly
    inside.  The window of k2 = 1 must reach past the threshold by the
    margin to see them."""
    g = parse_param(gamma)
    (R,), _ = form_lane(param_evaluator(g), [[2]])
    ks = [(s * 2**58 + e - int(R)) % 2**64 for s in (1, -1) for e in range(-6, 7)]
    monkeypatch.setattr("mdl.gallagher.counter_sample", lambda _, i: ks[i])
    monkeypatch.setattr(oracles, "counter_sample", lambda _, i: ks[i])
    r = doubly_metric_sample(g, 6, 2, len(ks), seed=0)
    assert r.witnesses == oracles.doubly_metric_full_scan(g, 6, 2, len(ks), 0)
    assert r.witnesses[18] == r.witnesses[19] == (2, 1)


# ---------------------------------------------------------------------------
# each uint64 lane against its exact path
# ---------------------------------------------------------------------------

_SWEEPS = {}
_LANE_GAMMAS = ("rat:1/4", "rat:3/8", "rat:1/3", "rat:-2/7",
                "sqrt:2", "sqrt:3", "const:golden", "log2:3")


def _sweep(gamma, direct, c):
    """Sweeps are built once per (gamma, direct, c) across examples."""
    key = (gamma, direct, c)
    if key not in _SWEEPS:
        pp = PsiPrime(ApproxFunction.over_q(c), RealParam.sqrt(2), R0, None)
        _SWEEPS[key] = _HitSweep(parse_param(gamma), pp, 60, direct)
    return _SWEEPS[key]


@given(st.sampled_from(_LANE_GAMMAS), st.booleans(),
       st.sampled_from((F(1, 4), F(1, 2), F(3, 4))),
       st.integers(0, 2**64 - 1))
# q = 4 sits exactly on the wall: ||4 * 5/64 - 1/4|| = 1/16 = psi(4)
@example("rat:1/4", True, F(1, 4), 5 << 58)
@example("rat:1/4", False, F(1, 4), 5 << 58)
@example("rat:1/3", True, F(1, 2), 0)
# the pin floor(2^64/3) puts q = 1 on the grid wall 2^62, truly inside 1/4
@example("rat:1/3", True, F(1, 4), (2**64 - 1) // 3 + 2**62)
@settings(max_examples=80, deadline=None)
def test_count_for_agrees_with_the_exact_path(gamma, direct, c, k):
    """The lane's count is the exact per-q decision summed over q <= Q, for
    dyadic and non-dyadic rational and irrational gamma; fibred thresholds
    psi'(q) reach past 1/2."""
    sweep = _sweep(gamma, direct, c)
    x = F(k, 2**64)
    exact = [sweep._exact_hit(q, x) for q in range(1, sweep.Q + 1)]
    res = sweep.count_for(k)
    assert res.count == exact.count(True)
    assert res.undecided == exact.count(None) + len(sweep.undecided_q)
    if not direct:
        assert max(F(lo, den) for lo, _, den in sweep._thresholds.values()) \
            > F(1, 2)


@given(st.sampled_from(("sqrt:2", "sqrt:3", "const:golden", "log2:3")),
       st.sampled_from((3, 4)), st.integers(1, 6), st.integers(0, 2**16))
@settings(max_examples=25, deadline=None)
def test_doubly_metric_agrees_with_the_exact_path(gamma, Hp, N, seed):
    """A sample fails exactly when some pair (k1, k2) puts k1 gamma + k2 beta
    in the closed ball, decided pair by pair with beta as a parameter."""
    g = parse_param(gamma)
    r = doubly_metric_sample(g, Hp, N, 8, seed)
    pairs = [(k1, k2) for k1 in range(-N, N + 1) for k2 in range(1, N + 1)
             if k1 and max(abs(k1), k2) >= 2]
    for i in range(8):
        beta = RealParam.rational(F(counter_sample(seed, i), 2**64))
        fe = FormEvaluator([g, beta])
        inside = [p for p in pairs if fe.dist_below(
            p, Enclosure.exact(F(1, max(abs(p[0]), p[1]) ** Hp)), closed=True)]
        assert (i in r.witnesses) == bool(inside)
        if inside:
            assert r.witnesses[i] in inside
    assert r.failures == len(r.witnesses)


@pytest.mark.parametrize("gamma", ["dec:0.3@0.3", "dec:0.1@0.26"])
def test_wide_gamma_takes_the_exact_path(gamma, sqrt2):
    """A gamma whose 2^-64 pin spreads over 1/4 certifies nothing in the
    lane, so every q is decided exactly and no margin wraps."""
    pp = PsiPrime(ApproxFunction.over_q(F(1, 4)), sqrt2, R0, None)
    g = parse_param(gamma)
    for direct in (False, True):
        sweep = _HitSweep(g, pp, 40, direct)
        assert not sweep.sure_below.any()
        assert (sweep.maybe_below == 2**64 - 1).all()
        for x in (F(5, 8), F(12345, 2**20)):
            exact = [sweep._exact_hit(q, x) for q in range(1, 41)]
            res = hit_count(x, g, pp, 40, direct=direct)
            assert res.count == exact.count(True)
            assert res.undecided == exact.count(None) + len(sweep.undecided_q)


def test_count_for_sends_a_loose_pin_near_the_wall_to_the_exact_path(sqrt2):
    """With a pin spread of about 2^35, a pinned distance one unit under the
    threshold cannot be certified inside: the lane leaves it to the exact
    decision, which finds it undecided."""
    g = parse_param("dec:0.3@1e-9")
    pp = PsiPrime(ApproxFunction.over_q(F(1, 4)), sqrt2, R0, None)
    sweep = _HitSweep(g, pp, 8, direct=True)
    _, (margin,) = form_lane(sweep.fe, [[-1]])
    assert margin > 2**30
    # ||x - gamma|| pinned one unit under psi(1) on the 2^-64 grid
    thr_lo, _ = lane_threshold(*sweep._thresholds[1])
    k = (1 - thr_lo - int(sweep.offset[0])) % 2**64
    exact = [sweep._exact_hit(q, F(k, 2**64)) for q in range(1, 9)]
    assert exact[0] is None
    res = sweep.count_for(k)
    assert (res.count, res.undecided) == (exact.count(True), exact.count(None))
