import math
import pickle
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

from mdl.realnum import (
    Comparison,
    DependenceError,
    Enclosure,
    FormEvaluator,
    RealExpr,
    RealParam,
    ball_lane,
    compare,
    frac_and_dist,
    lane_array,
    lane_margin,
    log2_enclosure,
    neg_log2_enclosure,
    nth_root_enclosure,
    parse_param,
    precision_ladder,
    rational_power,
    sqrt_enclosure,
)
from oracles import dist_pow_compare

F = Fraction


def mp_fraction(x, prec=200):
    mpmath.mp.prec = prec
    sign, man, exp, _ = mpmath.mpf(x)._mpf_
    v = F(man) * F(2) ** exp
    return -v if sign else v


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [2, 3, 5, 7, 720720, 10**9 + 7])
@pytest.mark.parametrize("bits", [16, 53, 128])
def test_sqrt_enclosure_contains_truth(n, bits):
    e = sqrt_enclosure(n, bits)
    assert e.width <= F(1, 2**bits)
    mpmath.mp.prec = bits + 80
    truth = mp_fraction(mpmath.sqrt(n), bits + 80)
    assert e.lo <= truth + F(1, 2**(bits + 70))
    assert truth - F(1, 2**(bits + 70)) <= e.hi


@pytest.mark.parametrize("n", [3, 5, 6, 12, 55440, 999983])
@pytest.mark.parametrize("bits", [16, 40, 80])
def test_log2_enclosure_rigorous(n, bits):
    e = log2_enclosure(n, bits)
    assert e.width <= F(1, 2**bits)
    mpmath.mp.prec = bits + 80
    truth = mp_fraction(mpmath.log(n) / mpmath.log(2), bits + 80)
    assert e.lo <= truth <= e.hi


def test_log2_exact_on_powers_of_two():
    for k in range(0, 20):
        assert log2_enclosure(2**k, 30) == Enclosure.exact(k)


def test_nth_root_enclosure():
    e = nth_root_enclosure(F(2), 3, 60)
    assert e.width <= F(1, 2**60)
    assert e.lo**3 <= 2 <= e.hi**3


def test_rational_power_brackets():
    e = rational_power(Enclosure.exact(F(5)), 3, 2, bits=50)
    assert e.lo**2 <= 125 <= e.hi**2


def test_neg_log2_enclosure():
    e = neg_log2_enclosure(Enclosure.exact(F(1, 8)), 40)
    assert e.contains(3)


# ---------------------------------------------------------------------------
# parameters and expressions
# ---------------------------------------------------------------------------

def test_param_validation():
    with pytest.raises(ValueError):
        RealParam.sqrt(4)          # perfect square
    with pytest.raises(ValueError):
        RealParam.sqrt(1)
    with pytest.raises(ValueError):
        RealParam.log2(8)          # power of two
    with pytest.raises(ValueError):
        RealParam.log2(2)
    with pytest.raises(ValueError):
        RealParam.const("tau")
    with pytest.raises(ValueError):
        RealParam.decimal("1.5", 0)


@pytest.mark.parametrize("name", ["pi", "e"])
@pytest.mark.parametrize("prec", [20, 53, 300])
def test_const_enclosure_contains_the_truth(name, prec):
    """The pi and e enclosures are exact images of mpmath's interval
    endpoints, whatever the global mpmath precision."""
    old = mpmath.mp.prec
    try:
        mpmath.mp.prec = 4000
        sign, man, exp, _ = (+getattr(mpmath, name))._mpf_
        truth = F(man) * F(2) ** exp
        mpmath.mp.prec = prec
        for bits in (64, 128, 512, 2048):
            e = RealParam.const(name).enclosure(bits)
            assert e.lo < truth < e.hi
            assert e.width <= F(1, 2**bits)
    finally:
        mpmath.mp.prec = old


def test_param_grammar_round_trip():
    for text in ("sqrt:2", "log2:3", "rat:3/7", "const:golden",
                 "dec:1.4142135@1e-7", "const:e", "const:pi"):
        p = parse_param(text)
        assert parse_param(p.canonical()).canonical() == p.canonical()
    with pytest.raises(ValueError):
        parse_param("sqrt2")
    with pytest.raises(ValueError):
        parse_param("dec:1.5")     # missing radius


def test_rational_param_exact():
    e = RealParam.rational(F(3, 7)).enclosure(10)
    assert e.is_exact and e.lo == F(3, 7)


def test_eval_examples(sqrt2):
    e = RealExpr.constant(F(3, 7)).eval(10)
    assert e.is_exact and e.lo == F(3, 7)
    e = RealExpr.of(sqrt2).eval(10)
    assert e.width <= F(1, 2**10)
    assert e.lo <= F(14142136, 10**7) <= e.hi + F(1, 10**6)
    # syntactic cancellation
    x = RealExpr.of(sqrt2) - RealExpr.of(sqrt2)
    assert x.is_rational
    assert x.eval(4) == Enclosure.exact(0)


def test_decimal_literal_never_exact():
    p = RealParam.decimal("1.4142135", F(1, 10**7))
    e = p.enclosure(200)
    assert e.width == F(2, 10**7)   # radius floor, regardless of bits


def test_frac_and_dist_examples():
    fr, d = frac_and_dist(RealExpr.constant(F(3, 4)), 10)
    assert fr == Enclosure.exact(F(-1, 4)) and d == Enclosure.exact(F(1, 4))
    fr, d = frac_and_dist(RealExpr.constant(F(-13, 10)), 10)
    assert d == Enclosure.exact(F(3, 10))
    # boundary belongs to the positive side
    fr, d = frac_and_dist(RealExpr.constant(F(1, 2)), 10)
    assert fr == Enclosure.exact(F(1, 2))
    fr, d = frac_and_dist(RealExpr.constant(F(3, 2)), 10)
    assert fr == Enclosure.exact(F(1, 2))


def test_frac_and_dist_irrational(sqrt2):
    fr, d = frac_and_dist(RealExpr.of(sqrt2), 64)
    assert fr.width <= F(1, 2**60)
    assert d.contains(mp_fraction(mpmath.sqrt(2) - 1))


@given(st.fractions(min_value=-100, max_value=100))
def test_rational_dist_identity(x):
    _, d = frac_and_dist(RealExpr.constant(x), 8)
    frac = x - math.floor(x)
    assert d.lo == min(frac, 1 - frac)


def test_compare_examples(sqrt2):
    assert dist_pow_compare(FormEvaluator([sqrt2]), (1,), 1, F(1, 2)) == Comparison.LT
    x = RealExpr.of(RealParam.rational(F(3, 7)), 7, -3)
    assert compare(x, 0) == Comparison.EQ
    # the convergent 665857/470832 lies above sqrt(2): 665857^2 = 2*470832^2+1
    assert 665857**2 - 2 * 470832**2 == 1
    assert compare(RealExpr.of(sqrt2), F(665857, 470832)) == Comparison.LT
    assert compare(RealExpr.of(sqrt2), F(665857, 470833)) == Comparison.GT


def test_compare_undecided_at_cap():
    p = RealParam.decimal("0.25", F(1, 10**9))
    assert compare(RealExpr.of(p), F(1, 4), cap=256) == Comparison.UNDECIDED


@given(st.integers(-5, 5), st.integers(-5, 5),
       st.fractions(min_value=-10, max_value=10))
@settings(max_examples=60, deadline=None)
def test_compare_antisymmetric(c1, c2, t):
    s2 = RealParam.sqrt(2)
    l3 = RealParam.log2(3)
    x = RealExpr.build([(c1, s2), (c2, l3)], F(1, 3))
    res = compare(x, t)
    neg = compare(-x, -t)
    flip = {Comparison.LT: Comparison.GT, Comparison.GT: Comparison.LT,
            Comparison.EQ: Comparison.EQ,
            Comparison.UNDECIDED: Comparison.UNDECIDED}
    assert neg == flip[res]


@given(st.integers(-4, 4), st.integers(-4, 4), st.integers(4, 7))
@settings(max_examples=40, deadline=None)
def test_monotone_refinement(c1, c2, bexp):
    """Refined enclosures stay inside a one-width inflation of coarse ones,
    and both contain the high-precision reference value."""
    s2 = RealParam.sqrt(2)
    gold = RealParam.const("golden")
    x = RealExpr.build([(c1, s2), (c2, gold)], F(-2, 7))
    b = 2**bexp
    e1 = x.eval(b)
    e2 = x.eval(2 * b)
    assert e2.lo >= e1.lo - e1.width and e2.hi <= e1.hi + e1.width
    ref = x.eval(256)
    assert e1.lo <= ref.hi and ref.lo <= e1.hi
    assert e2.lo <= ref.hi and ref.lo <= e2.hi


# ---------------------------------------------------------------------------
# FormEvaluator fast lane agrees with the expression route
# ---------------------------------------------------------------------------

def test_form_evaluator_agrees_with_exprs(sqrt2, sqrt3):
    fe = FormEvaluator([sqrt2, sqrt3], F(-1, 3))
    for k1, k2 in [(1, 0), (0, 1), (3, -2), (17, 12), (-40, 9)]:
        enc = fe.dist_enclosure((k1, k2))
        expr = RealExpr.build([(k1, sqrt2), (k2, sqrt3)], F(-1, 3))
        _, d = frac_and_dist(expr, 100)
        assert enc.lo <= d.hi and d.lo <= enc.hi
        assert enc.width < F(1, 2**100)


def test_form_evaluator_compare(sqrt2):
    fe = FormEvaluator([sqrt2], 0)
    assert dist_pow_compare(fe, (4,), 1, F(1, 4)) == Comparison.GT
    assert dist_pow_compare(fe, (2,), 1, F(1, 2)) == Comparison.LT
    assert fe.dist_is_zero_exact((0,))
    # ||4 sqrt2||^4 = (4 sqrt2 - 6)^4 against 1/4
    assert dist_pow_compare(fe, (4,), 4, F(1, 4)) == Comparison.LT


def test_form_evaluator_rational_path():
    fe = FormEvaluator([RealParam.rational(F(1, 3))], 0)
    assert dist_pow_compare(fe, (1,), 1, F(1, 3)) == Comparison.EQ
    assert dist_pow_compare(fe, (3,), 1, F(1, 10)) == Comparison.LT


def test_dist_below_on_the_wall():
    """A rational form at distance exactly t is inside the closed ball and
    outside the open one; a threshold bar around it decides nothing."""
    fe = FormEvaluator([RealParam.rational(F(1, 3))], 0)
    t = Enclosure.exact(F(1, 3))
    assert fe.dist_below((1,), t, closed=True) is True
    assert fe.dist_below((1,), t, closed=False) is False
    assert fe.dist_below((2,), t, closed=False, shift=F(2, 3)) is False
    assert fe.dist_below((1,), Enclosure(F(1, 4), F(1, 2)), closed=True) is None
    irr = FormEvaluator([RealParam.sqrt(2)])
    assert irr.dist_below((1,), Enclosure.exact(F(41, 100)), closed=False) is False
    assert irr.dist_below((1,), Enclosure.exact(F(42, 100)), closed=True) is True


def test_positive_windows_climb_from_the_next_rung(monkeypatch):
    """A decimal whose form 2x - 1 straddles 0 at every rung: the table at
    128 bits fails, and the ladder goes on at 256 and 512, not at 128."""
    fe = FormEvaluator([parse_param("dec:0.5@1e-12")], -1, cap=512)
    bits = []
    real = FormEvaluator.dist_window

    def counting(self, coeffs, b=None, shift=0):
        bits.append(b)
        return real(self, coeffs, b, shift)

    monkeypatch.setattr(FormEvaluator, "dist_window", counting)
    with pytest.raises(DependenceError):
        list(fe.positive_windows([(2,)]))
    assert bits == [256, 512]
    bits.clear()
    at_cap = FormEvaluator([parse_param("dec:0.5@1e-12")], -1, cap=128)
    with pytest.raises(DependenceError):
        list(at_cap.positive_windows([(2,)]))
    assert bits == []


def test_lane_margin_stops_below_a_wrap():
    """A margin of 2^62 or more could wrap d + margin past 2^64; the lane
    then certifies nothing and sends every entry to the exact decision."""
    assert lane_margin([0, 2**62 - 1]).tolist() == [0, 2**62 - 1]
    assert lane_margin([5, 2**62]) is None
    assert lane_margin([2**70]) is None
    thr = lane_array([2**63, 2**63])
    sure, maybe, _ = ball_lane(lane_array([0]), lane_array([1, 2]), 3, None,
                               thr, thr)
    assert not sure.any() and maybe.all()


@pytest.mark.parametrize("start, cap, levels", [
    (64, 4096, [64, 128, 256, 512, 1024, 2048, 4096]),
    (128, 1000, [128, 256, 512, 1000]),
    (512, 256, [256]),
    (5, 64, [8, 16, 32, 64]),
])
def test_precision_ladder(start, cap, levels):
    assert list(precision_ladder(start, cap)) == levels


_PARAM_SETS = (
    ("sqrt:2", "sqrt:2", "log2:3"),
    ("sqrt:2", "rat:3/7", "sqrt:2"),
    ("dec:1.5@1e-9", "rat:-2/5", "dec:1.5@1e-9"),
)


@given(st.sampled_from(_PARAM_SETS), st.tuples(*[st.integers(-2, 2)] * 3),
       st.fractions(min_value=-3, max_value=3, max_denominator=12))
@example(_PARAM_SETS[0], (1, -1, 0), F(1))
@example(_PARAM_SETS[1], (2, 7, -2), F(0))
@example(_PARAM_SETS[2], (-1, 5, 1), F(1, 2))
@settings(max_examples=150, deadline=None)
def test_form_dependence_matches_expr(texts, coeffs, offset):
    """The evaluator's once-per-set dependence decision agrees with the
    expression route, which merges terms per coefficient vector."""
    params = [parse_param(t) for t in texts]
    fe = FormEvaluator(params, offset)
    expr = RealExpr.build(list(zip(coeffs, params)), offset)
    value = fe._rational_value(coeffs)
    assert (value is not None) == expr.is_rational
    if expr.is_rational:
        assert value == expr.rational_value
        _, d = frac_and_dist(expr, 8)
        assert dist_pow_compare(fe, coeffs, 1, d.lo) == Comparison.EQ
    assert fe.dist_is_zero_exact(coeffs) == (
        expr.is_rational and expr.rational_value.denominator == 1)


@given(st.sampled_from((("sqrt:2", "rat:3/7", "sqrt:2"),
                        ("const:golden", "rat:-5/3", "const:golden"),
                        ("dec:1.5@1e-9", "rat:1/6", "dec:1.5@1e-9"))),
       st.tuples(*[st.integers(-3, 3)] * 2),
       st.fractions(min_value=-3, max_value=3, max_denominator=20),
       st.fractions(min_value=-2, max_value=2, max_denominator=16))
@settings(max_examples=100, deadline=None)
def test_dist_below_collapsed_form_on_the_wall(texts, coeffs, offset, shift):
    """A form that collapses to a rational (the first and third parameter
    cancel) is decided exactly, also exactly on the wall."""
    a, b = coeffs
    fe = FormEvaluator([parse_param(t) for t in texts], offset)
    v = fe._rational_value((a, b, -a))
    assert v is not None
    v += shift
    d = abs(v - round(v))
    for t, closed, want in ((d, True, True), (d, False, False),
                            (d + F(1, 97), False, True),
                            (d - F(1, 97), True, False)):
        if t >= 0:
            assert fe.dist_below((a, b, -a), Enclosure.exact(t), closed,
                                 shift=shift) is want


def test_real_param_hashes_once(monkeypatch):
    """The hash is kept per instance; equality and pickling are as before."""
    p = RealParam.decimal("1.4142", Fraction(1, 10**6))
    h = hash(p)
    calls = []
    real = Fraction.__hash__
    monkeypatch.setattr(Fraction, "__hash__",
                        lambda self: calls.append(self) or real(self))
    assert hash(p) == h
    assert calls == []
    twin = RealParam.decimal("1.4142", Fraction(1, 10**6))
    assert twin == p and hash(twin) == h and len(calls) == 2
    assert RealParam.decimal("1.4143", Fraction(1, 10**6)) != p
    # the cached hash stays in this process: str hashes differ in others
    assert "_hash" not in pickle.loads(pickle.dumps(p)).__dict__
    assert pickle.loads(pickle.dumps(p)) == p
