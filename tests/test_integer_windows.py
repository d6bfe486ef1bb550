"""The integer-window kernels against the Fraction reference route in
`oracles`: the same values, the same DependenceError witnesses."""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import oracles
from test_acceptance import _pairwise_sum
from mdl.discrepancy import (
    SHELL_BITS,
    _etk_shells_1d,
    _etk_shells_2d,
    etk_bound_sweep,
)
from mdl.gallagher import (
    ApproxFunction,
    FibreContext,
    PsiPrime,
    SupportState,
    _HitSweep,
)
from mdl.realnum import (
    DependenceError,
    Enclosure,
    FormEvaluator,
    exact_sum,
    frac_to_dist,
    log2_enclosure,
    log2_ratio,
    log2_scaled,
    normalize_witness,
    parse_param,
    round_outward,
)

F = Fraction

IRRATIONAL_SETS = (("sqrt:2",), ("const:golden",), ("log2:3",), ("const:pi",),
                   ("sqrt:2", "sqrt:3"), ("const:golden", "log2:3"),
                   ("sqrt:5", "const:e"))
# syntactic (equal or rational parameters) and non-syntactic (sqrt:8 =
# 2 sqrt:2) dependences next to independent sets
FORM_SETS = IRRATIONAL_SETS + (("sqrt:2", "sqrt:2"), ("sqrt:2", "rat:1/3"),
                               ("sqrt:2", "sqrt:8"), ("rat:2/5",))
FAMILIES = ("ev", "mono2", "log2sq")


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(FORM_SETS), st.data())
@example(("sqrt:2", "sqrt:8"), None)
def test_positive_window_matches_the_fraction_ladder(texts, data):
    """`positive_window` is the first window of the ladder clear of 0, and
    the exact one of a form that collapses to a rational."""
    fe = FormEvaluator([parse_param(t) for t in texts], cap=512)
    if data is None:
        vecs = [(3, 1), (2, -1), (0, 1)]
    else:
        coeff = st.integers(-40, 40)
        vecs = data.draw(st.lists(st.tuples(*[coeff] * len(texts)),
                                  min_size=1, max_size=10))
    try:
        want = [oracles.dist_positive_exact(fe, v, fe.cap) for v in vecs]
    except DependenceError as e:
        with pytest.raises(DependenceError) as got:
            [fe.positive_window(v) for v in vecs]
        assert got.value.witness == normalize_witness(e.witness)
        return
    assert [oracles.window_enclosure(fe.positive_window(v))
            for v in vecs] == want


WALK_PARAMS = ("sqrt:2", "sqrt:3", "const:golden", "log2:3", "rat:2/7",
               "dec:0.4142135@1e-6")


@settings(max_examples=150, deadline=None)
@given(st.lists(st.sampled_from(WALK_PARAMS), min_size=1, max_size=2),
       st.sampled_from((0, F(-1, 3))), st.sampled_from((8, 16, 128)),
       st.data())
def test_the_walk_gives_the_first_rung_windows(texts, offset, bits, data):
    """`run_windows` yields, k for k, the first-rung window of the vector
    start with its axis coordinate set to k, for negative k, gaps, steps of
    1 to 3 and ks in any order, on rungs low enough to touch 0."""
    fe = FormEvaluator([parse_param(t) for t in texts], offset, bits=bits)
    coeff = st.integers(-60, 60)
    start = st.tuples(*[coeff] * len(texts))
    if len(texts) == 2:
        start = st.one_of(st.just((0, -1)), start)
    start = data.draw(start)
    axis = data.draw(st.integers(0, len(texts) - 1))
    ks = data.draw(st.one_of(
        st.builds(lambda a, n, s: range(a, a + n * s, s),
                  st.integers(-40, 40), st.integers(0, 30), st.integers(1, 3)),
        st.lists(st.integers(-200, 200), max_size=20)))
    got = list(fe.run_windows(start, axis, ks))
    assert [k for k, *_ in got] == list(ks)
    for k, *window in got:
        vec = list(start)
        vec[axis] = k
        assert tuple(window) == frac_to_dist(*fe.frac_window(vec, fe.bits))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(IRRATIONAL_SETS), st.integers(1, 14),
       st.integers(1, 10**5))
def test_etk_sweep_matches_the_fraction_oracle(texts, H, N):
    params = [parse_param(t) for t in texts]
    sweep = etk_bound_sweep(params, N, H)
    fe = FormEvaluator(params, 0)
    oracle = oracles.etk_shells_1d if len(params) == 1 else oracles.etk_shells_2d
    shells = oracle(fe, H, fe.cap)
    assert oracles.etk_shell_terms(params, N, H) == tuple(shells)
    assert [b.bound for b in sweep] == oracles.etk_bounds(shells, N)


def _run_place(coeffs) -> str:
    """Where a 2D vector sits in its shell h's two runs, (k1, h) for k1 =
    -h..h then (h, k2) for k2 = -h+1..h-1."""
    k1, k2 = coeffs
    h = max(abs(k1), abs(k2))
    if coeffs in ((h, h), (h, 1 - h)):
        return "seam"
    if coeffs == (-h, h):
        return "start"
    return "k=0" if 0 in coeffs else "mid-run"


def test_shell_runs_match_the_oracle_on_low_rungs(monkeypatch):
    """On a low first rung many vectors of a run cannot be separated from 0
    there and climb the ladder; each climb must start from the vector that
    missed and leave the run's sum stepping on.  At 16 and 24 bits misses
    are rare (two among these pairs at 16 bits, none at 24), so the 8-bit
    rung is swept too, where they land mid-run, at k = 0 and at the seam
    between a shell's two runs."""
    climbs = []
    exact = FormEvaluator.positive_window

    def counted(self, coeffs):
        climbs.append(tuple(coeffs))
        return exact(self, coeffs)

    monkeypatch.setattr(FormEvaluator, "positive_window", counted)
    texts = ("sqrt:2", "sqrt:3", "const:golden", "log2:3")
    sets = [(t,) for t in texts] + [(a, b) for i, a in enumerate(texts)
                                    for b in texts[i + 1:]]
    for bits in (8, 16, 24):
        for params in sets:
            fe = FormEvaluator([parse_param(t) for t in params], 0, bits=bits)
            one = len(params) == 1
            shells = (_etk_shells_1d if one else _etk_shells_2d)(fe, 12)
            oracle = oracles.etk_shells_1d if one else oracles.etk_shells_2d
            assert [Enclosure.dyadic(lo, hi, SHELL_BITS)
                    for lo, hi in shells] == oracle(fe, 12, fe.cap)
    places = {_run_place(c) for c in climbs if len(c) == 2}
    assert {"mid-run", "k=0", "seam"} <= places
    assert any(c != (1,) for c in climbs if len(c) == 1)


@pytest.mark.parametrize("texts", [("sqrt:2", "sqrt:2"), ("sqrt:2", "sqrt:8"),
                                   ("sqrt:3", "rat:1/2")])
def test_etk_dependence_witness_matches_the_oracle(texts):
    params = [parse_param(t) for t in texts]
    fe = FormEvaluator(params, 0, cap=256)
    with pytest.raises(DependenceError) as want:
        oracles.etk_shells_2d(fe, 3, fe.cap)
    with pytest.raises(DependenceError) as got:
        etk_bound_sweep(params, 100, 3, cap=256)
    assert got.value.witness == want.value.witness


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(FAMILIES),
       st.fractions(min_value=F(1, 1000), max_value=5),
       st.one_of(st.integers(3, 2**50), st.integers(2, 60).map(lambda k: 2**k)))
@example("ev", F(1), 4)
@example("mono2", F(1), 3)
@example("log2sq", F(1, 2), 2**40)
@example("ev", F(1), 17)
def test_psi_families_match_the_fraction_oracle(tag, c, q):
    psi = ApproxFunction._formula(tag, c)
    try:
        want = oracles.psi_eval(psi, q)
    except ValueError:
        with pytest.raises(ValueError):
            psi.eval(q)
        return
    assert psi.eval(q) == want


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 2**90), st.integers(1, 200))
@example(2**70, 64)
@example(2**70 - 1, 64)
def test_log2_matches_the_fraction_padding(n, bits):
    assert log2_enclosure(n, bits) == oracles.log2_fraction(n, bits)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 2**90), st.integers(0, 64), st.integers(1, 2**90),
       st.sampled_from((16, 40, 64, 96)))
@example(3, 1, 1, 64)
@example(5, 5, 7, 96)
@example(12345, 40, 3, 64)
@example(99991, 40, 2**40, 40)
def test_log2_ratio_cancels_a_power_of_two(m, t, den, bits):
    """log2_scaled(m 2^t) is log2_scaled(m) plus t exactly, so a power of
    two common to num and den leaves `log2_ratio` unchanged, and the bounds
    hold the true log2(m / den)."""
    lo, hi, w = log2_scaled(m, bits)
    assert log2_scaled(m << t, bits) == (lo + (t << w), hi + (t << w), w)
    r_lo, r_hi, w = log2_ratio(m, den, bits)
    assert log2_ratio(m << t, den << t, bits) == (r_lo, r_hi, w)
    # [r_lo, r_hi] / 2^w holds log2(m / den), checked in floating point
    # with 2^-32 to spare
    got = math.log2(m) - math.log2(den)
    assert r_lo / 2**w - 2**-32 <= got <= r_hi / 2**w + 2**-32


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(("sqrt:2", "sqrt:3", "const:golden", "log2:3")),
       st.sampled_from(("rat:0", "rat:1/3", "sqrt:5", "sqrt:2")),
       st.sampled_from(FAMILIES + ("overq", "const")),
       st.sampled_from((None, F(1, 4), F(1))),
       st.integers(1, 10**6))
# 2 golden - sqrt 5 = 1: a vanishing distance that is not syntactic
@example("const:golden", "sqrt:5", "log2sq", None, 2)
def test_psi_prime_matches_the_fraction_oracle(beta, gp, tag, omega, q):
    """psi' as the ints of `psi_prime`, which divide by the window of the
    level decision."""
    psi = ApproxFunction._formula(tag, F(1, 5))
    assume(q >= psi.q0)
    pp = PsiPrime(psi, parse_param(beta), parse_param(gp), omega)
    ctx = FibreContext(pp)
    state = ctx.support_state(q)
    try:
        want = oracles.psi_prime_value(ctx, q)
    except DependenceError:
        # the distance vanishes or cannot be separated from 0 at the cap
        if state == SupportState.IN:
            with pytest.raises(DependenceError):
                ctx.psi_prime(q)
        return
    got, lo, hi = ctx.psi_prime(q)
    assert got == state
    if state == SupportState.IN:
        assert want == Enclosure.dyadic(lo, hi, 128)


@pytest.mark.parametrize("psi, omega, direct", [
    (ApproxFunction.over_q(F(1, 4)), None, True),
    (ApproxFunction.log2sq_shape(F(1, 2)), F(1, 4), False),
    (ApproxFunction.const(F(2, 5)), F(1, 2), False),     # psi' reaches 1/2
    (ApproxFunction.from_table({2: F(1, 3), 3: F(0), 5: F(1, 7)}), None, True),
])
def test_expected_matches_the_fraction_sum(psi, omega, direct):
    sqrt3 = parse_param("sqrt:3")
    pp = PsiPrime(psi, sqrt3, parse_param("rat:0"), omega)
    sweep = _HitSweep(sqrt3, pp, 400, direct)
    assert sweep.expected() == oracles.expected_fraction(sweep)


def test_expected_on_the_psi_prime_grid():
    """Fibred thresholds lie on the 2^-128 grid and degenerate ones are 1,
    so the sum runs on ints: it equals the Fraction sum, undecided
    supports included.  Without truncation every q = 0 mod 3 is degenerate
    (a truncation puts a vanishing distance outside the support)."""
    pp = PsiPrime(ApproxFunction.log2sq_shape(F(1, 2)), parse_param("rat:1/3"),
                  parse_param("rat:0"), None)
    sweep = _HitSweep(parse_param("sqrt:3"), pp, 400, False)
    assert sweep.degenerate
    sweep.undecided_q = [401]
    assert sweep.expected() == oracles.expected_fraction(sweep)


def test_expected_counts_an_undecided_support_as_one():
    sqrt3 = parse_param("sqrt:3")
    pp = PsiPrime(ApproxFunction.over_q(F(1, 4)), sqrt3, parse_param("rat:0"), None)
    sweep = _HitSweep(sqrt3, pp, 30, True)
    sweep.undecided_q = [31, 32]
    assert sweep.expected() == oracles.expected_fraction(sweep)
    assert sweep.expected().width == 2


# (numerator, denominator) pairs, a common factor times a fraction: negative,
# zero and unreduced terms
_PAIRS = st.builds(lambda a, b, m: (a * m, b * m), st.integers(-10**30, 10**30),
                   st.integers(1, 10**12), st.integers(1, 1000))


@settings(max_examples=200, deadline=None)
@given(st.lists(_PAIRS, max_size=40))
@example([])
@example([(6, 4)])
@example([(0, 7), (-3, 6), (1, 2)])
def test_exact_sum_equals_sum(pairs):
    total = exact_sum(pairs)
    assert isinstance(total, Fraction)
    assert total == sum((F(a, b) for a, b in pairs), F(0))


_DIRECT_PSI = st.one_of(
    st.fractions(min_value=F(1, 10**4), max_value=4,
                 max_denominator=10**4).map(ApproxFunction.over_q),
    st.fractions(min_value=F(1, 10**4), max_value=F(49, 100),
                 max_denominator=10**4).map(ApproxFunction.const),
    st.dictionaries(st.integers(1, 150), st.fractions(
        min_value=0, max_value=F(49, 100), max_denominator=10**4),
        max_size=30).map(ApproxFunction.from_table))


def _psi_value(psi, q: int) -> Fraction:
    """psi(q) of a const, overq or table psi, from its definition."""
    if psi.tag == "table":
        return dict(psi.table).get(q, F(0))
    return psi.c / q if psi.tag == "overq" else psi.c


@given(_DIRECT_PSI, st.integers(1, 150))
@settings(max_examples=60, deadline=None)
def test_direct_expected_is_the_pairwise_fraction_sum(psi, Q):
    """The direct sweep's expectation, summed on int pairs, is the pairwise
    Fraction sum of min(1, 2 psi(q)) over q0 <= q <= Q, exactly."""
    terms = [min(F(1), 2 * _psi_value(psi, q))
             for q in range(max(1, psi.q0), Q + 1)]
    sqrt3 = parse_param("sqrt:3")
    pp = PsiPrime(psi, sqrt3, parse_param("rat:0"), None)
    want = _pairwise_sum(terms) if terms else F(0)
    assert _HitSweep(sqrt3, pp, Q, True).expected() == Enclosure.exact(want)


@settings(max_examples=200, deadline=None)
@given(st.fractions(), st.fractions(), st.integers(0, 200),
       st.integers(1, 10**6))
def test_round_outward_matches_floor_and_ceil(lo, hi, k, m):
    want = oracles.floor_ceil(lo, hi, k)
    assert round_outward(lo.numerator, lo.denominator,
                         hi.numerator, hi.denominator, k) == want
    # unreduced fractions round the same
    assert round_outward(m * lo.numerator, m * lo.denominator,
                         m * hi.numerator, m * hi.denominator, k) == want
