"""The integer-window kernels against the Fraction reference route in
`oracles`: the same values, the same DependenceError witnesses."""

from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import oracles
from mdl.discrepancy import etk_bound_sweep
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
    log2_enclosure,
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
def test_positive_windows_match_the_fraction_ladder(texts, data):
    fe = FormEvaluator([parse_param(t) for t in texts], cap=512)
    if data is None:
        vecs = [(3, 1), (2, -1), (0, 1)]
    else:
        coeff = st.integers(-40, 40)
        vecs = data.draw(st.lists(st.tuples(*[coeff] * len(texts)),
                                  min_size=1, max_size=10))
    try:
        want = [oracles.dist_positive(fe, v, fe.cap) for v in vecs]
    except DependenceError as e:
        with pytest.raises(DependenceError) as got:
            list(fe.positive_windows(vecs))
        assert got.value.witness == normalize_witness(e.witness)
        return
    assert [Enclosure.dyadic(*w) for w in fe.positive_windows(vecs)] == want


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(IRRATIONAL_SETS), st.integers(1, 14),
       st.integers(1, 10**5))
def test_etk_sweep_matches_the_fraction_oracle(texts, H, N):
    params = [parse_param(t) for t in texts]
    sweep = etk_bound_sweep(params, N, H)
    fe = FormEvaluator(params, 0)
    oracle = oracles.etk_shells_1d if len(params) == 1 else oracles.etk_shells_2d
    shells = oracle(fe, H, fe.cap)
    assert sweep[-1].shell_terms == tuple(shells)
    assert [b.bound for b in sweep] == oracles.etk_bounds(shells, N)


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
       st.one_of(st.integers(3, 2**50), st.integers(2, 60).map(lambda k: 2**k)),
       st.sampled_from([16, 40, 64, 100]))
@example("ev", F(1), 4, 64)
@example("mono2", F(1), 3, 64)
@example("log2sq", F(1, 2), 2**40, 64)
@example("ev", F(1), 17, 16)
def test_psi_families_match_the_fraction_oracle(tag, c, q, bits):
    psi = ApproxFunction._formula(tag, c)
    try:
        want = oracles.psi_eval(psi, q, bits)
    except ValueError:
        with pytest.raises(ValueError):
            psi.eval(q, bits)
        return
    assert psi.eval(q, bits) == want


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 2**90), st.integers(1, 200))
@example(2**70, 64)
@example(2**70 - 1, 64)
def test_log2_matches_the_fraction_padding(n, bits):
    assert log2_enclosure(n, bits) == oracles.log2_fraction(n, bits)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(("sqrt:2", "sqrt:3", "const:golden", "log2:3")),
       st.sampled_from(("rat:0", "rat:1/3", "sqrt:5", "sqrt:2")),
       st.sampled_from(FAMILIES + ("overq", "const")),
       st.sampled_from((None, F(1, 4), F(1))),
       st.integers(1, 10**6))
# 2 golden - sqrt 5 = 1: a vanishing distance that is not syntactic
@example("const:golden", "sqrt:5", "log2sq", None, 2)
def test_psi_prime_matches_the_fraction_oracle(beta, gp, tag, omega, q):
    """psi' as an enclosure and as the ints of `psi_prime_window`, which
    divide by the window of the level decision."""
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
            with pytest.raises(DependenceError):
                ctx.psi_prime_window(q)
        return
    v, got = ctx.psi_prime(q)
    got_w, lo, hi = ctx.psi_prime_window(q)
    assert got == got_w == state
    if state == SupportState.IN:
        assert v == want == Enclosure.dyadic(lo, hi, 128)


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


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.fractions(), st.integers(-10**6, 10**6)),
                max_size=40))
def test_exact_sum_equals_sum(terms):
    total = exact_sum(terms)
    assert isinstance(total, Fraction) and total == sum(terms, F(0))


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
