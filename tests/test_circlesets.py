import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mdl.circlesets import (
    AqFamily,
    CircleSet,
    PsiRangeError,
    aq_pair_measure_raw,
    build_Aq,
    master_check,
    pair_sum,
    union,
    _canonicalize,
)
from mdl.realnum import Enclosure, RealParam
from oracles import (
    contains,
    from_arcs,
    from_endpoint_pairs,
    intersect,
    pair_measure,
)

F = Fraction


def arcs_strategy():
    frac = st.fractions(min_value=0, max_value=2, max_denominator=40)
    return st.lists(st.tuples(frac, frac), min_size=0, max_size=6)


def test_build_examples():
    s = build_Aq(F(1, 10), F(0), 2)
    assert s.measure() == F(1, 5)
    s = build_Aq(F(1, 10), F(1, 3), 1)
    assert s.arcs == ((F(1, 3) - F(1, 10), F(1, 3) + F(1, 10)),)
    assert s.measure() == F(1, 5)
    s = build_Aq(F(1, 10), F(0), 3)
    assert s.measure() == F(1, 5)
    with pytest.raises(PsiRangeError):
        build_Aq(F(1, 2), F(0), 2)
    with pytest.raises(PsiRangeError):
        build_Aq(F(0), F(0), 2)


def test_measure_is_twice_psi(sqrt2):
    rng = random.Random(3)
    for _ in range(40):
        q = rng.randint(1, 400)
        psi = F(rng.randint(1, 499), 1000)
        for gamma in (F(0), F(1, 3), sqrt2):
            s = build_Aq(psi, gamma, q)
            mb = s.measure_bounds()
            assert contains(mb, 2 * psi)
            assert float(mb.width) < 1e-12


def test_intersect_union_examples():
    A2 = build_Aq(F(1, 10), F(0), 2)
    A3 = build_Aq(F(1, 10), F(0), 3)
    assert intersect(A2, A3).measure() == F(1, 15)
    assert intersect(A2, A2).arcs == A2.arcs
    u = union(A2, A3)
    i = intersect(A2, A3)
    assert u.measure() + i.measure() == A2.measure() + A3.measure()


def test_empty_and_full():
    assert union().measure() == 0
    assert CircleSet.full().measure() == 1


def test_canonical_idempotent():
    raws = [
        [(F(1, 3), F(1, 2)), (F(1, 2), F(2, 3))],
        [(F(9, 10), F(11, 10))],                    # wraps
        [(F(0), F(1, 4)), (F(1, 8), F(1, 2))],      # overlap
    ]
    for raw in raws:
        once = _canonicalize(raw)
        assert _canonicalize(once) == once


@given(arcs_strategy(), arcs_strategy())
@settings(max_examples=80, deadline=None)
def test_inclusion_exclusion(raw_s, raw_t):
    s = from_arcs(raw_s)
    t = from_arcs(raw_t)
    u = union(s, t)
    i = intersect(s, t)
    assert u.measure() + i.measure() == s.measure() + t.measure()
    assert 0 <= u.measure() <= 1


@given(arcs_strategy())
@settings(max_examples=40, deadline=None)
def test_self_intersection(raw):
    s = from_arcs(raw)
    assert intersect(s, s).arcs == s.arcs
    assert union(s, s).arcs == s.arcs


@given(st.lists(st.tuples(arcs_strategy(),
                          st.fractions(min_value=0, max_value=F(1, 100))),
                max_size=5))
@settings(max_examples=60, deadline=None)
def test_one_fold_is_the_pairwise_fold(raw):
    """`union` of many sets canonicalizes their arcs once; the pairwise
    fold, which re-merges the union so far at each step, gives the same
    arcs and slack."""
    sets = [from_arcs(arcs, slack) for arcs, slack in raw]
    folded = union()
    for s in sets:
        folded = union(folded, s)
    assert union(*sets) == folded
    assert union(*sets).measure_bounds() == folded.measure_bounds()


def test_serialization_round_trip():
    s = build_Aq(F(1, 10), F(0), 3)
    pairs = s.to_endpoint_pairs()
    assert all(len(p) == 2 for p in pairs)
    assert from_endpoint_pairs(pairs).arcs == s.arcs


def aq_pair_measure(rho, rhop, q, qp, g, gslack):
    """The kernel on radius bounds rho, rho' and {gamma} = g within gslack."""
    ints = lambda e: (e.lo.numerator, e.lo.denominator,
                      e.hi.numerator, e.hi.denominator)
    pin = (g.numerator, g.denominator, gslack.numerator, gslack.denominator)
    lo, hi, CD = aq_pair_measure_raw(ints(rho), ints(rhop), q, qp, pin)
    return Enclosure(F(lo, CD), F(hi, CD))


def test_fast_pair_measure_matches_sweep(sqrt2):
    """The windowed center-difference route equals the generic arc sweep
    exactly on rational data, including fat arcs with antipodal overlap."""
    rng = random.Random(7)
    for _ in range(300):
        q = rng.randint(2, 36)
        qp = rng.randint(1, q - 1)
        pq = F(rng.randint(1, 49), 100)
        pqp = F(rng.randint(1, 49), 100)
        gden = rng.choice([1, 2, 3, 16, 97])
        g = F(rng.randint(0, gden - 1), gden)
        fast = aq_pair_measure(Enclosure.exact(pq / q),
                               Enclosure.exact(pqp / qp), q, qp, g, F(0))
        slow = intersect(build_Aq(pq, g, q), build_Aq(pqp, g, qp)).measure()
        assert fast.lo == slow == fast.hi


def test_pair_measure_slack_brackets_truth():
    rng = random.Random(11)
    B = 16
    for _ in range(120):
        q = rng.randint(2, 24)
        qp = rng.randint(1, q - 1)
        pq = F(rng.randint(1, 9), 20)
        pqp = F(rng.randint(1, 9), 20)
        gtrue = F(rng.randint(0, 2**30 - 1), 2**30)
        gmid = F((gtrue.numerator << B) // gtrue.denominator, 2**B)
        enc = aq_pair_measure(Enclosure.exact(pq / q),
                              Enclosure.exact(pqp / qp), q, qp,
                              gmid, F(1, 2**B))
        true = intersect(build_Aq(pq, gtrue, q),
                         build_Aq(pqp, gtrue, qp)).measure()
        assert enc.lo <= true <= enc.hi


def test_intersection_measure_capped():
    rng = random.Random(13)
    fam = AqFamily(lambda q: F(1, 4 * q), RealParam.sqrt(3), 60)
    for _ in range(60):
        q = rng.randint(2, 60)
        qp = rng.randint(1, q - 1)
        e = pair_measure(fam, q, qp)
        assert e.hi <= min(F(1, 2 * q), F(1, 2 * qp))  # min(2psi, 2psi')


def test_pair_sum_examples():
    assert pair_sum(lambda q: F(1, 10), F(0), 3).lo == F(7, 30)
    A1 = build_Aq(F(1, 10), F(0), 1)
    A2 = build_Aq(F(1, 10), F(0), 2)
    assert pair_sum(lambda q: F(1, 10), F(0), 2).lo == \
        intersect(A1, A2).measure()
    # crude quadratic bound
    eps = F(1, 1000)
    ps = pair_sum(lambda q: eps, F(0), 12)
    assert ps.hi <= 12 * 12 * 2 * eps


def test_master_check_case1_example():
    rep = master_check(lambda q: F(1, 10), F(0), 3, 2, H=3)
    assert rep.case == "I"
    assert rep.delta == F(1, 2)
    assert rep.gcd == 1
    assert rep.indicator == 1
    assert rep.bound == F(7, 15)
    assert rep.measure.lo == F(1, 15)
    assert rep.verdict is True


def test_master_check_case2_example():
    rep = master_check(lambda q: F(2, 5), F(0), 11, 10, H=3, C0=F(3, 2))
    assert rep.case == "II"
    assert rep.delta == F(42, 5)
    assert rep.bound == 4 * (1 + F(3, 2) / 6) * F(2, 5) * F(2, 5)
    assert rep.verdict is True
    assert rep.min_C0 is not None and rep.min_C0 >= 1


def test_master_check_gcd_divides():
    rep = master_check(lambda q: F(1, 10), F(0), 6, 3, H=3)
    assert rep.gcd == 3


def test_master_check_validation(sqrt2):
    with pytest.raises(ValueError):
        master_check(lambda q: F(1, 10), F(0), 3, 3, H=3)
    with pytest.raises(ValueError):
        master_check(lambda q: F(1, 10), F(0), 3, 2, H=2)
    with pytest.raises(ValueError):
        master_check(lambda q: F(1, 10), F(0), 3, 2, H=3, C0=1)


@pytest.mark.parametrize("H", [3.5, F(7, 2), 3.0, F(10)])
def test_master_check_rejects_a_non_integer_H(H, sqrt2):
    """A float H would make the bound a float and the verdict a float
    comparison; only an int H is accepted."""
    with pytest.raises(ValueError, match="H must be an integer >= 3"):
        master_check(lambda q: F(1, 4 * q), sqrt2, 5, 3, H=H, C0=100)


def test_master_check_irrational(sqrt2, golden):
    """Bound verdicts hold on a small sweep with irrational shifts."""
    for gamma in (sqrt2, golden):
        for (q, qp) in ((17, 12), (30, 12), (8, 3), (50, 49), (64, 32)):
            rep = master_check(lambda q: F(1, 4 * q), gamma, q, qp, H=3,
                               C0=100)
            assert rep.verdict is True, (gamma, q, qp, rep)


def test_master_zero_indicator_means_empty(sqrt2):
    """When the indicator vanishes in case I, the intersection is empty."""
    found = 0
    for q in range(2, 60):
        for qp in range(1, q):
            rep = master_check(lambda q: F(1, 4 * q), sqrt2, q, qp, H=3)
            if rep.case == "I" and rep.indicator == 0:
                found += 1
                assert rep.measure.hi <= F(1, 2**40)
    assert found > 0
