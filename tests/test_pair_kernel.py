"""The pair kernel (`AqFamily`, `aq_pair_measure_raw`) against the
independent arc sweep, and the records it feeds pinned byte for byte."""

import hashlib
import json
import math
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from mdl import circlesets, gallagher, realnum
from mdl.circlesets import (
    AqFamily,
    CircleSet,
    build_Aq,
    master_check,
    pair_sum,
)
from mdl.gallagher import ApproxFunction, PsiPrime
from mdl.realnum import Enclosure, RealParam
from oracles import contains, intersect, master_check_fraction, pair_measure

F = Fraction
GOLDEN = Path(__file__).parent / "data" / "pair_kernel_golden.json"


def _sets(table, g):
    return {q: build_Aq(v, g, q) if v else CircleSet.empty()
            for q, v in table.items()}


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 49), min_size=2, max_size=14),
       st.sampled_from([1, 2, 3, 16, 97]), st.data())
def test_family_matches_sweep(ks, gden, data):
    """Rational gamma: every pair and every row equals the arc sweep
    exactly, fat arcs (psi up to 49/100, antipodal overlap) and empty
    sets (psi = 0) included."""
    g = F(data.draw(st.integers(0, gden - 1)), gden)
    table = {q: F(k, 100) for q, k in enumerate(ks, start=1)}
    fam = AqFamily(table, g, len(ks))
    assert fam.exact
    sets = _sets(table, g)
    for q in range(2, len(ks) + 1):
        want = [intersect(sets[q], sets[qp]).measure() for qp in range(1, q)]
        for qp, w in enumerate(want, start=1):
            assert pair_measure(fam, q, qp) == Enclosure(w, w), (q, qp)
        assert fam.row(q) == (sum(want), sum(want))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(1, 49), min_size=2, max_size=12),
       st.integers(0, 2**30 - 1), st.integers(6, 40))
def test_dyadic_pin_encloses_truth(ks, k, B):
    """gamma pinned on the 2^-B grid: each pair enclosure and the outward
    row sum contain the measures at the true gamma."""
    gtrue = F(k, 2**30)
    mid = F(2 * math.floor(gtrue * 2**B) + 1, 2**(B + 1))
    gamma = RealParam.decimal(str(mid), F(1, 2**(B + 1)))
    table = {q: F(v, 100) for q, v in enumerate(ks, start=1)}
    fam = AqFamily(table, gamma, len(ks))
    assert not fam.exact
    sets = _sets(table, gtrue)
    lo = hi = 0
    truth = F(0)
    for q in range(2, len(ks) + 1):
        for qp in range(1, q):
            t = intersect(sets[q], sets[qp]).measure()
            assert contains(pair_measure(fam, q, qp), t), (q, qp)
            truth += t
        dlo, dhi = fam.row(q)
        lo += dlo
        hi += dhi
    assert contains(fam.total(lo, hi), truth)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 126), st.integers(1, 40)),
                min_size=2, max_size=12),
       st.sampled_from([1, 2, 3, 5, 7]), st.data())
def test_inexact_psi_brackets_the_sweep(kws, gden, data):
    """Rational gamma with psi(q) known only to a dyadic enclosure
    [lo, hi], lo < hi, as `_radius_table` gives a PsiPrime: each pair's
    lower bound is at most the sweep at psi = lo, its upper bound at least
    the sweep at psi = hi, and the row is the sum of the pairs on the
    2^-192 grid."""
    g = F(data.draw(st.integers(0, gden - 1)), gden)
    # psi(q) in [k, min(k + w, 127)] / 2^8, inside (0, 1/2)
    table = {q: Enclosure.dyadic(k, min(k + w, 127), 8)
             for q, (k, w) in enumerate(kws, start=1)}
    Q = len(kws)
    fam = AqFamily(table, g, Q)
    assert not fam.exact
    lo_sets = {q: build_Aq(v.lo, g, q) for q, v in table.items()}
    hi_sets = {q: build_Aq(v.hi, g, q) for q, v in table.items()}
    for q in range(2, Q + 1):
        want_lo = want_hi = 0
        for qp in range(1, q):
            lo, hi, CD = fam.pair_raw(q, qp)
            assert F(lo, CD) <= intersect(lo_sets[q], lo_sets[qp]).measure()
            assert F(hi, CD) >= intersect(hi_sets[q], hi_sets[qp]).measure()
            want_lo += (lo << circlesets.SHIFT) // CD
            want_hi -= (-hi << circlesets.SHIFT) // CD
        assert fam.row(q) == (want_lo, want_hi), q


def _clip_sum_brute(t0, s, n, c):
    """Term by term; a cap c < 0 clips every term to 0."""
    return sum(max(min(t0 - k * s, c), 0) for k in range(n))


@settings(max_examples=300, deadline=None)
@given(st.integers(-20, 200), st.integers(1, 30), st.integers(-3, 25),
       st.integers(-5, 120))
def test_clip_sum_matches_the_term_sum(t0, s, n, c):
    """The closed form of sum_{k<n} max(min(t0 - k s, c), 0), n, t0 and c
    of any sign included."""
    assert circlesets._clip_sum(t0, s, n, c) == _clip_sum_brute(t0, s, n, c)


@pytest.mark.parametrize("t0, s, n, c", [
    (10, 3, 0, 5), (10, 3, -2, 5),       # no terms
    (0, 3, 4, 5), (-7, 3, 4, 5),         # t0 <= 0
    (10, 3, 4, 0), (10, 3, 4, -1),       # c <= 0
    (4, 3, 5, 9), (9, 3, 5, 9),          # t0 < c, t0 = c
    (100, 3, 4, 7), (100, 7, 3, 200),    # terms above 0 capped by n
    (20, 3, 20, 5), (21, 3, 20, 5),      # every positive term counted
])
def test_clip_sum_edges(t0, s, n, c):
    assert circlesets._clip_sum(t0, s, n, c) == _clip_sum_brute(t0, s, n, c)


@pytest.mark.parametrize("gamma", [F(2, 7), RealParam.sqrt(2)])
def test_pair_sum_is_the_sum_of_pair_measures(gamma):
    psi = ApproxFunction.over_q(F(1, 3)).eval
    Q = 30
    fam = AqFamily(psi, gamma, Q)
    ms = [pair_measure(fam, q, qp) for q in range(2, Q + 1) for qp in range(1, q)]
    lo, hi = sum(m.lo for m in ms), sum(m.hi for m in ms)
    total = pair_sum(psi, gamma, Q)
    if fam.exact:
        assert total == Enclosure(lo, hi) and lo == hi
    else:
        # each pair is rounded outward onto the 2^-192 grid
        assert total.lo <= lo and hi <= total.hi
        assert total.width - (hi - lo) <= len(ms) * F(2, 2**192)


def test_pair_sum_of_full_sets(sqrt2):
    """psi(q) >= 1/2 makes A_q the whole circle: each pair measures 1."""
    assert pair_sum(lambda q: F(3, 5), sqrt2, 5) == Enclosure.exact(10)
    assert pair_sum(lambda q: F(1, 2), F(0), 5) == Enclosure.exact(10)


def test_master_check_pins_gamma_once_per_precision(monkeypatch, sqrt2):
    circlesets._gamma_pin.cache_clear()
    realnum.param_evaluator.cache_clear()
    calls = Counter()
    enclosure = RealParam.enclosure

    def counted(self, bits):
        calls[bits] += 1
        return enclosure(self, bits)

    monkeypatch.setattr(RealParam, "enclosure", counted)
    for q in range(2, 30):
        for qp in range(1, q):
            master_check(lambda n: F(1, 4 * n), sqrt2, q, qp, H=3, C0=100)
    assert calls and max(calls.values()) == 1


REPORT_FIELDS = ("q", "qp", "gcd", "delta", "case", "indicator", "measure",
                 "bound", "verdict", "min_C0")
#: a decimal pinned only to 1/100: its case-I indicator is often undecided
WIDE_DEC = RealParam.decimal("0.4142", F(1, 100))
MASTER_GAMMAS = (RealParam.rational(0), RealParam.rational(F(1, 3)),
                 RealParam.sqrt(2), RealParam.const("golden"), WIDE_DEC)


def _fields(rep):
    """Every report field with its type: a Fraction and an equal int differ."""
    return [(f, type(getattr(rep, f)), getattr(rep, f)) for f in REPORT_FIELDS]


@st.composite
def _below_half(draw):
    """A rational in (0, 1/2)."""
    d = draw(st.integers(3, 400))
    return F(draw(st.integers(1, (d - 1) // 2)), d)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_master_check_matches_the_fraction_oracle(data):
    """Every report field equals the Fraction reference: psi const, overq
    or a table, the five shifts, H in 3..12 and any rational C0 > 1."""
    q = data.draw(st.integers(2, 80))
    qp = data.draw(st.integers(1, q - 1))
    kind = data.draw(st.sampled_from((ApproxFunction.const,
                                      ApproxFunction.over_q, "table")))
    if kind == "table":
        psi = ApproxFunction.from_table({q: data.draw(_below_half()),
                                         qp: data.draw(_below_half())})
    else:
        psi = kind(data.draw(_below_half()))
    gamma = data.draw(st.sampled_from(MASTER_GAMMAS))
    H = data.draw(st.integers(3, 12))
    cd = data.draw(st.integers(1, 30))
    C0 = F(cd + data.draw(st.integers(1, 300)), cd)
    got = master_check(psi.eval, gamma, q, qp, H=H, C0=C0)
    want = master_check_fraction(psi.eval, gamma, q, qp, H=H, C0=C0)
    assert _fields(got) == _fields(want)


def test_undecided_indicator_matches_the_fraction_oracle():
    """The undecided case-I report: no indicator, measure [0, 1], bound 0."""
    undecided = 0
    for q in range(2, 25):
        for qp in range(1, q):
            got = master_check(lambda n: F(1, 100), WIDE_DEC, q, qp)
            want = master_check_fraction(lambda n: F(1, 100), WIDE_DEC, q, qp)
            assert _fields(got) == _fields(want)
            undecided += got.indicator is None
    assert undecided > 0


def _enc(e):
    return [str(e.lo), str(e.hi)]


def _series(s):
    lists = [_enc(e) for e in s.mass] + [_enc(e) for e in s.pair_mass]
    return {"ratio": _enc(s.ratio), "mass": _enc(s.final_mass),
            "pair_mass": _enc(s.final_pair_mass), "undecided": s.undecided,
            "checkpoints_sha256":
                hashlib.sha256(json.dumps(lists).encode()).hexdigest()}


def test_records_match_the_golden_values(sqrt2, sqrt3):
    """bc_ratio (outward, exact, fibred, with full and empty sets),
    pair_sum and master_check reports, as computed before the kernel took
    integer radii: every Fraction, outward enclosures included."""
    R0 = RealParam.rational(0)
    psi = ApproxFunction.over_q(F(1, 4))
    table = ApproxFunction.from_table({1: F(49, 100), 2: F(0), 3: F(1, 3),
                                       5: F(1, 7), 7: F(49, 100)})
    got = {
        "bc_outward_sqrt3_60": _series(gallagher.bc_ratio(psi, sqrt3, 60)),
        "bc_fibred_sqrt2_120": _series(gallagher.bc_ratio(
            PsiPrime(psi, sqrt3, R0, F(1, 2)), sqrt2, 120)),
        "bc_exact_third_60": _series(gallagher.bc_ratio(psi, F(1, 3), 60)),
        "bc_exact_const_fat_40": _series(gallagher.bc_ratio(
            ApproxFunction.const(F(2, 5)), F(1, 7), 40)),
        "bc_unfibred_full_sqrt2_40": _series(gallagher.bc_ratio(
            PsiPrime(psi, sqrt3, R0, None), sqrt2, 40)),
        "bc_table_gaps_sqrt2_9": _series(gallagher.bc_ratio(table, sqrt2, 9)),
        "pair_sum_sqrt2_25": _enc(pair_sum(psi.eval, sqrt2, 25)),
        "pair_sum_third_25": _enc(pair_sum(psi.eval, F(1, 3), 25)),
    }
    got["master_q20_sha256"] = _master_sha256(
        [psi], (sqrt2, RealParam.rational(F(1, 3))), 20, 3, 100)
    # H = 10, C0 = 3/2: case II with C0 near 1 (overq rarely, const 2/5
    # often); pinned before master_check ran on integers
    got["master_H10_golden_q40_sha256"] = _master_sha256(
        [psi, ApproxFunction.const(F(2, 5))], (RealParam.const("golden"),),
        40, 10, F(3, 2))
    assert got == json.loads(GOLDEN.read_text())


def _master_sha256(psis, gammas, Q, H, C0):
    """sha256 of every master_check report field over q' < q <= Q."""
    reps = []
    for psi in psis:
        for gamma in gammas:
            for q in range(2, Q + 1):
                for qp in range(1, q):
                    r = master_check(psi.eval, gamma, q, qp, H=H, C0=C0)
                    reps.append([r.q, r.qp, r.gcd, str(r.delta), r.case,
                                 r.indicator, _enc(r.measure), str(r.bound),
                                 r.verdict, str(r.min_C0)])
    return hashlib.sha256(json.dumps(reps).encode()).hexdigest()
