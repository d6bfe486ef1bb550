"""The uint64 lane of the sigma profiles against the full scan.

`cfrac._best_candidate` scores every coefficient vector on the 2^-64 grid
(`realnum.form_lane`) and hands only the top band to the exact windows;
`oracles.best_candidate_full` runs every vector through them."""

from unittest.mock import patch

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mdl import cfrac
from mdl.realnum import (
    CapExceeded,
    DependenceError,
    FormEvaluator,
    form_lane,
    parse_param,
)
from oracles import best_candidate_full

ATOMS = ("sqrt:2", "sqrt:3", "sqrt:5", "sqrt:8", "const:golden", "const:pi",
         "const:e", "log2:3", "log2:5")
#: sigma refuses decimals, but the lane itself takes them; this one is so
#: wide that the lane refuses every scan past a few vectors
WIDE = "dec:1.4142@1e-2"
DECIMALS = ("dec:1.41421356237@1e-11", WIDE)


def _sigma(params, N, cap, best):
    """(enclosure, witness), or (exception class, witness)."""
    f = cfrac.sigma_pair if len(params) == 2 else cfrac.sigma_single
    with patch.object(cfrac, "_best_candidate", best):
        try:
            e = f(*map(parse_param, params), N, cap=cap)
        except (DependenceError, CapExceeded) as err:
            return type(err), getattr(err, "witness", None)
    return e.value, e.witness


atom = st.sampled_from(ATOMS)


@given(params=st.one_of(st.tuples(atom), st.tuples(atom, atom)),
       N=st.integers(2, 80), cap=st.sampled_from((31, 64, 96, 4096)))
@settings(max_examples=100, deadline=None)
@example(params=("sqrt:2", "sqrt:8"), N=30, cap=96)
@example(params=("const:pi", "const:e"), N=80, cap=31)
def test_lane_matches_the_full_scan(params, N, cap):
    want = _sigma(params, N, cap, best_candidate_full)
    assert _sigma(params, N, cap, cfrac._best_candidate) == want


def test_the_lane_refuses_a_wide_decimal():
    fe = FormEvaluator([parse_param(WIDE)])
    assert form_lane(fe, np.arange(2, 81, dtype=np.int64)[:, None])[1] is None


@given(params=st.tuples(*[st.sampled_from(ATOMS + DECIMALS)] * 2),
       vec=st.tuples(st.integers(-200, 200), st.integers(-200, 200)))
@settings(max_examples=150, deadline=None)
def test_the_lane_window_holds_the_exact_one(params, vec):
    """[d - m + 1, d + m - 1] / 2^64, d = min(M, -M), holds the window
    `dist_window` takes at fe.bits, where the lane answers at all."""
    fe = FormEvaluator([parse_param(p) for p in params])
    (M,), m = form_lane(fe, np.array([vec], dtype=np.int64))
    if m is None:
        return
    d, r = min(int(M), 2**64 - int(M)), int(m[0]) - 1
    lo, hi, scale = fe.dist_window(vec)
    assert (d - r) * scale <= lo << 64 and hi << 64 <= (d + r) * scale


def test_only_the_top_band_reaches_the_exact_windows(sqrt2, sqrt3):
    """sigma_pair(sqrt 2, sqrt 3, 200) scans 80,396 vectors; a lane that
    stopped filtering would score all of them on the exact first rung."""
    seen = []
    exact = FormEvaluator.dist_window

    def counted(self, coeffs, bits=None):
        if bits is None:        # the first-rung window that scores a vector
            seen.append(coeffs)
        return exact(self, coeffs, bits)

    with patch.object(FormEvaluator, "dist_window", counted):
        entry = cfrac.sigma_pair(sqrt2, sqrt3, 200)
    assert entry.witness == (5, 4)
    assert len(seen) <= 10, seen


S, T = 2**130, 2**70


@pytest.mark.parametrize("params, witness", [
    ((f"sqrt:{S * S + 1}",), (2,)),
    ((f"sqrt:{T * T + 1}", f"sqrt:{(T + 1) ** 2 + 1}"), (2, -2)),
])
def test_a_winner_separated_past_128_bits(params, witness):
    """The winner's distance is below 2^-128, so its 128-bit window touches
    0 and positive_window separates it higher up; its exponent comes from
    that window (such winners raised ValueError once).  sqrt(s^2 + 1) lies
    about 1/(2s) above s, so ||2 sqrt(S^2 + 1)|| is about 2^-130, and the
    two roots of the pair differ by about 1/(2T^2) from an integer."""
    f = cfrac.sigma_pair if len(params) == 2 else cfrac.sigma_single
    entry = f(*map(parse_param, params), 3)
    assert entry.witness == witness
    with mpmath.workdps(120):
        xs = [mpmath.sqrt(int(p[5:])) for p in params]
        v = sum(k * x for k, x in zip(witness, xs))
        expo = -mpmath.log(abs(v - mpmath.nint(v)), 2) \
            / mpmath.log(max(map(abs, witness)), 2)
        lo = mpmath.mpf(entry.value.lo.numerator) / entry.value.lo.denominator
        hi = mpmath.mpf(entry.value.hi.numerator) / entry.value.hi.denominator
        assert lo <= expo <= hi
