"""The series lane behind `realnum.log2_scaled`: wherever it certifies the
digits that the squaring loop `_log2_frac_floor` extracts, they are the
loop's digits; it leaves only a small share of inputs to the loop; and it
builds its constants on first use, not on import."""

import os
import subprocess
import sys
from pathlib import Path

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

import mdl
from mdl.realnum import _log2_frac_floor, _log2_lane, _log2_series

BITS = (16, 40, 48, 64, 96, 128, 256)

#: Inputs (n, bits) whose digit from x0 the lane leaves to the loop, found
#: once by search.  At the first two the loop's digit is floor(T) - 1: T lies
#: 9.1e-6 and 5.7e-6 above an integer, inside the loop's truncation error.
#: The others lie within the loop's slack above an integer.
FALLBACK = [(887911648000548393, 16), (3529844216984939171, 64),
            (6501819, 40), (222201, 40), (1000013, 64), (1000122, 128),
            (1000023, 256)]
#: Inputs whose digit from x0 + 1 alone is left to the loop.
FALLBACK_NEXT = [(1003417, 64), (1007687, 256)]


def _input(n: int, bits: int) -> tuple:
    """(x0, work, nb) as `log2_scaled(n, bits)` passes them."""
    nb = bits + 3
    work = nb + 16
    return (n << work) >> (n.bit_length() - 1), work, nb


def _examples(test):
    for n, bits in FALLBACK + FALLBACK_NEXT:
        test = example(n, bits)(test)
    return test


@given(st.integers(2, 2**200), st.sampled_from(BITS))
@_examples
@settings(max_examples=300, deadline=None)
def test_lane_agrees_with_the_squaring_loop(n, bits):
    x0, work, nb = _input(n, bits)
    f0, f1 = _log2_lane(x0, work, nb)
    assert f0 in (None, _log2_frac_floor(x0, work, nb))
    assert f1 in (None, _log2_frac_floor(x0 + 1, work, nb))


@pytest.mark.parametrize("n, bits", FALLBACK)
def test_pinned_inputs_take_the_fallback(n, bits):
    assert _log2_lane(*_input(n, bits))[0] is None


@pytest.mark.parametrize("n, bits", FALLBACK_NEXT)
def test_pinned_inputs_take_the_fallback_for_the_next_grid_point(n, bits):
    f0, f1 = _log2_lane(*_input(n, bits))
    assert f0 is not None and f1 is None


# n = 2^7 + odd puts m halfway between two table points, the largest |t|
@given(st.integers(2, 2**200), st.sampled_from(BITS))
@example(129, 16)
@example(129, 64)
@example(255, 64)
@example(191, 40)
@example(2**199 + 1, 48)
@settings(max_examples=200, deadline=None)
def test_series_lies_within_its_error_bound(n, bits):
    x0, work, _ = _input(n, bits)
    a, err, P = _log2_series(x0, work)
    with mpmath.workprec(P + 64):
        truth = mpmath.log(mpmath.mpf(x0) / mpmath.mpf(2) ** work, 2) \
            * mpmath.mpf(2) ** P
        assert abs(a - truth) <= err


def test_the_lane_takes_almost_every_input():
    """Fewer than 2% of 10,000 consecutive n at 64 bits leave a digit to
    the loop."""
    fallbacks = sum(None in _log2_lane(*_input(n, 64))
                    for n in range(10**6, 10**6 + 10_000))
    assert fallbacks < 200


def test_import_builds_no_lane_constants():
    code = ("import mdl.cli, mdl.realnum as r; "
            "print(r._log2_lane_constants.cache_info().currsize)")
    env = dict(os.environ, PYTHONPATH=str(Path(mdl.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "0"
