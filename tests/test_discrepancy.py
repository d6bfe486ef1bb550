import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from mdl import discrepancy
from mdl.discrepancy import (
    box_count,
    disc2d_grid,
    etk_autoH,
    etk_bound,
    etk_bound_sweep,
    grid_box_max,
    _near_the_maximum,
    star_discrepancy_1d,
)
from mdl.realnum import (
    CapExceeded,
    DependenceError,
    FormEvaluator,
    RealParam,
    log2_scaled,
    orbit_lane,
    parse_param,
    precision_ladder,
    rational_power,
)

F = Fraction
SQRT2 = math.sqrt(2)
SQRT3 = math.sqrt(3)
PHI = (1 + 5**0.5) / 2


def test_box_count_examples(sqrt2):
    r = box_count([sqrt2], 3, [(F(0), F(1, 2))])
    assert r.count == 2 and r.error == F(1, 2)
    r = box_count([sqrt2], 10, [(F(0), F(1))])
    assert r.count == 10 and r.error == 0
    r = box_count([sqrt2], 10, [(F(1, 3), F(1, 3))])
    assert r.count == 0 and r.error == 0


def test_box_count_float_oracle(sqrt2, sqrt3):
    Q = 300
    a1, b1 = F(1, 10), F(3, 7)
    r = box_count([sqrt2], Q, [(a1, b1)])
    xs = (np.arange(1, Q + 1) * SQRT2) % 1.0
    assert r.count == int(np.sum((xs >= float(a1)) & (xs < float(b1))))
    a2, b2 = F(2, 9), F(5, 6)
    r2 = box_count([sqrt2, sqrt3], Q, [(a1, b1), (a2, b2)])
    ys = (np.arange(1, Q + 1) * SQRT3) % 1.0
    cnt = int(np.sum((xs >= float(a1)) & (xs < float(b1))
                     & (ys >= float(a2)) & (ys < float(b2))))
    assert r2.count == cnt
    assert r2.undecided == 0
    # a wall above 1/2: {q x} in (1/2, a) must be placed in the complement
    a3, b3 = F(4, 5), F(9, 10)
    r3 = box_count([sqrt2], Q, [(a3, b3)])
    assert r3.count == int(np.sum((xs >= float(a3)) & (xs < float(b3))))
    assert r3.undecided == 0
    r4 = box_count([sqrt2], 4, [(a3, b3)])      # {4 sqrt2} = 0.657 is out
    assert (r4.count, r4.undecided) == (1, 0)   # {2 sqrt2} = 0.828 is in


def test_box_count_identity():
    """S = Q|I| + E holds by construction."""
    r = box_count([RealParam.sqrt(5)], 57, [(F(1, 4), F(2, 3))])
    assert r.count == 57 * r.volume + r.error


def test_box_count_at_the_cap():
    """{q/3} = 1/3 sits on the wall of [1/3, 2/3): a rational parameter
    is decided exactly at once, on the wall too; a decimal literal on a
    wall cannot be decided at all."""
    r = box_count([RealParam.rational(F(1, 3))], 30, [(F(1, 3), F(2, 3))],
                  cap=256)
    assert r.count == 10 and r.undecided == 0
    quarter = RealParam.decimal("0.25", F(1, 10**12))
    with pytest.raises(CapExceeded):
        box_count([quarter], 2, [(F(0), F(1, 2))], cap=256)


def _exact_disc2d(xs, ys, Q, m):
    """disc2d_grid's lower bracket by Fraction arithmetic: every
    grid-aligned box, every point."""
    pts = [(q * xs % 1, q * ys % 1) for q in range(1, Q + 1)]
    best = F(0)
    for a1 in range(m):
        for b1 in range(a1 + 1, m + 1):
            for a2 in range(m):
                for b2 in range(a2 + 1, m + 1):
                    c = sum(1 for u, v in pts if F(a1, m) <= u < F(b1, m)
                            and F(a2, m) <= v < F(b2, m))
                    best = max(best, abs(c - F(Q * (b1 - a1) * (b2 - a2),
                                               m * m)))
    return best


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 7), st.integers(1, 7), st.data())
def test_rational_orbits_match_exact_fractions(d1, d2, data):
    """Rational parameters are decided exactly at once, also on a wall:
    box counts and grid brackets against Fraction arithmetic, with every
    wall drawn from the parameters' own denominators."""
    xs = F(data.draw(st.integers(-2 * d1, 2 * d1)), d1)
    ys = F(data.draw(st.integers(-2 * d2, 2 * d2)), d2)
    Q = data.draw(st.integers(1, 25))
    box = []
    for d in (d1, d2):
        i = data.draw(st.integers(0, d))
        box.append((F(i, d), F(data.draw(st.integers(i, d)), d)))
    r = box_count([RealParam.rational(xs), RealParam.rational(ys)], Q, box)
    want = sum(1 for q in range(1, Q + 1)
               if all(a <= q * x % 1 < b for x, (a, b) in zip((xs, ys), box)))
    assert (r.count, r.undecided) == (want, 0)
    assert r.error == want - Q * (box[0][1] - box[0][0]) * (box[1][1] - box[1][0])
    m = data.draw(st.sampled_from((d1, d2)))
    lo, up = disc2d_grid(RealParam.rational(xs), RealParam.rational(ys), Q, m)
    assert lo == _exact_disc2d(xs, ys, Q, m) and up == lo + F(4 * Q, m)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from((("sqrt:2", "sqrt:3"), ("const:golden", "log2:3"),
                        ("const:pi", "const:e"), ("sqrt:7", "log2:5"))),
       st.integers(1, 60), st.integers(1, 9))
def test_irrational_orbits_match_the_box_scan(pair, Q, m):
    """disc2d_grid's bracket against the scan of every box over the cells
    of 128-bit enclosures of the orbit points."""
    alpha, beta = map(parse_param, pair)
    lo, up = disc2d_grid(alpha, beta, Q, m)
    cells = oracles.orbit_cells(alpha, beta, Q, m)
    assert lo == F(oracles.grid_box_max(cells, Q), m * m)
    assert up == lo + F(4 * Q, m)


CELL_GRIDS = st.integers(1, 10).flatmap(lambda m: arrays(
    np.int64, (m, m),
    elements=st.one_of(st.integers(0, 3), st.integers(0, 2**40))))


@settings(max_examples=200, deadline=None)
@given(CELL_GRIDS, st.one_of(st.integers(1, 100), st.integers(1, 2**40)))
@example(np.zeros((1, 1), dtype=np.int64), 1)
@example(np.array([[0, 5], [0, 0]], dtype=np.int64), 5)
def test_grid_box_max_matches_the_box_scan(cells, Q):
    """The second-difference identity holds on any grid of counts, also
    grids that no orbit produces."""
    assert grid_box_max(cells, Q) == oracles.grid_box_max(cells, Q)


@pytest.mark.parametrize("m", [1, 2, 3, 10])
def test_grid_box_max_is_exact_at_the_int64_bound(m):
    """An orbit's Q points in one cell with m^2 (N + Q) = 2 m^2 Q just
    below 2^63: the int64 values stay exact over the stated range."""
    Q = (2**63 - 1) // (2 * m * m)
    cells = np.zeros((m, m), dtype=np.int64)
    cells[m // 2, m - 1] = Q
    assert grid_box_max(cells, Q) == oracles.grid_box_max(cells, Q)


def test_decimal_near_a_wall():
    """A decimal literal's enclosure never narrows: a point within it of a
    wall, but not on it, is decided from the floor pin's one-sided window."""
    x = RealParam.decimal("0.3000000000015", F(1, 10**12))
    r = box_count([x], 1, [(F(3, 10), F(1, 2))])
    assert (r.count, r.undecided) == (1, 0)
    lo, _ = disc2d_grid(x, RealParam.sqrt(3), 1, 10)
    assert lo == F(99, 100)     # the point fills one of the 100 cells


def test_star_discrepancy_examples(golden):
    d1 = star_discrepancy_1d(golden, 1)
    assert float(d1.mid) == pytest.approx(PHI - 1, abs=1e-9)
    d2 = star_discrepancy_1d(golden, 2)
    assert float(d2.mid) == pytest.approx(2 - PHI, abs=1e-9)


def test_star_discrepancy_lower_bound(sqrt2):
    for Q in (1, 2, 7, 100):
        assert star_discrepancy_1d(sqrt2, Q).lo >= F(1, 2 * Q)


def test_star_discrepancy_float_oracle(sqrt2, golden):
    for alpha, av in ((sqrt2, SQRT2), (golden, PHI)):
        for Q in (10, 100, 2000):
            d = star_discrepancy_1d(alpha, Q)
            xs = sorted((q * av) % 1.0 for q in range(1, Q + 1))
            oracle = 1 / (2 * Q) + max(abs(x - (2 * i - 1) / (2 * Q))
                                       for i, x in enumerate(xs, 1))
            assert float(d.mid) == pytest.approx(oracle, abs=1e-9)
            assert float(d.width) < 1e-15


IRRATIONALS = ("sqrt:2", "sqrt:3", "const:golden", "const:pi", "const:e",
               "log2:3")


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(IRRATIONALS + ("dec:1.41421356237@1e-11",
                                      "dec:0.5@1e-30")),
       st.integers(1, 5000), st.sampled_from((64, 96, 128, 4096)))
@example("dec:0.5@1e-30", 2, 4096)
@example("dec:0.50000000000000000000001@1e-23", 2, 4096)
@example("dec:1.41421356237@1e-7", 1000, 4096)
def test_star_discrepancy_matches_the_exact_sort(alpha, Q, cap):
    """The lane and the exact fallback against sorting every point.  Tight
    decimals at 1/2 pin narrowly enough for the lane, but {2 x} may be 0
    (on a key of 0, or of 2^64 - 2), so neither route may sort them.  At
    radius 1e-7 the keys of 1000 points separate on the 2^-64 grid, but the
    windows do not at any rung."""
    x = parse_param(alpha)
    try:
        want = oracles.star_discrepancy_exact(x, Q, cap=cap)
    except CapExceeded:
        with pytest.raises(CapExceeded):
            star_discrepancy_1d(x, Q, cap=cap)
        return
    assert star_discrepancy_1d(x, Q, cap=cap) == want


def test_the_star_prefilter_keeps_the_exact_maximum():
    """Two keys whose float deviations order the other way round.  float64
    rounds 3 2^62 + 2^13 + 2^10 - 1 down by 1023, so f reads 8704 and 8192
    (in units of 2^-64) where the exact deviations are 8704 and 9215; the
    prefilter must still yield the second point."""
    keys = np.array([2**62 - 2**13 - 2**9, 3 * 2**62 + 2**13 + 2**10 - 1],
                    dtype=np.uint64)
    # with pin 1 on the 2^-64 grid and order[j] = keys[j] - 1, q = keys[j]
    # puts each point u on its key
    points = _near_the_maximum(1, 2**64, keys - np.uint64(1), keys, 1)
    dev = {i: abs(u * 4 - (2 * i - 1) * 2**64) for i, u in points}
    assert max(dev.values()) == 4 * 9215 > 4 * 8704


def _star_at(t: Fraction, Q: int) -> Fraction:
    """D* of {q t}, q = 1..Q, for a rational t, sorted as exact ints."""
    a, D = t.numerator, t.denominator
    us = sorted(q * a % D for q in range(1, Q + 1))
    v = max(abs(u * 2 * Q - (2 * i - 1) * D) for i, u in enumerate(us, 1))
    return F(1, 2 * Q) + F(v, 2 * Q * D)


def test_a_decimal_holds_over_its_radius():
    """dec:m@r stands for every real in [m - r, m + r]: the enclosure holds
    the exact D* at 11 evenly spaced points of the radius, its ends
    included, for 30 seeded literals.  A literal whose radius keeps two
    points, or a point and 0, apart at no rung is refused instead."""
    rng = random.Random(19)
    held = 0
    for _ in range(30):
        digits = rng.randint(8, 14)
        whole, frac = divmod(rng.randrange(1, 4 * 10**digits), 10**digits)
        x = RealParam.decimal(f"{whole}.{frac:0{digits}d}",
                              F(1, 10 ** rng.randint(6, 10)))
        Q = rng.randint(2, 200)
        try:
            d = star_discrepancy_1d(x, Q)
        except CapExceeded:
            continue
        held += 1
        for i in range(11):
            t = x.value + x.radius * F(i - 5, 5)
            assert d.lo <= _star_at(t, Q) <= d.hi, (x, Q, t)
    assert held >= 25


def _lane(alpha, Q, cap=4096):
    fe = FormEvaluator([parse_param(alpha)], cap=cap)
    return orbit_lane(fe, Q, next(precision_ladder(fe.bits, cap)))


@pytest.mark.parametrize("alpha", IRRATIONALS)
def test_orbit_lane_certifies_irrational_orbits(alpha):
    order, keys, margin = _lane(alpha, 10**5)
    assert sorted(order.tolist()) == list(range(10**5))
    assert (np.diff(keys) > 2 * margin).all()
    assert margin <= keys[0] and keys[-1] <= 2**64 - margin


@pytest.mark.parametrize("alpha, cap", [("dec:1.4142135@1e-6", 4096),
                                        ("sqrt:2", 64)])
def test_orbit_lane_refuses_wide_pins_and_low_caps(alpha, cap):
    assert _lane(alpha, 10**5, cap) is None


def test_star_discrepancy_rejects_rational():
    with pytest.raises(ValueError):
        star_discrepancy_1d(RealParam.rational(F(2, 3)), 5)


def test_disc2d_examples(sqrt2, sqrt3):
    lo, up = disc2d_grid(sqrt2, sqrt3, 3, 1)
    assert lo == 0 and up == lo + 12
    lo2, _ = disc2d_grid(sqrt2, sqrt3, 3, 2)
    # brute force over the 9 anchored-grid boxes at m = 2
    xs = [(q * SQRT2) % 1 for q in (1, 2, 3)]
    ys = [(q * SQRT3) % 1 for q in (1, 2, 3)]
    best = 0.0
    for A1 in range(2):
        for B1 in range(A1 + 1, 3):
            for A2 in range(2):
                for B2 in range(A2 + 1, 3):
                    c = sum(1 for x, y in zip(xs, ys)
                            if A1 / 2 <= x < B1 / 2 and A2 / 2 <= y < B2 / 2)
                    best = max(best, abs(c - 3 * (B1 - A1) * (B2 - A2) / 4))
    assert float(lo2) == pytest.approx(best, abs=1e-12)


def test_disc2d_monotone_and_bracket(sqrt2, sqrt3):
    prev_lo = F(0)
    prev_up = None
    for m in (1, 2, 4, 8):
        lo, up = disc2d_grid(sqrt2, sqrt3, 50, m)
        assert lo <= up
        assert lo >= prev_lo            # finer grids see more boxes
        if prev_up is not None:
            assert lo <= prev_up        # brackets stay consistent
        prev_lo, prev_up = lo, up


def test_etk_1d_closed_form(golden):
    # H = 1: bound = 9N + 36/||phi||, and ||phi|| = 2 - phi
    b = etk_bound([golden], 10, 1)
    expect = 90 + 36 / (2 - PHI)
    assert float(b.bound.mid) == pytest.approx(expect, rel=1e-9)
    assert float(b.bound.mid) == pytest.approx(184.249, abs=1e-3)
    assert b.bound.lo >= 90


def test_etk_lower_bound(sqrt2):
    for H in (1, 2, 17):
        b = etk_bound([sqrt2], 100, H)
        assert b.bound.lo >= F(9 * 100, H)


def test_etk_dependence(sqrt2):
    with pytest.raises(DependenceError) as exc:
        etk_bound([sqrt2, sqrt2], 5, 3)
    assert exc.value.witness == (1, -1)


def test_etk_2d_float_oracle(sqrt2, sqrt3):
    H, N = 5, 9
    eb = etk_bound([sqrt2, sqrt3], N, H)
    tot = 0.0
    for k1 in range(-H, H + 1):
        for k2 in range(-H, H + 1):
            if k1 == 0 and k2 == 0:
                continue
            v = (k1 * SQRT2 + k2 * SQRT3) % 1.0
            d = min(v, 1 - v)
            tot += 4 / ((abs(k1) + 1) * (abs(k2) + 1)) * 2 / (N * d)
    assert float(eb.bound.mid) == pytest.approx(9 * N * (1 / H + tot), rel=1e-9)


def test_etk_sweep_consistent(sqrt2, sqrt3):
    for params in ([sqrt2], [sqrt2, sqrt3]):
        sweep = etk_bound_sweep(params, 50, 40)
        shells = oracles.etk_shell_terms(params, 50, 40)
        for H in (1, 7, 40):
            single = etk_bound(params, 50, H)
            assert single.bound == sweep[H - 1].bound
            assert oracles.etk_shell_terms(params, 50, H) == shells[:H]


def test_exact_disc_below_etk_small(sqrt2, golden):
    """Upper-bound property on a small sweep (the acceptance suite runs the
    full one)."""
    for alpha in (sqrt2, golden):
        N = 100
        nd = star_discrepancy_1d(alpha, N) * N
        for b in etk_bound_sweep([alpha], N, 50):
            assert nd.lo <= b.bound.hi, (alpha, b.H)


def test_scaling_inequality_anchored(sqrt2, golden):
    """Count-error form of the dilation inequality, in 1D where both sides
    are exactly computable: N D*(M alpha) <= 2 M N D*(alpha)."""
    for alpha, n in ((sqrt2, 2), (sqrt2, 3), (golden, 2), (golden, 3)):
        N = 500
        base = star_discrepancy_1d(alpha, N)
        scaled_param = RealParam.sqrt(alpha.arg * n * n) if alpha.kind == "sqrt" \
            else None
        if scaled_param is None:
            continue
        scaled = star_discrepancy_1d(scaled_param, N)
        assert scaled.lo * N <= 2 * n * N * base.hi


def test_etk_autoH_example():
    b = etk_autoH(2, F(1))
    assert b.H == 2
    assert b.bound.lo >= F(9 * 2, 2)
    assert b.implied_constant is not None


@pytest.mark.parametrize("N", [1, 2, 3, 10, 100, 1000, 10**6])
def test_etk_autoH_matches_the_stepwise_route(N):
    """The integer comparison of each step picks the H, and so the bound and
    the implied constant, that the per-step s-th root picked."""
    for sigma in (F(1), F(2), F(1, 2), F(1, 3), F(2, 3), F(3, 2), F(1, 10),
                  F(5, 7), F(1, 64)):
        assert etk_autoH(N, sigma) == oracles.etk_autoH_stepwise(N, sigma)


def test_etk_autoH_takes_no_root_per_step(monkeypatch):
    """The steps up to H compare integers: rational_power is called for the
    final bound and the implied constant only, however large H is."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return rational_power(*args, **kwargs)

    monkeypatch.setattr(discrepancy, "rational_power", counted)
    counts = {}
    for N, sigma in ((10, F(1)), (1000, F(1, 1000)), (10**6, F(1, 10))):
        calls.clear()
        H = etk_autoH(N, sigma).H
        counts[H] = len(calls)
    assert sorted(counts) == [2, 27, 114] and set(counts.values()) == {3}


def test_etk_autoH_searches_H_in_log_steps(monkeypatch):
    """Doubling, then bisection: N = 10^9 at sigma = 1/1000 reaches H near
    5.5 10^6 in O(log H) log2 windows, and H is the smallest that passes
    the lower test (H - 1 fails the upper one)."""
    calls = []

    def counted(*args):
        calls.append(args)
        return log2_scaled(*args)

    monkeypatch.setattr(discrepancy, "log2_scaled", counted)
    H = etk_autoH(10**9, F(1, 1000)).H
    assert len(calls) <= 2 * H.bit_length() + 3
    coef = F(8000, 1000) / 10**9

    def passes(H, end):
        lg = log2_scaled(H, 96)
        return (coef * F(lg[end], 1 << lg[2])) ** 1000 * H ** 1001 >= 1

    assert passes(H, 0) and not passes(H - 1, 1)


def test_etk_autoH_sweep(sqrt2, sqrt3):
    """Implied constant stays finite over a small N sweep."""
    from mdl.cfrac import sigma_pair
    for N in (10, 100, 1000):
        s = sigma_pair(sqrt2, sqrt3, min(N, 60)).value
        sN = F(math.ceil(float(s.hi) * 16), 16)
        b = etk_autoH(N, sN)
        assert b.implied_constant.hi < F(10**9)
        assert b.H >= 1
