"""ETK shells, psi families, expectation sums, the 1D star discrepancy
and the 2D grid discrepancy pinned byte for byte in data/shell_golden.json,
as computed when each of them still built a `Fraction` per term (the star
discrepancy: a Python int per orbit point; the sigma profiles: a 128-bit
window per coefficient vector; the 2D grid bracket: a scan of every
grid-aligned box).

After an intended change to these values, rewrite the file from the
current code with

    PYTHONPATH=src python tests/test_shell_golden.py

and say in the change log which entries moved and why."""

import hashlib
import json
from fractions import Fraction
from pathlib import Path

import pytest

import oracles
from mdl import cfrac, discrepancy, gallagher
from mdl.gallagher import ApproxFunction, FibreContext, PsiPrime, parse_psi
from mdl.realnum import DependenceError, Enclosure, RealParam, parse_param

F = Fraction
GOLDEN = Path(__file__).resolve().parent / "data" / "shell_golden.json"

ETK_1D = (("sqrt:2",), ("const:golden",), ("log2:3",))
ETK_2D = (("sqrt:2", "sqrt:3"), ("const:golden", "log2:3"))
ETK_N, ETK_1D_H, ETK_2D_H = 1000, 300, 30
FAMILIES = (("ev", F(1)), ("mono2", F(1)), ("log2sq", F(1, 2)))
PSI_TOP = 3000
LARGE_Q = (10**6 - 1, 10**6, 10**6 + 1, 2**40 - 1, 2**40, 2**40 + 1)
STAR_ALPHAS = ("sqrt:2", "sqrt:3", "const:golden", "const:pi", "const:e",
               "log2:3")
STAR_QS = (1, 2, 3, 10, 10**3, 10**4, 10**5)
# (alpha, Q, keyword arguments): a decimal literal and two precision caps
STAR_EXTRA = (("dec:1.41421356237@1e-11", 1000, {}),
              ("sqrt:2", 1000, {"cap": 64}),
              ("sqrt:2", 10**4, {"cap": 128}))
SIGMA_PAIRS = (("sqrt:2", "sqrt:3"), ("const:golden", "log2:3"),
               ("const:pi", "const:e"), ("sqrt:2", "sqrt:5"))
SIGMA_PAIR_NS = (2, 3, 10, 60, 120, 200)
DISC2D_PAIRS = (("sqrt:2", "sqrt:3"), ("const:golden", "log2:3"))
# (alpha, beta, Q, m): a fine grid, orbits with points on the walls, and a
# decimal within its radius of a wall
DISC2D_EXTRA = (("sqrt:2", "sqrt:3", 1000, 128),
                ("rat:1/3", "sqrt:2", 5, 3),
                ("rat:1/4", "rat:2/7", 40, 4),
                ("dec:0.3000000000015@1e-12", "sqrt:3", 1, 10))
SIGMA_SINGLE_NS = (2, 5, 100, 1000, 5000)
# (params, N, keyword arguments): two precision caps and a dependence
SIGMA_EXTRA = ((("sqrt:2", "sqrt:3"), 60, {"cap": 64}),
               (("sqrt:2", "sqrt:3"), 120, {"cap": 96}),
               (("const:pi",), 1000, {"cap": 64}),
               (("sqrt:2",), 5000, {"cap": 96}),
               (("sqrt:2", "sqrt:8"), 5, {}))


def _enc(e):
    return [str(e.lo), str(e.hi)]


def _digest(rows):
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def _etk(params, H):
    params = [parse_param(p) for p in params]
    sweep = discrepancy.etk_bound_sweep(params, ETK_N, H)
    shells = oracles.etk_shell_terms(params, ETK_N, H)
    return {"bounds_sha256": _digest([_enc(b.bound) for b in sweep]),
            "shells_sha256": _digest([_enc(s) for s in shells]),
            "last_bound": _enc(sweep[-1].bound),
            "last_shell": _enc(shells[-1])}


def _psi(tag, c):
    psi = ApproxFunction._formula(tag, c)
    q0 = psi.q0
    return {"q0": q0,
            "range_sha256": _digest([_enc(psi.eval(q))
                                     for q in range(q0, PSI_TOP + 1)]),
            "large": {str(q): _enc(psi.eval(q)) for q in LARGE_Q}}


SQRT3 = RealParam.sqrt(3)
R0 = RealParam.rational(0)
SWEEPS = {
    "direct_overq_2000": (PsiPrime(ApproxFunction.over_q(F(1, 4)), SQRT3, R0,
                                   None), 2000, True),
    "direct_mono2_2000": (PsiPrime(parse_psi("mono2:1"), SQRT3, R0, None),
                          2000, True),
    "fibred_log2sq_1500": (PsiPrime(ApproxFunction.log2sq_shape(F(1, 2)),
                                    SQRT3, R0, F(1, 4)), 1500, False),
}


def _sweep(pp, Q, direct):
    e = gallagher._HitSweep(SQRT3, pp, Q, direct).expected()
    return {"expected_sha256": _digest(_enc(e)),
            "expected_float": [float(e.lo), float(e.hi)]}


def _psi_prime():
    """psi' along one fibre, without and with a rational shift."""
    rows = {}
    for gp in (R0, RealParam.rational(F(1, 3)), RealParam.sqrt(2)):
        pp = PsiPrime(ApproxFunction.log2sq_shape(F(1, 2)), SQRT3, gp, F(1, 4))
        ctx = FibreContext(pp)
        vals = []
        for q in range(pp.psi.q0, 1201):
            state, lo, hi = ctx.psi_prime(q)
            v = Enclosure.dyadic(lo, hi, gallagher.PSI_PRIME_BITS)
            vals.append(_enc(v) + [state])
        rows[gp.canonical()] = _digest(vals)
        rows[gp.canonical() + ":divergence"] = _enc(
            gallagher.divergence_sum(pp, 1200).total)
    return rows


def _star_disc():
    """The exact 1D star discrepancy of {q alpha}, q = 1..Q."""
    cases = [(a, Q, {}) for a in STAR_ALPHAS for Q in STAR_QS] + list(STAR_EXTRA)
    rows = {}
    for alpha, Q, kw in cases:
        key = ";".join([alpha, f"Q={Q}"] + [f"{k}={v}" for k, v in kw.items()])
        rows[key] = _enc(discrepancy.star_discrepancy_1d(parse_param(alpha), Q,
                                                         **kw))
    return rows


def _sigma():
    """sigma_pair and sigma_single: the enclosure and witness, or the
    DependenceError's witness and message."""
    cases = ([(p, N, {}) for p in SIGMA_PAIRS for N in SIGMA_PAIR_NS]
             + [((a,), N, {}) for a in STAR_ALPHAS for N in SIGMA_SINGLE_NS]
             + list(SIGMA_EXTRA))
    rows = {}
    for params, N, kw in cases:
        key = ";".join(list(params) + [f"N={N}"]
                       + [f"{k}={v}" for k, v in kw.items()])
        f = cfrac.sigma_pair if len(params) == 2 else cfrac.sigma_single
        try:
            e = f(*map(parse_param, params), N, **kw)
        except DependenceError as err:
            rows[key] = {"dependence": list(err.witness), "message": err.message}
            continue
        rows[key] = _enc(e.value) + [list(e.witness)]
    return rows


def _disc2d():
    """The (lower, upper) bracket of the 2D grid discrepancy."""
    cases = [(a, b, Q, m) for a, b in DISC2D_PAIRS for Q in (1, 50, 1000)
             for m in (1, 2, 7, 64)] + list(DISC2D_EXTRA)
    rows = {}
    for alpha, beta, Q, m in cases:
        lo, up = discrepancy.disc2d_grid(parse_param(alpha), parse_param(beta),
                                         Q, m)
        rows[f"{alpha};{beta};Q={Q};m={m}"] = [str(lo), str(up)]
    return rows


def compute():
    out = {}
    for params in ETK_1D:
        out["etk:" + ";".join(params)] = _etk(params, ETK_1D_H)
    for params in ETK_2D:
        out["etk:" + ";".join(params)] = _etk(params, ETK_2D_H)
    for tag, c in FAMILIES:
        out[f"psi:{tag}:{c}"] = _psi(tag, c)
    for name, (pp, Q, direct) in SWEEPS.items():
        out["sweep:" + name] = _sweep(pp, Q, direct)
    out["psi_prime"] = _psi_prime()
    out["star-disc"] = _star_disc()
    out["sigma"] = _sigma()
    out["disc2d"] = _disc2d()
    out["union_bound:50:3"] = _enc(gallagher.doubly_metric_union_bound(50, 3))
    return out


WANT = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}


@pytest.fixture(scope="module")
def got():
    return compute()


@pytest.mark.parametrize("key", sorted(WANT))
def test_matches_the_golden_value(got, key):
    assert got[key] == WANT[key]


def test_golden_file_covers_every_entry(got):
    assert set(WANT) == set(got)


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(compute(), indent=1) + "\n")
