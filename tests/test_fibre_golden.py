"""Fibre decisions pinned byte for byte in data/fibre_golden.json, as
computed when `FibreContext` decided the support, the census cell and the
psi' window by three separate routes.

After an intended change to these values, rewrite the file from the
current code with

    PYTHONPATH=src python tests/test_fibre_golden.py

and say in the change log which entries moved and why."""

import hashlib
import json
from fractions import Fraction
from pathlib import Path

import pytest

from mdl import gallagher
from mdl.gallagher import ApproxFunction, FibreContext, PsiPrime
from mdl.realnum import DependenceError, Enclosure, parse_param

F = Fraction
GOLDEN = Path(__file__).resolve().parent / "data" / "fibre_golden.json"

OMEGAS = {"1/2": F(1, 2), "1": F(1), "3/2": F(3, 2), "2/3": F(2, 3),
          "main2@1": ("main2", F(1)), "lemma3@1/2": ("lemma3", F(1, 2))}
# (beta, gamma', cap)
FIBRES = (("sqrt:2", "rat:0", 4096), ("sqrt:3", "rat:1/3", 4096),
          ("const:golden", "sqrt:5", 4096), ("rat:2/7", "rat:0", 4096),
          ("dec:0.4142135@1e-6", "rat:0", 512))
PSI = ApproxFunction.over_q(F(1, 4))
Q = 400


def _digest(rows):
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def _enc(e):
    return [str(e.lo), str(e.hi)]


def _fibre(beta, gp, omega, cap):
    pp = PsiPrime(PSI, parse_param(beta), parse_param(gp), omega)
    census = gallagher.gl_census(pp.beta, pp.gamma_prime, omega, Q, cap=cap)
    ctx = FibreContext(pp, cap=cap)
    values = []
    for q in range(1, Q + 1):
        try:
            state, lo, hi = ctx.psi_prime(q)
            v = Enclosure.dyadic(lo, hi, gallagher.PSI_PRIME_BITS)
            values.append(_enc(v) + [state])
        except DependenceError:
            values.append("refused")
    try:
        div = gallagher.divergence_sum(pp, Q, cap=cap)
        div_row = _enc(div.total) + [div.contributing, div.undecided]
    except DependenceError:
        div_row = "refused"
    return {"cell_sizes": {str(l): len(m) for l, m in sorted(census.cells.items())},
            "cells_sha256": _digest(sorted(census.cells.items())),
            "undecided": census.undecided,
            "psi_prime_sha256": _digest(values),
            "psi_prime_undecided": sum(1 for v in values if v[-1] == "UNDECIDED"),
            "divergence": div_row}


def compute():
    return {f"{beta};{gp};{name}": _fibre(beta, gp, omega, cap)
            for beta, gp, cap in FIBRES for name, omega in OMEGAS.items()}


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
