"""Reference check of workload records, and the certificate-width metric.

``reference.json`` pins every operation's records as produced by the seed
version of mdl (``pin.py`` writes it).  Records are compared by their key
``(experiment, params, q_or_Q)`` in order, then by value:

* a reference record with zero error is exact: the new record must carry
  the same value, zero error and the same undecided count.  Values are kept
  as hexadecimal fractions; a long exact value is kept as the SHA-256 of
  that text, which still compares it byte for byte;
* a reference enclosure ``value +- err`` must overlap the new enclosure,
  since both contain the truth.

Seed-dependent records (the Monte-Carlo draws) are pinned for a set of
seeds and are checked only for those; their seed-independent neighbours
(expectations, census sizes, BC ratios, master counts) are always checked.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from fractions import Fraction as F

from workloads import SEED_DEPENDENT

_SEED_RE = re.compile(r";seed=-?\d+")
DIGEST_OVER = 256           # characters


def to_text(x: F) -> str:
    return f"{x.numerator:x}/{x.denominator:x}"


def from_text(s: str) -> F:
    num, den = s.split("/")
    return F(int(num, 16), int(den, 16))


def exact_text(x: F) -> str:
    s = to_text(x)
    if len(s) > DIGEST_OVER:
        return "sha256:" + hashlib.sha256(s.encode()).hexdigest()
    return s


def norm_key(r) -> tuple:
    """(experiment, params without the seed, q_or_Q)."""
    return (r[0], _SEED_RE.sub("", r[1]), r[2])


def encode(records) -> list:
    return [list(norm_key(r))
            + [exact_text(r[3]) if r[4] == 0 else to_text(r[3]), to_text(r[4]), r[5]]
            for r in records]


def split(records):
    """(seed-independent, seed-dependent) records."""
    free = [r for r in records if r[0] not in SEED_DEPENDENT]
    dep = [r for r in records if r[0] in SEED_DEPENDENT]
    return free, dep


def _mismatch(got, want) -> str | None:
    if len(got) != len(want):
        return f"{len(got)} records, reference has {len(want)}"
    for r, w in zip(got, want):
        key = list(norm_key(r))
        if key != w[:3]:
            return f"record {key} where the reference has {w[:3]}"
        if r[5] != w[5]:
            return f"{key}: undecided {r[5]}, reference {w[5]}"
        err = from_text(w[4])
        if err == 0:
            if r[4] != 0 or exact_text(r[3]) != w[3]:
                return f"{key}: {float(r[3])} +- {float(r[4])} differs from " \
                       f"the exact reference"
            continue
        value = from_text(w[3])
        if abs(r[3] - value) > r[4] + err:
            return f"{key}: enclosure {float(r[3])} +- {float(r[4])} misses " \
                   f"reference {float(value)} +- {float(err)}"
    return None


class Reference:
    def __init__(self, path: str, workload: str, seed: int):
        with open(path) as fh:
            data = json.load(fh)
        self.ops = data["ops"].get(workload, {})
        self.seeded = data["seeded"].get(str(seed), {}).get(workload)
        self.unchecked = 0      # seed-dependent records with no pinned value

    def check(self, op_name: str, records) -> str | None:
        """None when the operation's records agree with the reference,
        otherwise a one-line reason."""
        if op_name not in self.ops:
            return f"no reference for operation {op_name}"
        free, dep = split(records)
        bad = _mismatch(free, self.ops[op_name])
        if bad:
            return bad
        if self.seeded is None:
            self.unchecked += len(dep)
            return None
        return _mismatch(dep, self.seeded.get(op_name, []))


def cert_bits(records) -> float | None:
    """min over inexact records with a nonzero value of log2(|mid| / err)."""
    best = None
    for r in records:
        value, err = r[3], r[4]
        if err == 0 or value == 0:
            continue
        bits = (math.log2(abs(value.numerator)) + math.log2(err.denominator)
                - math.log2(value.denominator) - math.log2(err.numerator))
        best = bits if best is None else min(best, bits)
    return best
