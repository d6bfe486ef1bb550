"""A catalogue of source mutants and the tests that must kill them.

Each entry replaces one exact piece of text in one file of `src/mdl` and
names the test files (or test ids) that must fail once it is applied.  An
entry with a `survivor` note is expected to pass them: the note says why the
mutant is still sound, so that no test can or need tell it apart.
`tests/test_mutants.py` checks in tier-1 that every `old` text occurs
exactly once, so the catalogue breaks loudly when the code moves.

Run the mutants on demand (each in a temporary copy of `src/` and `tests/`,
with only its named tests):

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # the named ones

It prints one line per mutant and exits 1 if a mutant that must be killed
survives, or a recorded survivor is killed."""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple, Optional

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    file: str           # relative to src/mdl
    old: str
    new: str
    killers: tuple      # test files or ids, relative to the repository root
    survivor: Optional[str] = None


MUTANTS = (
    Mutant("e-tail-dropped", "realnum.py",
           "return Enclosure.dyadic(s, s + k + 2, w)",
           "return Enclosure.dyadic(s, s + k, w)",
           ("tests/test_realnum.py",),
           survivor="k ends one past the first zero term K, and only the "
           "K - 2 terms from 1/2! to 1/(K-1)! are floored, so k = K + 1 "
           "still exceeds their loss plus the tail below 2"),
    Mutant("pi-error-dropped", "realnum.py",
           "s, err = 16 * a - 4 * b, 16 * ea + 4 * eb",
           "s, err = 16 * a - 4 * b, 0",
           ("tests/test_realnum.py",)),
    Mutant("const-guard-bits-16", "realnum.py",
           "w = bits + 24 + 2 * bits.bit_length()",
           "w = bits + 16",
           ("tests/test_realnum.py::test_const_pins_match_the_mpmath_route",)),
    Mutant("clip-sum-off-by-one", "circlesets.py",
           "k2 = min(n, -(-t0 // s))",
           "k2 = min(n, -(-t0 // s) + 1)",
           ("tests/test_pair_kernel.py",)),
    Mutant("em-terms-without-g5", "arith.py",
           "x2 * (x2 * (7560 * x - 1260) + 126) - 60,\n"
           "            x2 * (1260 * x2 - 231) + 137,",
           "x2 * (x2 * (7560 * x - 1260) + 126),\n"
           "            x2 * (1260 * x2 - 231),",
           ("tests/test_arith.py",)),
    Mutant("hyperbola-formula-at-u", "arith.py",
           "n = u if Q // u > u else u - 1",
           "n = u",
           ("tests/test_arith.py",),
           survivor="where floor(Q/u) = u, the formula's value of D(u) = 0 "
           "is off by at most one remainder bound |g^(5)(u+1)| / 30240, and "
           "with n = u the remainder counts that s too"),
    Mutant("hyperbola-remainder-dropped", "arith.py",
           "rem = n * ((lv - log2e * Fraction(137, 60)) / (252 * v ** 6)).hi",
           "rem = 0",
           ("tests/test_arith.py",)),
    Mutant("antipodal-sum-off", "circlesets.py",
           "if 2 * reach >= CD:",
           "if 2 * reach >= 2 * CD:",
           ("tests/test_pair_kernel.py",)),
    Mutant("closed-wall-as-open", "realnum.py",
           "if below < 0 or (closed and below == 0):",
           "if below < 0:",
           ("tests/test_realnum.py",)),
    Mutant("lane-margin-limit-2^64", "realnum.py",
           "m = None if top >> 62 else",
           "m = None if top >> 64 else",
           ("tests/test_realnum.py",)),
    Mutant("lane-sure-without-margin", "realnum.py",
           "return thr_lo - np.minimum(thr_lo, margin), thr_hi + margin",
           "return thr_lo, thr_hi + margin",
           ("tests/test_realnum.py",)),
    Mutant("lane-maybe-without-margin", "realnum.py",
           "return thr_lo - np.minimum(thr_lo, margin), thr_hi + margin",
           "return thr_lo - np.minimum(thr_lo, margin), thr_hi",
           ("tests/test_realnum.py",)),
    Mutant("log2-lane-without-slack", "realnum.py",
           "if hi >> sh == f and lo - (f << sh) > slack:",
           "if hi >> sh == f:",
           ("tests/test_log2_lane.py",)),
    Mutant("log2-series-last-term-dropped", "realnum.py",
           "for k in range(3, 2 * terms + 1, 2):",
           "for k in range(3, 2 * terms - 1, 2):",
           ("tests/test_log2_lane.py",)),
    Mutant("dependence-grouped-by-index", "realnum.py",
           "groups.setdefault(p.canonical(), []).append(i)",
           "groups.setdefault(i, []).append(i)",
           ("tests/test_realnum.py",)),
    Mutant("doubly-metric-without-negative-k1", "gallagher.py",
           "for k1 in list(range(-N, 0)) + list(range(1, N + 1))",
           "for k1 in range(1, N + 1)",
           ("tests/test_acceptance.py"
            "::test_criterion_10_against_the_failure_measure",)),
    Mutant("orbit-lane-without-min-key", "realnum.py",
           "if keys[0] < margin or int(keys[-1]) > _U64 - margin:",
           "if int(keys[-1]) > _U64 - margin:",
           ("tests/test_discrepancy.py"
            "::test_star_discrepancy_matches_the_exact_sort",)),
    Mutant("grid-box-max-without-min-r", "discrepancy.py",
           "np.ptp(g[a1 + 1:] - g[a1], axis=1)",
           "np.max(g[a1 + 1:] - g[a1], axis=1)",
           ("tests/test_discrepancy.py"
            "::test_grid_box_max_matches_the_box_scan",)),
    Mutant("fibre-error-without-beta-spread", "gallagher.py",
           "err += (q - prev) * spread",
           "err += 0",
           ("tests/test_gallagher.py"
            "::test_the_range_route_matches_the_per_q_route",)),
    Mutant("fibre-accumulator-one-q-late", "gallagher.py",
           "prev = 0\n",
           "prev = 1\n",
           ("tests/test_gallagher.py"
            "::test_the_range_route_matches_the_per_q_route",)),
    Mutant("fibre-collapse-check-dropped", "gallagher.py",
           "if every or (at_1 and q == 1):",
           "if False:",
           ("tests/test_gallagher.py"
            "::test_the_range_route_matches_the_per_q_route",)),
    Mutant("star-window-without-err", "discrepancy.py",
           "max(0, vmax - 2 * Q * err)",
           "max(0, vmax)",
           ("tests/test_discrepancy.py"
            "::test_a_decimal_holds_over_its_radius",)),
    Mutant("threads-later-chunks-shifted-by-one", "cli.py",
           "return [items[i:i + size] for i in range(0, len(items), size)]",
           "return [items[i + (i > 0):i + size + (i > 0)]\n"
           "            for i in range(0, len(items), size)]",
           ("tests/test_cli.py::test_threads_do_not_change_output",
            "tests/test_cli.py"
            "::test_mc_survey_builds_one_sweep_at_any_thread_count")),
    Mutant("threads-last-child-result-dropped", "cli.py",
           "            results.append(value)\n",
           "            if children:\n"
           "                results.append(value)\n",
           ("tests/test_cli.py::test_threads_do_not_change_output",
            "tests/test_cli.py"
            "::test_master_sweep_records_do_not_depend_on_threads",
            "tests/test_cli.py"
            "::test_mc_survey_builds_one_sweep_at_any_thread_count")),
)


def _ignore(_, names):
    return [n for n in names if n in ("__pycache__", ".hypothesis")]


def run(m: Mutant) -> str:
    """'killed', 'survived' or 'error' (the named tests could not run)."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for d in ("src", "tests"):
            shutil.copytree(ROOT / d, tmp / d, ignore=_ignore)
        shutil.copy(ROOT / "pyproject.toml", tmp)
        path = tmp / "src" / "mdl" / m.file
        text = path.read_text()
        if text.count(m.old) != 1:
            return "error"
        path.write_text(text.replace(m.old, m.new))
        env = dict(os.environ, PYTHONPATH=str(tmp / "src"),
                   PYTHONDONTWRITEBYTECODE="1")
        rc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x",
                             "-p", "no:cacheprovider", *m.killers],
                            cwd=tmp, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL).returncode
    return {0: "survived", 1: "killed"}.get(rc, "error")


def main(names) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    bad = 0
    for m in chosen:
        outcome = run(m)
        expected = "survived" if m.survivor else "killed"
        ok = outcome == expected
        bad += not ok
        print(f"{'ok ' if ok else 'BAD'} {m.name}: {outcome}"
              + (f" (sound: {m.survivor})" if m.survivor and ok else ""),
              flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
