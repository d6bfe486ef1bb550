"""Pin every workload's records as the benchmark's reference.

    python3 perfbench/pin.py

from the repository root writes ``perfbench/reference.json``.  Run it only
at a version whose records are trusted: the benchmark checks every later
version against them.  Seed-dependent records are pinned for ``SEEDS`` and
for mdl's default seed.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SEEDS = tuple(range(64))

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import check  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def records_of(workload, seed, only=None):
    out = {}
    for experiment in workloads.build(workload, seed):
        for op in experiment:
            if only is None or op.name in only:
                records = op.run()
                if any(r[5] for r in records):
                    sys.exit(f"{workload}/{op.name}: undecided decisions")
                out[op.name] = (records, getattr(op, "stdout", None))
    for name, (_, stdout) in out.items():
        if name.endswith("_t2") and stdout != out[name[:-1] + "1"][1]:
            sys.exit(f"{workload}/{name}: records differ across --threads")
    return out


def main():
    default = workloads.DEFAULT_SEED
    data = {"pinned_at": run.git_sha(), "default_seed": default,
            "ops": {}, "seeded": {}}
    for w in workloads.WORKLOADS:
        data["ops"][w] = {}
        seeded_ops = set()
        for name, (records, _) in records_of(w, default).items():
            free, dep = check.split(records)
            data["ops"][w][name] = check.encode(free)
            if dep:
                seeded_ops.add(name)
                data["seeded"].setdefault(str(default), {}).setdefault(w, {})[
                    name] = check.encode(dep)
        for seed in SEEDS:
            if not seeded_ops or seed == default:
                continue
            for name, (records, _) in records_of(w, seed, seeded_ops).items():
                data["seeded"].setdefault(str(seed), {}).setdefault(w, {})[
                    name] = check.encode(check.split(records)[1])
        print(f"pinned {w}", flush=True)
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(data, fh, indent=0, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
