"""The mdl benchmark.

    python3 perfbench/run.py --workload {pairs,shells,survey,cli} \\
        --seed N --seconds S --trace {0,1}

Run it from the repository root.  It imports mdl from ``src/`` there and
runs whole passes of the workload until the next pass would end after S
seconds (at least three passes untraced).  Each operation's records are
checked against ``perfbench/reference.json``.  A timing is the upper decile
of its samples in the run (see ``high``).  The last line of stdout is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``,
its per-layer metrics with ``--trace 1``.  Per-run details (host context,
per-pass times, failures) and the spans go to ``.perfbench_out/``.

With ``--trace 1`` untraced and traced passes alternate, so the tracing
overhead is measured within one run, over the same host phases.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time

import check
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".perfbench_out"
SETUP_SAMPLES = 15
TRACED_IMPORT_SAMPLES = 5     # set-up probes a traced cli run makes
MIN_PASSES = 3
MODULES = ("realnum", "cfrac", "arith", "circlesets", "discrepancy",
           "gallagher", "cli")
POOL_NOTE = ("spans and counts cover the benchmark process and each CLI "
             "parent process; ProcessPoolExecutor workers are not traced")


def die(msg: str):
    sys.stderr.write(f"perfbench: {msg}\n")
    sys.exit(2)


def calibrate(n: int = 1_000_000) -> float:
    """A fixed pure-Python loop: a host-speed diagnostic, not a gate."""
    t0 = time.perf_counter()
    s = 0
    for i in range(n):
        s += i * i % 7
    return time.perf_counter() - t0


def git_sha() -> str:
    """HEAD of the checkout, read from .git without leaving it."""
    try:
        with open(".git/HEAD") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(".git", head[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


def host_context(calib: list) -> dict:
    import numpy
    try:
        import gmpy2  # noqa: F401
        gmpy2_absent = False
    except ImportError:
        gmpy2_absent = True
    return {"host.calib_s": statistics.median(calib), "calib_samples": calib,
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "gmpy2_absent": gmpy2_absent,
            "git_sha": git_sha()}


def src_lines() -> dict:
    out = {}
    for m in MODULES:
        with open(os.path.join("src", "mdl", f"{m}.py")) as fh:
            out[f"{m}.src_lines"] = sum(1 for _ in fh)
    return out


class Pass:
    def __init__(self, ops: dict):
        self.ops = ops                # op name -> seconds
        self.wall = sum(ops.values())
        self.summary = None           # traced passes: span summary
        self.cli = None               # traced cli passes: cli.* metrics


class Runner:
    """Runs passes of one workload and judges every operation."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.experiments = workloads.build(workload, seed)
        self.ref = check.Reference(os.path.join(HERE, "reference.json"),
                                   workload, seed)
        self.attempted = 0
        self.failed = 0
        self.errors: list = []
        self.cert = None

    def run_pass(self) -> Pass:
        ops = {}
        for experiment in self.experiments:
            results = []
            for op in experiment:
                t0 = time.perf_counter()
                try:
                    records, err = op.run(), None
                except Exception as e:  # an operation that raises fails
                    records, err = None, f"{type(e).__name__}: {e}"
                ops[op.name] = time.perf_counter() - t0
                results.append((op, records, err))
            by_name = {op.name: op for op in experiment}
            for op, records, err in results:
                self.attempted += 1
                if err is None:
                    err = self.judge(op, records, by_name)
                if err:
                    self.failed += 1
                    self.errors.append(f"{op.name}: {err}")
        return Pass(ops)

    def experiment_times(self, passes, typical) -> list:
        """Per experiment, ``typical`` of its time in each pass (the sum of
        its operations' times)."""
        return [typical([sum(p.ops[op.name] for op in e) for p in passes])
                for e in self.experiments]

    def judge(self, op, records, by_name):
        undecided = sum(r[5] for r in records)
        if undecided:
            return f"{undecided} undecided decisions"
        if op.name.endswith("_t2"):
            t1 = by_name[op.name[:-1] + "1"]
            if t1.stdout != op.stdout:
                return "records at --threads 1 and --threads 2 differ"
        bad = self.ref.check(op.name, records)
        if bad:
            return bad
        bits = check.cert_bits(records)
        if bits is not None:
            self.cert = bits if self.cert is None else min(self.cert, bits)
        return None

    def run_for(self, seconds: float, min_passes: int, between) -> list:
        """Whole passes until the next one would end after ``seconds``.
        ``between(share)`` runs after each pass with the share of the time
        used so far."""
        passes = []
        t0 = time.perf_counter()
        while True:
            p = self.run_pass()
            passes.append(p)
            elapsed = time.perf_counter() - t0
            between(elapsed / seconds)
            if len(passes) >= min_passes and elapsed + p.wall > seconds:
                return passes


def setup_sample(workload: str, seed: int):
    """(seconds from process start to exit, seconds for ``import mdl.cli``)
    of one set-up probe."""
    argv = [sys.executable, os.path.join(HERE, "setup_probe.py"), workload,
            str(seed)]
    t0 = time.perf_counter()
    rc, out, err = workloads.run_process(argv)
    if rc != 0:
        die(f"set-up probe failed: {err.decode(errors='replace')[-400:]}")
    return time.perf_counter() - t0, float(out)


def med(values) -> float:
    return statistics.median(values) if values else 0.0


def high(values) -> float:
    """The upper decile.  The host switches between a fast and a slow state
    (up to 1.5 times slower) that last from seconds to minutes.  The median
    of a run falls on whichever state held half the run, so it jumps from
    run to run; the slow state shows in nearly every run, so the upper
    decile of many short samples repeats (see perfbench/README.md)."""
    return sorted(values)[round(0.9 * (len(values) - 1))]


# ---------------------------------------------------------------------------
# traced passes
# ---------------------------------------------------------------------------

def traced_library_pass(runner, tracer):
    def run():
        tracer.install()
        try:
            mark = tracer.mark()
            p = runner.run_pass()
            p.summary = tracer.summary(mark)
        finally:
            tracer.uninstall()
        return p
    return run


def traced_cli_pass(runner, out_dir):
    count = [0]

    def run():
        count[0] += 1
        files = {}
        for experiment in runner.experiments:
            for op in experiment:
                files[op.name] = os.path.join(out_dir, f"pass{count[0]}-{op.name}.npz")
                op.trace_file = files[op.name]
        try:
            p = runner.run_pass()
        finally:
            for experiment in runner.experiments:
                for op in experiment:
                    del op.trace_file
        parts = [(op, tracing.load_summary(files[op.name])[0])
                 for experiment in runner.experiments for op in experiment
                 if os.path.exists(files[op.name])]
        p.summary = tracing.add_summaries(s for _, s in parts)
        builds = [s.get("gallagher.hit_sweep.build", {}).get("calls", 0)
                  for op, s in parts if op.argv[0] == "mc-survey"]
        p.cli = {
            "cli.main.self_s": p.summary.get("cli.main", {}).get("self_s", 0.0),
            "cli.hit_sweep_builds": statistics.fmean(builds) if builds else 0.0,
        }
        return p
    return run


def per_layer(runner, untraced, traced, calib, imports) -> dict:
    per_pass = [tracing.layer_metrics(p.summary) for p in traced]
    out = {k: med([m[k] for m in per_pass]) for k in per_pass[0]}
    cli = {"cli.import_s": 0.0, "cli.main.self_s": 0.0,
           "cli.hit_sweep_builds": 0.0, "cli.threads_speedup.mc_survey": 0.0,
           "cli.threads_speedup.master_sweep": 0.0}
    if runner.workload == "cli":
        cli["cli.import_s"] = med(imports)
        for k in ("cli.main.self_s", "cli.hit_sweep_builds"):
            cli[k] = med([p.cli[k] for p in traced])
        for key, op in (("mc_survey", "pool_mc"), ("master_sweep", "pool_master")):
            cli[f"cli.threads_speedup.{key}"] = med(
                [p.ops[f"{op}_t1"] / p.ops[f"{op}_t2"] for p in untraced])
    out.update(cli)
    out["trace.overhead_frac"] = (med([p.wall for p in traced])
                                  / med([p.wall for p in untraced]) - 1)
    out["host.calib_s"] = med(calib)
    out.update(src_lines())
    return out


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = os.path.join(os.getcwd(), "src")
    if not (os.path.isfile(os.path.join(src, "mdl", "__init__.py"))
            and os.path.isfile("BENCHMARK.json")):
        die("run from the repository root: src/mdl or BENCHMARK.json missing")
    sys.path.insert(0, src)
    import mdl
    if not os.path.abspath(mdl.__file__).startswith(src + os.sep):
        die(f"imported mdl from {mdl.__file__}, not from {src}")
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    calib = [calibrate() for _ in range(3)]
    host = host_context(calib)
    runner = Runner(args.workload, args.seed)
    setup, imports = [], []

    def sample_setup(share: float, samples: int = SETUP_SAMPLES):
        """Keep the set-up samples spread evenly over the run, so that they
        see the same host phases as the passes."""
        while len(setup) < min(samples, math.ceil(samples * share)):
            seconds, import_s = setup_sample(args.workload, args.seed)
            setup.append(seconds)
            imports.append(import_s)

    if not args.trace:
        untraced = runner.run_for(args.seconds, MIN_PASSES, sample_setup)
        sample_setup(1.0)
        traced = []
        maxrss_kb = resource.getrusage(
            resource.RUSAGE_CHILDREN if args.workload == "cli"
            else resource.RUSAGE_SELF).ru_maxrss
        metrics = {f"exp{i + 1}_s": t
                   for i, t in enumerate(runner.experiment_times(untraced, high))}
        metrics.update({
            "wall_s": high([p.wall for p in untraced]),
            "setup_s": med(setup),
            "peak_rss_mb": maxrss_kb / 1024,
            "ok_frac": 1 - runner.failed / max(runner.attempted, 1),
            "cert_bits": runner.cert if runner.cert is not None else 0.0,
        })
        wanted = spec["end_to_end"]
    else:
        t0 = time.perf_counter()
        if args.workload == "cli":
            sample_setup(1.0, TRACED_IMPORT_SAMPLES)
            cli_dir = os.path.join(OUT_DIR, "cli-spans")
            os.makedirs(cli_dir, exist_ok=True)
            traced_pass = traced_cli_pass(runner, cli_dir)
        else:
            tracer = tracing.Tracer()
            traced_pass = traced_library_pass(runner, tracer)
        untraced, traced = [], []
        while not traced or (time.perf_counter() - t0 + untraced[-1].wall
                             + traced[-1].wall <= args.seconds):
            untraced.append(runner.run_pass())
            traced.append(traced_pass())
        if args.workload != "cli":
            tracer.save(os.path.join(OUT_DIR, f"{args.workload}-spans.npz"))
        metrics = per_layer(runner, untraced, traced, calib, imports)
        wanted = spec["per_layer"]

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        die(f"metrics not computed: {missing}")
    correct = runner.failed == 0 and runner.cert is not None
    result = {"correct": correct, "attempted": runner.attempted,
              "failed": runner.failed,
              "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                          for m in wanted}}
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "host": host,
              "experiments": dict(zip(("exp1_s", "exp2_s", "exp3_s"),
                                      workloads.EXPERIMENT_NAMES[args.workload])),
              "median_s": dict(zip(
                  [f"exp{i + 1}_s" for i in range(3)] + ["wall_s", "setup_s"],
                  runner.experiment_times(untraced, med)
                  + [med([p.wall for p in untraced]), med(setup)])),
              "setup_samples": setup, "errors": runner.errors,
              "unchecked_seed_records": runner.ref.unchecked,
              "untraced_passes": [p.ops for p in untraced],
              "traced_passes": [p.ops for p in traced],
              "note": POOL_NOTE if args.trace else None, "result": result}
    with open(os.path.join(OUT_DIR, f"{tag}.json"), "w") as fh:
        json.dump(detail, fh, indent=1)
    for e in runner.errors:
        sys.stderr.write(f"perfbench: FAILED {e}\n")
    print(json.dumps({"host": host}))
    if args.trace:
        print(json.dumps({"note": POOL_NOTE}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
