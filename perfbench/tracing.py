"""Span tracer for the benchmark's traced run.

The tracer wraps mdl's public functions and the kernels the ROADMAP names
from outside the library: it replaces each target in its class, and for a
module-level function in every ``mdl.*`` namespace that imported it by name
(``gallagher`` imports ``aq_pair_measure_raw`` directly, so patching
``circlesets`` alone would miss the calls from ``bc_ratio``).

A span is (name, start, end, parent).  Spans are kept in flat arrays in
memory and written out with ``save``.  A span's self time is its duration
minus the durations of its child spans.  Counts made in the workers of the
CLI's process pool are not seen: the tracer lives in the parent process.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array
from collections import Counter

import numpy as np

# (module, attribute, span name).  gl_census, doubly_metric_sample and
# counter_sample have no metric of their own: they are traced so that the
# library time the CLI commands spend in them is not counted as CLI time.
TARGETS = (
    ("realnum", "FormEvaluator.dist_window", "realnum.dist_window"),
    ("realnum", "RealExpr.build", "realnum.RealExpr.build"),
    ("realnum", "log2_enclosure", "realnum.log2_enclosure"),
    ("realnum", "RealParam.enclosure", "realnum.RealParam.enclosure"),
    ("cfrac", "sigma_pair", "cfrac.sigma_pair"),
    ("cfrac", "sigma_single", "cfrac.sigma_single"),
    ("arith", "F_average", "arith.F_average"),
    ("circlesets", "aq_pair_measure_raw", "circlesets.aq_pair_measure_raw"),
    ("circlesets", "master_check", "circlesets.master_check"),
    ("discrepancy", "etk_bound_sweep", "discrepancy.etk_bound_sweep"),
    ("discrepancy", "star_discrepancy_1d", "discrepancy.star_discrepancy_1d"),
    ("discrepancy", "disc2d_grid", "discrepancy.disc2d_grid"),
    ("gallagher", "bc_ratio", "gallagher.bc_ratio"),
    ("gallagher", "gl_census", "gallagher.gl_census"),
    ("gallagher", "doubly_metric_sample", "gallagher.doubly_metric_sample"),
    ("gallagher", "counter_sample", "gallagher.counter_sample"),
    ("gallagher", "ApproxFunction.eval", "gallagher.ApproxFunction.eval"),
    ("gallagher", "FibreContext.psi_prime", "gallagher.FibreContext.psi_prime"),
    ("gallagher", "FibreContext.support_state",
     "gallagher.FibreContext.support_state"),
    ("gallagher", "FibreContext.cell_of", "gallagher.FibreContext.cell_of"),
    ("gallagher", "_HitSweep.__init__", "gallagher.hit_sweep.build"),
    ("gallagher", "_HitSweep.expected", "gallagher.hit_sweep.expected"),
    ("gallagher", "_HitSweep.count_for", "gallagher.count_for"),
    ("gallagher", "_HitSweep._exact_hit", "gallagher.exact_hit"),
    ("cli", "main", "cli.main"),
)


def _dist_window_hook(args, kwargs, counts):
    bits = args[2] if len(args) > 2 else kwargs.get("bits")
    if bits is not None and bits > args[0].bits:
        counts["realnum.dist_window.escalated"] += 1


def _count_for_hook(args, kwargs, counts):
    counts["gallagher.count_for.candidates"] += args[0].Q


HOOKS = {"realnum.dist_window": _dist_window_hook,
         "gallagher.count_for": _count_for_hook}


class Tracer:
    def __init__(self):
        self.names: list = []           # span name per name id
        self.name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._patches: list = []        # (owner, attr, original, wrapper)

    # -- patching ----------------------------------------------------------

    def install(self):
        """Patch every target.  The wrappers are made on the first call and
        reused, so one tracer can be installed and removed for each pass."""
        if self._patches:
            for owner, attr, _, new in self._patches:
                setattr(owner, attr, new)
            return self
        mods = {m: importlib.import_module(f"mdl.{m}") for m, _, _ in TARGETS}
        for mod_name, attr, span in TARGETS:
            owner = mods[mod_name]
            if "." in attr:
                cls, attr = attr.split(".")
                owner = getattr(owner, cls)
            raw = owner.__dict__[attr]
            static = isinstance(raw, staticmethod)
            fn = raw.__func__ if static else raw
            wrapped = self._wrap(span, fn, HOOKS.get(span))
            self._set(owner, attr, raw, staticmethod(wrapped) if static else wrapped)
            if owner is mods[mod_name]:
                for name, other in sys.modules.items():
                    if (name.startswith("mdl.") and other is not owner
                            and other.__dict__.get(attr) is fn):
                        self._set(other, attr, fn, wrapped)
        return self

    def _set(self, owner, attr, old, new):
        setattr(owner, attr, new)
        self._patches.append((owner, attr, old, new))

    def uninstall(self):
        for owner, attr, old, _ in reversed(self._patches):
            setattr(owner, attr, old)

    def _wrap(self, span, fn, hook):
        nid = len(self.names)
        self.names.append(span)
        names, parent, start, end = self.name, self.parent, self.start, self.end
        stack, counts, clock = self._stack, self.counts, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook is not None:
                hook(args, kwargs, counts)
            i = len(names)
            names.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
        return wrapper

    # -- results -----------------------------------------------------------

    def mark(self):
        """A position to summarize from: (span count, counter snapshot)."""
        return len(self.name), Counter(self.counts)

    def summary(self, since) -> dict:
        """Per span name: calls, total_s, self_s, over the spans after
        ``since``; plus the hook counters and the number of exact-hit spans
        made inside count_for."""
        lo, counts0 = since
        return summarize(self.names, np.frombuffer(self.name, np.int32)[lo:],
                         np.frombuffer(self.parent, np.int64)[lo:] - lo,
                         np.frombuffer(self.start)[lo:],
                         np.frombuffer(self.end)[lo:],
                         self.counts - counts0)

    def save(self, path: str, **extra):
        np.savez(path, name=np.frombuffer(self.name, np.int32),
                 parent=np.frombuffer(self.parent, np.int64),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end),
                 names=np.array(self.names),
                 meta=np.array(json.dumps({"counts": dict(self.counts), **extra})))


def summarize(names, name, parent, start, end, counts) -> dict:
    """``parent`` holds indices into the same arrays (negative: none)."""
    dur = end - start
    has_parent = parent >= 0
    child = np.zeros(len(dur))
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_time = dur - child
    out = {"counts": dict(counts)}
    for nid, span in enumerate(names):
        sel = name == nid
        out[span] = {"calls": int(sel.sum()), "total_s": float(dur[sel].sum()),
                     "self_s": float(self_time[sel].sum())}
    ids = {span: nid for nid, span in enumerate(names)}
    if "gallagher.exact_hit" in ids:
        sel = (name == ids["gallagher.exact_hit"]) & has_parent
        under = name[parent[sel]] == ids["gallagher.count_for"]
        out["counts"]["gallagher.count_for.exact"] = int(under.sum())
    return out


def load_summary(path: str):
    """(summary, meta) of a span file written by ``Tracer.save``."""
    with np.load(path) as z:
        meta = json.loads(str(z["meta"]))
        s = summarize(list(z["names"]), z["name"], z["parent"], z["start"],
                      z["end"], Counter(meta.pop("counts")))
    return s, meta


def add_summaries(parts) -> dict:
    out = {"counts": Counter()}
    for s in parts:
        for span, v in s.items():
            if span == "counts":
                out["counts"].update(v)
                continue
            acc = out.setdefault(span, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for k in acc:
                acc[k] += v[k]
    return out


def layer_metrics(s: dict) -> dict:
    """The library layers' per-layer metrics from one pass's summary."""
    def get(span, field):
        return s.get(span, {}).get(field, 0)

    out = {}
    for span in ("realnum.dist_window", "realnum.RealExpr.build",
                 "realnum.log2_enclosure", "realnum.RealParam.enclosure",
                 "circlesets.aq_pair_measure_raw", "circlesets.master_check",
                 "gallagher.ApproxFunction.eval",
                 "gallagher.FibreContext.psi_prime",
                 "gallagher.FibreContext.support_state",
                 "gallagher.FibreContext.cell_of"):
        out[f"{span}.calls"] = get(span, "calls")
        out[f"{span}.self_s"] = get(span, "self_s")
    for span in ("cfrac.sigma_pair", "cfrac.sigma_single", "arith.F_average",
                 "discrepancy.etk_bound_sweep", "discrepancy.star_discrepancy_1d",
                 "discrepancy.disc2d_grid", "gallagher.bc_ratio"):
        out[f"{span}.self_s"] = get(span, "self_s")
    counts = s.get("counts", {})
    calls = get("realnum.dist_window", "calls")
    out["realnum.dist_window.escalated_frac"] = \
        counts.get("realnum.dist_window.escalated", 0) / calls if calls else 0.0
    raw = get("circlesets.aq_pair_measure_raw", "calls")
    out["circlesets.aq_pair_measure_raw.us_per_call"] = \
        1e6 * get("circlesets.aq_pair_measure_raw", "self_s") / raw if raw else 0.0
    out["gallagher.hit_sweep.build_s"] = get("gallagher.hit_sweep.build", "total_s")
    out["gallagher.hit_sweep.expected_s"] = get("gallagher.hit_sweep.expected",
                                                "total_s")
    out["gallagher.hit_sweep.sample_s"] = get("gallagher.count_for", "total_s")
    out["gallagher.count_for.calls"] = get("gallagher.count_for", "calls")
    cand = counts.get("gallagher.count_for.candidates", 0)
    out["gallagher.count_for.exact_frac"] = \
        counts.get("gallagher.count_for.exact", 0) / cand if cand else 0.0
    return out
