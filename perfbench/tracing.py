"""Spans around optray's layer functions, recorded from outside the program.

``Tracer.install`` replaces each public layer function with a timing wrapper
in every optray module that holds a reference to it, since callers look the
name up in their own module (``optray.pipeline.partition`` as well as
``optray.decompose.partition``).  ``uninstall`` puts the originals back.
Spans stay in memory; ``self_times`` turns one job's spans into self time per
layer (a span's duration minus the durations of its direct children and
minus the calibration loops the benchmark ran inside it).
"""

import functools
import json
import os
import sys
import time
import types
from collections import defaultdict

import optray.cli
import optray.gd
import optray.verify

# (module, function, span name); several functions may share a layer
SPANNED = (
    ("optray.cli", "main", "cli"),
    ("optray.dataset", "load_csv", "dataset.load"),
    ("optray.dataset", "normalize", "dataset.load"),
    ("optray.dataset", "to_margin_matrix", "dataset.load"),
    ("optray.decompose", "partition", "decompose.partition"),
    ("optray.decompose", "validate", "decompose.validate"),
    ("optray.lp", "solve_max", "lp.solve"),
    ("optray.margin", "solve_dual", "margin.solve_dual"),
    ("optray.strongconvex", "solve_vbar", "strongconvex.solve_vbar"),
    ("optray.strongconvex", "estimate_lambda", "strongconvex.estimate_lambda"),
    ("optray.gd", "run", "gd.run"),
    ("optray.gd", "ball_series", "gd.ball_series"),
    ("optray.verify", "run_checks", "verify.run_checks"),
)
# (class, method, span name): trace and report writers
SPANNED_METHODS = (
    (optray.gd.GDTrace, "to_csv", "io.trace_write"),
    (optray.gd.GDTrace, "to_json", "io.trace_write"),
    (optray.gd.GDTrace, "save_steps", "io.trace_write"),
    (optray.verify.VerificationReport, "to_json", "io.report_write"),
)


def _count(tracer, span, out, args):
    if span == "lp.solve":
        tracer.counts["lp.solves"] += 1
        tracer.counts["lp.pivots"] += out.iterations
    elif span == "margin.solve_dual":
        tracer.counts["margin.dual_iters"] += out.iterations
    elif span == "gd.run":
        tracer.counts["gd.steps"] += out.risk_steps.shape[0] - 1
    elif span == "io.trace_write":
        tracer.counts["io.trace_bytes"] += os.path.getsize(args[1])


class Tracer:
    def __init__(self):
        self.spans = []  # [job, name, start, end, parent index]
        self.counts = defaultdict(int)
        self.paused = defaultdict(float)  # span index -> seconds not the program's
        self.job = ""
        self._open = []
        self._saved = []

    def begin(self, job: str) -> int:
        """Start one job's spans and counts; returns its first span index."""
        self.job = job
        self.counts = defaultdict(int)
        return len(self.spans)

    def pause(self, seconds: float) -> None:
        """Take seconds the benchmark spent inside the innermost open span
        out of that span's self time."""
        if self._open:
            self.paused[self._open[-1]] += seconds

    def _wrap(self, fn, span):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [self.job, span, time.perf_counter(), None, self._open[-1] if self._open else -1]
            self.spans.append(rec)
            self._open.append(len(self.spans) - 1)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[3] = time.perf_counter()
                self._open.pop()
            _count(self, span, out, args)
            return out

        return wrapper

    def _count_only(self, fn, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, name, new):
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, new)

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k.startswith("optray") and m is not None]
        for mod_name, fn_name, span in SPANNED:
            original = getattr(sys.modules[mod_name], fn_name)
            wrapped = self._wrap(original, span)
            for mod in modules:
                if getattr(mod, fn_name, None) is original:
                    self._patch(mod, fn_name, wrapped)
        # ball_series reaches constrained_opt through optray.gd's globals
        self._patch(optray.gd, "constrained_opt",
                    self._count_only(optray.gd.constrained_opt, "gd.ball_solves"))
        for cls, meth, span in SPANNED_METHODS:
            self._patch(cls, meth, self._wrap(getattr(cls, meth), span))
        # decompose writes its JSON files through the json module cli imported
        proxy = types.ModuleType("json")
        proxy.__dict__.update(json.__dict__)
        proxy.dump = self._wrap(json.dump, "io.report_write")
        self._patch(optray.cli, "json", proxy)

    def uninstall(self) -> None:
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)

    def self_times(self, first: int, last: int) -> dict:
        """Self seconds per span name over spans[first:last]."""
        total = defaultdict(float)
        for k in range(first, last):
            job, name, start, end, parent = self.spans[k]
            dur = end - start
            total[name] += dur - self.paused.get(k, 0.0)
            if parent >= first:
                total[self.spans[parent][1]] -= dur
        return dict(total)
