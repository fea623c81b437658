"""Spans around the program's public functions, recorded from outside.

``Instrument`` replaces each traced function with a wrapper in every
``robust_scatter`` module namespace that holds it (callers look names up in
their own module, e.g. ``cli`` imports ``clime`` as ``clime_solve``), and
wraps the two ``QMonteCarlo`` methods on the class, which covers every
importer. Leaving the context restores the originals, so traced and
untraced jobs can alternate in one process.

A span records (name, start, end, thread, parent). A span opened on a
thread with nothing open, other than the main thread, is parented to the
span open on the main thread at that moment: worker-pool replicates belong
to the experiment that submitted them. Self time is the span's duration
minus the union of its children's intervals, which stays right when
children from several pool threads overlap.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict

# (module, attribute, span name); the four public solvers share one name
FUNCTIONS = (
    ("samplers", "sample", "samplers.sample"),
    ("estimators", "tyler", "estimators.solve"),
    ("estimators", "maronna", "estimators.solve"),
    ("estimators", "tyler_regularized", "estimators.solve"),
    ("estimators", "maronna_regularized", "estimators.solve"),
    ("estimators", "quad_forms", "estimators.quad_forms"),
    ("master_equation", "solve_master", "master_equation.solve_master"),
    ("experiment", "weight_deviation_experiment", "experiment.weight_deviation_experiment"),
    ("experiment", "quadratic_form_diagnostics", "experiment.quadratic_form_diagnostics"),
    ("model", "leave_one_out_covariance", "model.leave_one_out_covariance"),
    ("model", "load_dataset_csv", "model.load_dataset_csv"),
    ("model", "sample_covariance", "model.sample_covariance"),
    ("sparse", "clime_column", "sparse.clime_column"),
    ("sparse", "clime", "sparse.clime"),
    ("sparse", "sparse_cov_estimate", "sparse.sparse_cov_estimate"),
    ("simplex", "solve_lp", "simplex.solve_lp"),
    ("cli", "main", "cli.main"),
)
METHODS = (
    ("master_equation", "QMonteCarlo", "__init__", "master_equation.qmc_build"),
    ("master_equation", "QMonteCarlo", "q", "master_equation.qmc_eval"),
)
SPAN_NAMES = tuple(dict.fromkeys([f[2] for f in FUNCTIONS] + [m[3] for m in METHODS]))
COUNTERS = ("estimators.iterations", "estimators.unconverged")


class Tracer:
    """In-memory span and counter store for one traced job."""

    def __init__(self):
        self.spans = []  # [name, start, end, thread ident, parent index]
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._lock = threading.Lock()
        self._stacks = {}
        self._main = threading.main_thread().ident

    def _open(self, name: str) -> int:
        tid = threading.get_ident()
        stack = self._stacks.setdefault(tid, [])
        if stack:
            parent = stack[-1]
        else:
            main = self._stacks.get(self._main) if tid != self._main else None
            parent = main[-1] if main else None
        with self._lock:
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, tid, parent])
        stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stacks[threading.get_ident()].pop()

    def count_solve(self, est) -> None:
        with self._lock:
            self.counters["estimators.iterations"] += est.iterations
            self.counters["estimators.unconverged"] += int(not est.converged)

    def wrap(self, name: str, fn, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if on_result is not None:
                on_result(result)
            return result
        return traced

    def summary(self) -> dict:
        """{name: (calls, self seconds)} plus the counters."""
        children = defaultdict(list)
        for i, span in enumerate(self.spans):
            if span[4] is not None:
                children[span[4]].append(i)
        out = {name: [0, 0.0] for name in SPAN_NAMES}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            covered = union_length([(max(self.spans[c][1], start), min(self.spans[c][2], end))
                                    for c in children[i]])
            out[name][0] += 1
            out[name][1] += (end - start) - covered
        return {"spans": {k: tuple(v) for k, v in out.items()}, "counters": dict(self.counters)}


def union_length(intervals) -> float:
    total, reach = 0.0, None
    for lo, hi in sorted(iv for iv in intervals if iv[1] > iv[0]):
        if reach is None or lo > reach:
            total += hi - lo
            reach = hi
        elif hi > reach:
            total += hi - reach
            reach = hi
    return total


class Instrument:
    """Context manager that routes the traced functions through `tracer`."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved = []

    def __enter__(self):
        mods = [m for name, m in list(sys.modules.items())
                if name == "robust_scatter" or name.startswith("robust_scatter.")]
        for mod_name, attr, span in FUNCTIONS:
            orig = getattr(sys.modules[f"robust_scatter.{mod_name}"], attr)
            hook = self.tracer.count_solve if span == "estimators.solve" else None
            wrapper = self.tracer.wrap(span, orig, hook)
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._saved.append((mod, key, orig))
                        setattr(mod, key, wrapper)
        for mod_name, cls_name, attr, span in METHODS:
            cls = getattr(sys.modules[f"robust_scatter.{mod_name}"], cls_name)
            orig = cls.__dict__[attr]
            self._saved.append((cls, attr, orig))
            setattr(cls, attr, self.tracer.wrap(span, orig))
        return self.tracer

    def __exit__(self, *exc):
        for owner, key, orig in reversed(self._saved):
            setattr(owner, key, orig)
        self._saved.clear()
        return False
