"""In-memory span tracer that wraps the library's public layer functions.

Spans are recorded from the benchmark's side: each public function is
replaced, under the name its caller looks it up by, with a wrapper that
records (name, start, end, parent, work).  Nothing inside ``src/pas``
changes.  Spans stay in memory until the run ends; self time is derived
from them afterwards (a span's duration minus its children's).
"""

import os
import time
from dataclasses import dataclass, field

from pas import baselines, cli, core, data, diagnostics


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    work: dict = field(default_factory=dict)


# --- work counters, computed from a call's arguments and result -----------
#
# Each takes (args, kwargs, result) of the wrapped call and returns a dict of
# counts.  Shapes come from the arguments, so the counts repeat exactly for
# the same inputs.

def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _distance_work(args, kwargs, result):
    model, X = args[0], args[1]
    m, d = X.shape
    # per class: centre (m*d), two rank-r products (2*2*m*d*r), subtract (m*d)
    # and the row-wise squared norm (2*m*d)
    flops = sum(m * d * (4 * S.effective_dim + 4) for S in model.subspaces)
    return {"cells": m * model.num_classes, "flop": flops}


def _refit_work(args, kwargs, result):
    X_s = args[0]
    state = _arg(args, kwargs, 3, "state")
    X_t = _arg(args, kwargs, 2, "X_t")
    rows = X_s.shape[0]
    if state is not None and X_t is not None:
        rows += int(((state.memberships == 1) & (state.anchors[:, None] == 1)).sum())
    return {"rows": rows}


def _inner_work(args, kwargs, result):
    config = _arg(args, kwargs, 5, "config") or core.PasConfig()
    iters = len(result[2])
    return {"iters": iters, "capped": int(iters >= config.inner_max_iters)}


def _load_work(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _kliep_work(args, kwargs, result):
    return {"iters": len(result.objective_history) - 1}


def _cli_work(args, kwargs, result):
    argv = _arg(args, kwargs, 0, "argv")
    return {"command": argv[0] if argv else None}


def _nn1_work(args, kwargs, result):
    source, X_t = args[0], args[1]
    return {"matrix_bytes": X_t.shape[0] * source.features.shape[0] * 8}


# (span name, work counter, [(module, attribute), ...]): every place a caller
# looks the function up.  core imported fit_pca and residuals_sq by name,
# diagnostics imported compute_distances and predict, baselines imported
# fit_class_subspaces, so those bindings are patched where they are used.
LAYERS = [
    ("subspace.fit_pca", None, [(core, "fit_pca")]),
    ("subspace.residuals_sq", None, [(core, "residuals_sq")]),
    ("core.compute_distances", _distance_work,
     [(core, "compute_distances"), (diagnostics, "compute_distances")]),
    ("core.fit_class_subspaces", _refit_work,
     [(core, "fit_class_subspaces"), (baselines, "fit_class_subspaces")]),
    ("core.inner_solve", _inner_work, [(core, "inner_solve")]),
    ("core.assign_memberships", None, [(core, "assign_memberships")]),
    ("core.anchor", None, [(core, "anchor")]),
    ("core.lambda_for_fraction", None, [(core, "lambda_for_fraction")]),
    ("core.fit_progressive", None, [(core, "fit_progressive")]),
    ("core.predict", None, [(core, "predict"), (diagnostics, "predict")]),
    ("core.save_model", None, [(core, "save_model")]),
    ("core.load_model", None, [(core, "load_model")]),
    ("data.load_features", _load_work, [(data, "load_features")]),
    ("data.load_labeled", None, [(data, "load_labeled")]),
    ("data.save_features", None, [(data, "save_features")]),
    ("data.load_labels", None, [(data, "load_labels")]),
    ("data.save_labels", None, [(data, "save_labels")]),
    ("data.atomic_write_text", None, [(data, "atomic_write_text")]),
    ("data.synth_shifted_pair", None, [(data, "synth_shifted_pair")]),
    ("diagnostics.kliep_fit", _kliep_work, [(diagnostics, "kliep_fit")]),
    ("diagnostics.anchoring_report", None, [(diagnostics, "anchoring_report")]),
    ("diagnostics.adr", None, [(diagnostics, "adr")]),
    ("baselines.nn1_classify", _nn1_work, [(baselines, "nn1_classify")]),
    ("baselines.pas_c", None, [(baselines, "pas_c")]),
    ("cli.main", _cli_work, [(cli, "main")]),
]


class Tracer:
    """Patches the layer functions on enter and restores them on exit."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []

    def _wrap(self, name, fn, counter):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = Span(name, 0.0, parent=stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if counter is not None:
                span.work = counter(args, kwargs, result)
            return result

        return traced

    def __enter__(self):
        for name, counter, sites in LAYERS:
            fn = getattr(*sites[0])
            traced = self._wrap(name, fn, counter)
            for module, attr in sites:
                self._saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, traced)
        return self

    def __exit__(self, *exc):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()
        return False


def self_times(spans, first=0):
    """Duration of each span minus the durations of its direct children.

    ``spans`` is a slice of the tracer's list starting at index ``first``
    that holds whole call trees, so parents index it after subtracting it.
    """
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= first:
            out[s.parent - first] -= s.end - s.start
    return out


def layer_metrics(all_spans, first, last):
    """Per-layer metrics of the call trees in ``all_spans[first:last]``."""
    spans = all_spans[first:last]
    selfs = self_times(spans, first)
    calls, busy, own, work = {}, {}, {}, {}
    for s, t_self in zip(spans, selfs):
        calls[s.name] = calls.get(s.name, 0) + 1
        busy[s.name] = busy.get(s.name, 0.0) + (s.end - s.start)
        own[s.name] = own.get(s.name, 0.0) + t_self
        bucket = work.setdefault(s.name, {})
        for key, value in s.work.items():
            if key != "command":
                bucket[key] = bucket.get(key, 0) + value

    def under(child, parent):
        return sum(s.end - s.start for s in spans
                   if s.name == child and s.parent >= first
                   and all_spans[s.parent].name == parent)

    def w(name, key):
        return work.get(name, {}).get(key, 0)

    m = {}
    for name in ("core.compute_distances", "core.fit_class_subspaces",
                 "subspace.fit_pca", "core.inner_solve",
                 "core.lambda_for_fraction"):
        m[name + ".calls"] = calls.get(name, 0)
    for name in ("core.compute_distances", "core.fit_class_subspaces",
                 "subspace.fit_pca", "core.assign_memberships", "core.anchor",
                 "core.lambda_for_fraction", "core.predict",
                 "data.load_features", "data.load_labels", "data.save_labels",
                 "data.atomic_write_text", "core.save_model",
                 "core.load_model", "data.synth_shifted_pair",
                 "diagnostics.kliep_fit", "baselines.nn1_classify",
                 "baselines.pas_c"):
        m[name + ".busy_s"] = busy.get(name, 0.0)
    for name in ("core.compute_distances", "core.fit_class_subspaces",
                 "core.inner_solve", "diagnostics.anchoring_report", "cli"):
        m[name + ".self_s"] = own.get("cli.main" if name == "cli" else name, 0.0)
    m["core.compute_distances.cells"] = w("core.compute_distances", "cells")
    m["core.compute_distances.gflop_computed"] = (
        w("core.compute_distances", "flop") / 1e9)
    m["subspace.residuals_sq.distance_s"] = under(
        "subspace.residuals_sq", "core.compute_distances")
    m["subspace.residuals_sq.objective_s"] = under(
        "subspace.residuals_sq", "core.inner_solve")
    m["core.fit_class_subspaces.rows"] = w("core.fit_class_subspaces", "rows")
    m["core.inner_iters"] = w("core.inner_solve", "iters")
    m["core.inner_capped"] = w("core.inner_solve", "capped")
    m["data.load_features.bytes"] = w("data.load_features", "bytes")
    m["diagnostics.kliep_fit.iters"] = w("diagnostics.kliep_fit", "iters")
    m["baselines.nn1_classify.matrix_mb_computed"] = (
        w("baselines.nn1_classify", "matrix_bytes") / 1e6)
    for command in ("bench", "fit", "predict", "diagnose"):
        m["cli.%s_s" % command] = sum(
            s.end - s.start for s in spans
            if s.name == "cli.main" and s.work["command"] == command)
    m["trace.spans"] = len(spans)
    m["trace.self_total_s"] = sum(selfs)
    return m


def setup_metrics(spans):
    """The layers that run only while a workload is set up."""
    return {"setup." + name + ".busy_s":
            sum(s.end - s.start for s in spans if s.name == name)
            for name in ("data.synth_shifted_pair", "data.save_features",
                         "data.save_labels", "core.fit_progressive")}

