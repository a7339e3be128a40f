"""The package's public names, and the solver steps the benchmark's tracer
patches by name in pas.core."""

import importlib.util
import sys
from pathlib import Path

import pas
from pas import PasConfig, core, fit_progressive
from test_core import make_instance

# the README's "Public API" list
PUBLIC = [
    "AnchorState", "DensityRatioModel", "LabeledDataset", "PasConfig",
    "PasModel", "Shift", "SourceLabels", "StageRecord", "Subspace",
    "SynthConfig", "UnlabeledDataset", "adr", "anchoring_report",
    "compute_distances", "fit_class_subspaces", "fit_pca", "fit_progressive",
    "kliep_fit", "load_features", "load_labeled", "load_labels",
    "load_model", "nn1_classify", "objective", "pas_c", "predict",
    "residuals_sq", "save_features", "save_labels", "save_model",
    "synth_shifted_pair",
]

# the solver's inner steps: internal to pas.core, under the names
# benchmarks/tracer.py looks up
INTERNAL = ["anchor", "assign_memberships", "inner_solve", "lambda_for_fraction"]

TRACER = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def test_public_api_is_what_users_call():
    assert len(pas.__all__) == len(set(pas.__all__)) == 31
    assert sorted(pas.__all__) == sorted(PUBLIC)
    for name in PUBLIC:
        assert getattr(pas, name) is not None
    namespace = {}
    exec("from pas import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(PUBLIC)
    for name in INTERNAL:
        assert not hasattr(pas, name)
        assert callable(getattr(core, name))


def load_tracer(monkeypatch):
    """benchmarks/tracer.py as a fresh module, read without writing its
    bytecode next to it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("pas_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_tracer_patch_points_resolve_and_record_the_solver(monkeypatch):
    # a rename of a name the tracer patches, or a solver that stops
    # calling it, would zero its counters; only a traced benchmark run
    # would notice
    tracer = load_tracer(monkeypatch)
    for name, _, sites in tracer.LAYERS:
        for module, attr in sites:
            assert callable(getattr(module, attr, None)), (name, attr)
    originals = {name: getattr(core, name) for name in INTERNAL}
    Xs, labels, Xt, _ = make_instance(40, n_per=10, K=3, d=4, shift=1.0)
    with tracer.Tracer() as traced:
        _, trace = fit_progressive(Xs, labels, Xt,
                                   PasConfig(dim=1, schedule_step=0.25))
    assert {name: getattr(core, name) for name in INTERNAL} == originals
    metrics = tracer.layer_metrics(traced.spans, 0, len(traced.spans))
    assert metrics["core.inner_solve.calls"] == len(trace) == 5
    assert metrics["core.lambda_for_fraction.calls"] == len(trace) - 1
    # one refit per inner iteration, and distances after each that changed
    iters = metrics["core.inner_iters"]
    assert iters >= len(trace)
    assert metrics["core.fit_class_subspaces.calls"] == iters
    assert 1 <= metrics["core.compute_distances.calls"] <= iters
    names = {span.name for span in traced.spans}
    assert {"core.inner_solve", "core.lambda_for_fraction", "core.anchor",
            "core.fit_class_subspaces", "core.compute_distances"} <= names
