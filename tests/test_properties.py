"""Property tests for the batched distance kernel and the inner solver.

The per-class residual (pas.residuals_sq) is the oracle for
compute_distances, alone and inside a whole progressive fit, and the
block-update replication from test_core is the oracle for inner_solve.
"""

import json
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pas import (
    PasConfig,
    PasModel,
    Shift,
    SourceLabels,
    Subspace,
    SynthConfig,
    compute_distances,
    fit_class_subspaces,
    fit_progressive,
    inner_solve,
    predict,
    residuals_sq,
    synth_shifted_pair,
)
from pas import core
from pas.cli import SUITES
from pas.core import model_from_dict, model_to_dict
from test_core import make_instance, replicate_inner

PROPERTY = settings(derandomize=True, max_examples=60, deadline=None)


@st.composite
def fitted_case(draw):
    """A fitted model and target rows: K in 1..6, some single-row classes
    (effective dim 0), a common offset up to 1e4, rows on a subspace."""
    seed = draw(st.integers(0, 2**32 - 1))
    K = draw(st.integers(1, 6))
    d = draw(st.integers(1, 24))
    dim = draw(st.integers(1, 3))
    offset = draw(st.sampled_from([0.0, 1.0, 1e2, 1e4]))
    rng = np.random.default_rng(seed)
    counts = rng.integers(1, 9, size=K)
    shift = offset * rng.normal(size=d)
    Xs = np.vstack([rng.normal(scale=3.0, size=d) + rng.normal(size=(n, d))
                    for n in counts]) + shift
    labels = SourceLabels(labels=np.repeat(np.arange(K), counts), num_classes=K)
    model = fit_class_subspaces(Xs, labels, config=PasConfig(dim=dim))
    Xt = Xs[rng.integers(0, Xs.shape[0], size=12)] + rng.normal(size=(12, d))
    for j, S in enumerate(model.subspaces[:4]):
        Xt[j] = S.mean + S.basis @ rng.normal(size=S.effective_dim)
    return model, Xt


@PROPERTY
@given(fitted_case())
def test_distances_match_per_class_oracle(case):
    model, Xt = case
    dists = compute_distances(model, Xt)
    oracle = np.column_stack([residuals_sq(S, Xt) for S in model.subspaces])
    np.testing.assert_allclose(dists, oracle, rtol=1e-9, atol=1e-12)
    assert (dists.argmin(axis=1) == oracle.argmin(axis=1)).all()


@PROPERTY
@given(fitted_case(), st.data())
def test_distance_column_ignores_other_classes(case, data):
    # the solver draws its threshold from these distances and anchors
    # strictly below it, so a class that did not change must keep them
    # bit for bit when another class moves
    model, Xt = case
    K = model.num_classes
    assume(K >= 2)
    j = data.draw(st.integers(0, K - 1))
    S = model.subspaces[j]
    moved = Subspace(mean=S.mean + 1.0, basis=S.basis, spectrum=S.spectrum)
    other = PasModel(subspaces=[moved if k == j else T
                                for k, T in enumerate(model.subspaces)],
                     config=model.config)
    keep = np.arange(K) != j
    assert (compute_distances(other, Xt)[:, keep]
            == compute_distances(model, Xt)[:, keep]).all()


def test_distances_of_no_rows():
    Xs, labels, _, _ = make_instance(0, K=3)
    model = fit_class_subspaces(Xs, labels, config=PasConfig(dim=1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dists = compute_distances(model, np.zeros((0, Xs.shape[1])))
    assert dists.shape == (0, 3)


@PROPERTY
@given(fitted_case())
def test_distances_bitwise_equal_after_json_reload(case):
    model, Xt = case
    loaded = model_from_dict(json.loads(json.dumps(model_to_dict(model))))
    assert (compute_distances(loaded, Xt) == compute_distances(model, Xt)).all()


@PROPERTY
@given(seed=st.integers(0, 10_000), K=st.integers(1, 4),
       quantile=st.floats(0.0, 1.0), max_iters=st.sampled_from([2, 3, 50]))
def test_inner_solve_matches_replication(seed, K, quantile, max_iters):
    Xs, labels, Xt, _ = make_instance(seed, n_per=10, K=K, d=4, shift=1.5)
    config = PasConfig(dim=1, inner_max_iters=max_iters)
    dists0 = compute_distances(fit_class_subspaces(Xs, labels, config=config), Xt)
    lam = float(np.quantile(dists0.min(axis=1), quantile))
    _, state, history = inner_solve(Xs, labels, Xt, lam, config=config)
    _, state2, history2 = replicate_inner(Xs, labels, Xt, lam, config)
    assert history == history2
    assert (state.memberships == state2.memberships).all()
    assert (state.anchors == state2.anchors).all()


def _per_class_distances(model, X):
    return np.column_stack([residuals_sq(S, X) for S in model.subspaces])


@pytest.mark.parametrize("suite", ["closed", "pda"])
def test_fit_trajectory_matches_per_class_kernel(monkeypatch, suite):
    spec = SUITES[suite]
    cfg = SynthConfig(num_classes=spec["num_classes"], dim=spec["dim"],
                      per_class=spec["per_class"],
                      shift=Shift(rotation=spec["rotation"],
                                  translation=spec["translation"],
                                  noise=spec["noise"]),
                      pda_keep=spec["pda_keep"], seed=0)
    source, target = synth_shifted_pair(cfg)
    labels = SourceLabels(labels=source.labels, num_classes=source.num_classes)
    config = PasConfig(dim=spec["subspace_dim"])
    model, trace = fit_progressive(source.features, labels, target.features,
                                   config)
    monkeypatch.setattr(core, "compute_distances", _per_class_distances)
    oracle_model, oracle_trace = fit_progressive(
        source.features, labels, target.features, config)
    assert [r.anchored for r in trace] == [r.anchored for r in oracle_trace]
    assert [r.objective for r in trace] == pytest.approx(
        [r.objective for r in oracle_trace], rel=1e-9)
    assert (predict(model, target.features)
            == predict(oracle_model, target.features)).all()
