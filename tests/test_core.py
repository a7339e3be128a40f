import dataclasses
import json
import tracemalloc
import warnings

import numpy as np
import pytest

import pas
from pas import core
from pas import (
    AnchorState,
    PasConfig,
    SourceLabels,
    anchor,
    assign_memberships,
    compute_distances,
    fit_class_subspaces,
    fit_progressive,
    inner_solve,
    lambda_for_fraction,
    objective,
    predict,
)
from pas.errors import (
    ConfigError,
    DimensionMismatch,
    EmptyTarget,
    NonFinite,
    RangeError,
)


def make_instance(seed, n_per=8, K=2, d=3, shift=0.8):
    """Small labeled source + shifted target pair with aligned rows."""
    rng = np.random.default_rng(seed)
    means = rng.normal(scale=4.0, size=(K, d))
    Xs = np.vstack([means[k] + rng.normal(size=(n_per, d)) for k in range(K)])
    ys = np.repeat(np.arange(K), n_per)
    Xt = Xs + shift * rng.normal(size=Xs.shape) * 0.3 + shift
    return Xs, SourceLabels(labels=ys, num_classes=K), Xt, ys.copy()


def residual_sq(S, x):
    """Squared residual of one row x, computed independently of the
    library's matrix kernels."""
    y = x - S.mean
    r = y - S.basis @ (S.basis.T @ y)
    return float(r @ r)


def check_state(state):
    """Assert the AnchorState invariants."""
    W, v, c = state.memberships, state.anchors, state.distances
    assert W.ndim == 2 and (W.sum(axis=1) == 1).all(), "rows of W must be one-hot"
    assert np.isin(v, (0, 1)).all(), "anchor indicators must be 0/1"
    assert (c >= 0).all(), "distances must be nonnegative"
    assert (c[v == 1] < state.threshold).all(), \
        "anchored samples must satisfy distance < threshold"


def replicate_inner(Xs, labels, Xt, lam, config, warm_state=None):
    """The solver loop rebuilt from the public block updates; checks the
    state invariants and recomputes the objective at every step."""
    state, history = warm_state, []
    for _ in range(config.inner_max_iters):
        model = fit_class_subspaces(Xs, labels, Xt, state, config)
        dists = compute_distances(model, Xt)
        W = assign_memberships(dists)
        c = dists.min(axis=1)
        v = anchor(c, lam)
        state = AnchorState(assigned=W.argmax(axis=1), anchors=v, threshold=lam,
                            distances=c, num_classes=W.shape[1])
        check_state(state)
        history.append(objective(model, Xs, labels, Xt, state))
        if len(history) >= 2 and abs(history[-1] - history[-2]) \
                <= config.inner_tol * max(1.0, abs(history[-2])):
            break
    return model, state, history


# --- compute_distances ------------------------------------------------------

def test_distances_zero_for_in_span_target():
    Xs, labels, _, _ = make_instance(0, K=3)
    model = fit_class_subspaces(Xs, labels, config=PasConfig(dim=1))
    S = model.subspaces[1]
    x = S.mean + S.basis @ np.array([0.4])
    dists = compute_distances(model, x[None, :])
    assert dists[0, 1] == pytest.approx(0.0, abs=1e-20)


def test_distances_single_class_shape():
    rng = np.random.default_rng(1)
    Xs = rng.normal(size=(6, 3))
    labels = SourceLabels(labels=np.zeros(6, dtype=int), num_classes=1)
    model = fit_class_subspaces(Xs, labels, config=PasConfig(dim=1))
    dists = compute_distances(model, rng.normal(size=(5, 3)))
    assert dists.shape == (5, 1)
    assert (dists >= 0).all()


def test_distances_entrywise_oracle():
    Xs, labels, Xt, _ = make_instance(2, K=3, d=4)
    model = fit_class_subspaces(Xs, labels, config=PasConfig(dim=2))
    dists = compute_distances(model, Xt)
    for j in range(Xt.shape[0]):
        for k in range(3):
            assert dists[j, k] == pytest.approx(
                residual_sq(model.subspaces[k], Xt[j]), rel=1e-9, abs=1e-12)


def test_distances_dimension_mismatch():
    Xs, labels, _, _ = make_instance(3)
    model = fit_class_subspaces(Xs, labels, config=PasConfig(dim=1))
    with pytest.raises(DimensionMismatch):
        compute_distances(model, np.zeros((4, 7)))


# --- assign_memberships -----------------------------------------------------

def test_assign_unique_minimum():
    W = assign_memberships(np.array([[0.5, 0.1, 0.9]]))
    assert W.tolist() == [[0, 1, 0]]


def test_assign_tie_breaks_to_smallest_index():
    W = assign_memberships(np.array([[0.3, 0.3]]))
    assert W.tolist() == [[1, 0]]


def test_assign_matches_exhaustive_enumeration():
    rng = np.random.default_rng(4)
    dists = rng.uniform(size=(20, 5))
    W = assign_memberships(dists)
    picked = (W * dists).sum(axis=1)
    for j in range(20):
        assert picked[j] == dists[j].min()
        assert W[j].sum() == 1


def test_assign_rejects_nonfinite():
    with pytest.raises(NonFinite):
        assign_memberships(np.array([[0.1, np.inf]]))


def test_assign_rejects_a_vector():
    with pytest.raises(DimensionMismatch):
        assign_memberships(np.array([0.1, 0.2]))


# --- anchor -----------------------------------------------------------------

def test_anchor_zero_threshold_anchors_nothing():
    assert anchor(np.array([0.0, 0.1, 5.0]), 0.0).sum() == 0


def test_anchor_above_max_anchors_all():
    c = np.array([0.2, 0.5, 0.7])
    assert anchor(c, 0.8).tolist() == [1, 1, 1]


def test_anchor_strict_inequality():
    assert anchor(np.array([0.2, 0.5, 0.7]), 0.5).tolist() == [1, 0, 0]


def test_anchor_monotone_in_threshold():
    rng = np.random.default_rng(5)
    for _ in range(50):
        c = rng.uniform(size=10)
        l1, l2 = sorted(rng.uniform(size=2))
        assert (anchor(c, l1) <= anchor(c, l2)).all()


# --- lambda_for_fraction ----------------------------------------------------

def test_lambda_fraction_zero():
    assert lambda_for_fraction(np.array([1.0, 2.0]), 0.0) == 0.0


def test_lambda_fraction_half_anchors_exactly_two():
    c = np.array([1.0, 2.0, 3.0, 4.0])
    lam = lambda_for_fraction(c, 0.5)
    assert lam == 3.0
    assert anchor(c, lam).tolist() == [1, 1, 0, 0]


def test_lambda_fraction_one_on_constant_distances():
    c = np.full(5, 2.5)
    lam = lambda_for_fraction(c, 1.0)
    assert lam > 2.5
    assert anchor(c, lam).sum() == 5


def test_lambda_fraction_order_statistic_scan_oracle():
    rng = np.random.default_rng(6)
    for _ in range(100):
        m = int(rng.integers(1, 40))
        c = np.round(rng.uniform(0, 3, size=m), 1)  # rounding forces ties
        fraction = float(rng.uniform(0, 1))
        t = int(np.ceil(fraction * m - 1e-9))
        lam = lambda_for_fraction(c, fraction)
        if t == 0:
            assert lam == 0.0
            continue
        candidates = sorted(set(c.tolist())) + [c.max() * (1 + 1e-9) + 1e-12]
        valid = [u for u in candidates if (c < u).sum() >= t]
        assert lam == valid[0]


def test_lambda_fraction_empty_target():
    with pytest.raises(EmptyTarget):
        lambda_for_fraction(np.zeros(0), 0.5)


@pytest.mark.parametrize("fraction", [1.5, -0.1, float("nan")])
def test_lambda_fraction_outside_unit_interval(fraction):
    with pytest.raises(ConfigError, match="fraction must be in"):
        lambda_for_fraction(np.array([0.1, 0.2, 0.3]), fraction)


@pytest.mark.parametrize("fraction", [True, np.True_, "0.5", None, [0.5]])
def test_lambda_fraction_must_be_a_real_number(fraction):
    # True once returned the fraction-1.0 threshold and "0.5" a TypeError
    with pytest.raises(ConfigError, match="fraction must be in"):
        lambda_for_fraction(np.array([0.1, 0.2, 0.3]), fraction)


# --- objective --------------------------------------------------------------

def test_objective_source_only_when_nothing_anchored():
    Xs, labels, Xt, _ = make_instance(7)
    config = PasConfig(dim=1)
    model = fit_class_subspaces(Xs, labels, config=config)
    dists = compute_distances(model, Xt)
    W = assign_memberships(dists)
    c = dists.min(axis=1)
    state = AnchorState(W.argmax(axis=1), anchor(c, 0.0), 0.0, c, 2)
    source_total = sum(residual_sq(model.subspaces[k], x)
                       for x, k in zip(Xs, labels.labels))
    assert objective(model, Xs, labels, Xt, state) == pytest.approx(
        source_total, rel=1e-10)


def test_objective_pure_regularizer_when_residuals_vanish():
    # collinear classes: every sample sits in its own 1-D subspace
    Xs = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0],
                   [0.0, 5.0], [1.0, 5.0], [2.0, 5.0]])
    labels = SourceLabels(labels=np.array([0, 0, 0, 1, 1, 1]), num_classes=2)
    Xt = np.array([[0.5, 0.0], [1.5, 5.0], [0.25, 0.0]])
    config = PasConfig(dim=1)
    model = fit_class_subspaces(Xs, labels, config=config)
    dists = compute_distances(model, Xt)
    W = assign_memberships(dists)
    c = dists.min(axis=1)
    state = AnchorState(W.argmax(axis=1), anchor(c, 1.0), 1.0, c, 2)
    assert state.anchors.sum() == 3
    assert objective(model, Xs, labels, Xt, state) == pytest.approx(-3.0, abs=1e-12)


def test_objective_term_by_term_summation_oracle():
    rng = np.random.default_rng(3)
    Xs = rng.normal(size=(8, 3))
    ys = np.array([0, 0, 0, 0, 1, 1, 1, 1])
    Xt = rng.normal(size=(6, 3))
    labels = SourceLabels(labels=ys, num_classes=2)
    model = fit_class_subspaces(Xs, labels, config=PasConfig(dim=1))
    dists = compute_distances(model, Xt)
    W = assign_memberships(dists)
    c = dists.min(axis=1)
    lam = float(np.median(c)) + 0.1
    v = anchor(c, lam)
    assert 0 < v.sum() < 6
    state = AnchorState(W.argmax(axis=1), v, lam, c, 2)
    total = 0.0
    for i in range(8):
        total += residual_sq(model.subspaces[ys[i]], Xs[i])
    for j in range(6):
        for k in range(2):
            if v[j] and W[j, k]:
                total += residual_sq(model.subspaces[k], Xt[j])
    total -= lam * float(v.sum())
    assert objective(model, Xs, labels, Xt, state) == pytest.approx(
        total, rel=1e-10)


def test_objective_checks_label_count():
    # 3 labels too few once summed a subset of the source rows, and 2 too
    # many raised IndexError
    Xs, labels, Xt, _ = make_instance(23)
    model = fit_class_subspaces(Xs, labels, config=PasConfig(dim=1))
    dists = compute_distances(model, Xt)
    c = dists.min(axis=1)
    state = AnchorState(assign_memberships(dists).argmax(axis=1), anchor(c, 0.0),
                        0.0, c, 2)
    ys = labels.labels
    for wrong in (ys[:-3], np.concatenate([ys, ys[:2]])):
        bad = SourceLabels(labels=wrong, num_classes=labels.num_classes)
        with pytest.raises(RangeError, match="label count"):
            objective(model, Xs, bad, Xt, state)
        # the fit reports the label count before a target-width defect
        with pytest.raises(RangeError, match="label count"):
            fit_progressive(Xs, bad, np.zeros((4, Xs.shape[1] + 1)))


# class index shapes: too few rows, too many, a column, and indices that
# fit with anchors of shape (1,)
@pytest.mark.parametrize("shape", [(5,), (17,), (16, 1), (16,)])
def test_objective_checks_membership_shape(shape):
    Xs, labels, Xt, _ = make_instance(23)
    model = fit_class_subspaces(Xs, labels, config=PasConfig(dim=1))
    c = compute_distances(model, Xt).min(axis=1)
    if shape == (16,):
        # memberships that fit, anchors of shape (1,): once gave a number
        c = c[:1]
    assigned = np.zeros(shape, dtype=np.int64)
    with pytest.raises(DimensionMismatch, match="membership shape"):
        objective(model, Xs, labels, Xt,
                  AnchorState(assigned, anchor(c, 0.0), 0.0, c, 2))


def test_objective_checks_class_count():
    # a 2-class model with 3-class labels once raised a bare IndexError, and
    # a 3-class model with 2-class labels left out class 2's source residuals
    Xs, labels2, Xt, _ = make_instance(23)
    labels3 = SourceLabels(labels=np.arange(16) % 3, num_classes=3)
    for model_labels, labels in ((labels2, labels3), (labels3, labels2)):
        model = fit_class_subspaces(Xs, model_labels, config=PasConfig(dim=1))
        dists = compute_distances(model, Xt)
        c = dists.min(axis=1)
        state = AnchorState(assign_memberships(dists).argmax(axis=1),
                            anchor(c, 1.0), 1.0, c, model.num_classes)
        with pytest.raises(DimensionMismatch, match="classes"):
            objective(model, Xs, labels, Xt, state)


def test_objective_checks_source_width():
    Xs, labels, Xt, _ = make_instance(23)
    model = fit_class_subspaces(Xs, labels, config=PasConfig(dim=1))
    dists = compute_distances(model, Xt)
    c = dists.min(axis=1)
    state = AnchorState(assign_memberships(dists).argmax(axis=1), anchor(c, 0.0),
                        0.0, c, 2)
    with pytest.raises(DimensionMismatch):
        objective(model, Xs[:, :-1], labels, Xt, state)


# --- inner_solve ------------------------------------------------------------

# memberships: the shape of the class indices
@pytest.mark.parametrize("memberships, anchors", [
    ((5,), (5,)),     # too few rows once fitted on the wrong target rows
    ((9,), (9,)),     # too many rows once raised a bare IndexError
    ((8, 1), (8,)),   # a column of indices (one-hot: fewer than K columns)
    ((8,), (5,)),     # short anchors once failed to broadcast
    ((8,), (8,)),     # fits X_t, but given without it was once ignored
    ((8,), (8, 1)),   # a column of anchors
])
def test_warm_state_of_wrong_shape_rejected(memberships, anchors):
    Xs, labels, Xt, _ = make_instance(30, n_per=4, K=2)
    assert Xt.shape[0] == 8
    if (memberships, anchors) == ((8,), (8,)):
        Xt = None
    assigned = np.zeros(memberships, dtype=np.int64)
    v = np.ones(anchors, dtype=np.int64)
    state = AnchorState(assigned, v, 1.0, np.zeros(anchors), 2)
    with pytest.raises(DimensionMismatch, match="state must hold"):
        inner_solve(Xs, labels, Xt, 1.0, warm_state=state)
    with pytest.raises(DimensionMismatch, match="state must hold"):
        fit_class_subspaces(Xs, labels, Xt, state)


def _with_assigned(assigned):
    return lambda state: dataclasses.replace(state, assigned=assigned(state.assigned))


def _with_anchor(value):
    def defect(state):
        anchors = state.anchors.astype(type(value))
        anchors[2] = value
        return dataclasses.replace(state, anchors=anchors)
    return defect


@pytest.mark.parametrize("defect, message", [
    (_with_assigned(lambda a: np.where(np.arange(8) == 3, 2, a)), "class indices"),
    (_with_assigned(lambda a: np.where(np.arange(8) == 3, -1, a)), "class indices"),
    (_with_assigned(lambda a: a + 0.5), "class indices"),
    (_with_assigned(lambda a: a.astype(float)), "class indices"),
    (_with_assigned(lambda a: a.astype(bool)), "class indices"),
    # an anchor of 2 was once counted twice by objective and ignored by refit
    (_with_anchor(2), "anchors must be 0 or 1"),
    (_with_anchor(-1), "anchors must be 0 or 1"),
    (_with_anchor(0.5), "anchors must be 0 or 1"),
    (_with_anchor(np.nan), "anchors must be 0 or 1"),
    (lambda state: dataclasses.replace(state, num_classes=1), "num_classes 1"),
    (lambda state: dataclasses.replace(state, num_classes=3), "num_classes 3"),
])
def test_malformed_state_rejected(defect, message):
    Xs, labels, Xt, _ = make_instance(30, n_per=4, K=2)
    model = fit_class_subspaces(Xs, labels)
    dists = compute_distances(model, Xt)
    c = dists.min(axis=1)
    lam = float(np.median(c))
    good = AnchorState(assign_memberships(dists).argmax(axis=1), anchor(c, lam),
                       lam, c, 2)
    assert np.isfinite(objective(model, Xs, labels, Xt, good))
    state = defect(good)
    with pytest.raises(RangeError, match=message):
        fit_class_subspaces(Xs, labels, Xt, state)
    with pytest.raises(RangeError, match=message):
        inner_solve(Xs, labels, Xt, 1.0, warm_state=state)
    with pytest.raises(RangeError, match=message):
        objective(model, Xs, labels, Xt, state)


def test_state_memberships_are_a_one_hot_view():
    Xs, labels, Xt, _ = make_instance(32, K=3)
    model = fit_class_subspaces(Xs, labels)
    dists = compute_distances(model, Xt)
    W = assign_memberships(dists)
    c = dists.min(axis=1)
    state = AnchorState(W.argmax(axis=1), anchor(c, 0.0), 0.0, c, 3)
    assert (state.memberships == W).all()
    with pytest.raises(AttributeError):
        state.memberships = W
    _, solved, _ = inner_solve(Xs, labels, Xt, float(np.median(c)))
    assert solved.memberships.shape == (Xt.shape[0], 3)
    assert (solved.memberships.argmax(axis=1) == solved.assigned).all()
    assert (solved.memberships.sum(axis=1) == 1).all()


def test_inner_solve_zero_shift_converges_fast():
    rng = np.random.default_rng(8)
    means = np.array([[0.0, 0.0, 0.0], [8.0, 8.0, 8.0]])
    Xs = np.vstack([means[k] + rng.normal(size=(10, 3)) for k in range(2)])
    ys = np.repeat([0, 1], 10)
    labels = SourceLabels(labels=ys, num_classes=2)
    Xt = Xs.copy()
    model, state, history = inner_solve(Xs, labels, Xt, 1e6,
                                        config=PasConfig(dim=1))
    assert len(history) <= 2
    assert state.anchors.sum() == 20
    assert (predict(model, Xt) == ys).all()


def test_inner_solve_lambda_zero_is_source_only():
    Xs, labels, Xt, _ = make_instance(9, K=3)
    config = PasConfig(dim=1)
    model, state, _ = inner_solve(Xs, labels, Xt, 0.0, config=config)
    assert state.anchors.sum() == 0
    source_only = fit_class_subspaces(Xs, labels, config=config)
    for S, T in zip(model.subspaces, source_only.subspaces):
        assert (S.mean == T.mean).all()
        assert (S.basis == T.basis).all()


def test_inner_solve_matches_block_update_replication():
    # per-step objective oracle: rebuilding the loop from the public ops
    # must give bitwise identical objective history
    Xs, labels, Xt, _ = make_instance(10, n_per=12, K=2, d=4)
    config = PasConfig(dim=1)
    dists0 = compute_distances(fit_class_subspaces(Xs, labels, config=config), Xt)
    lam = float(np.quantile(dists0.min(axis=1), 0.6))
    model, state, history = inner_solve(Xs, labels, Xt, lam, config=config)
    model2, state2, history2 = replicate_inner(Xs, labels, Xt, lam, config)
    assert history == history2
    assert (state.memberships == state2.memberships).all()
    assert (state.anchors == state2.anchors).all()


def test_inner_solve_objective_descends():
    rng = np.random.default_rng(11)
    for seed in range(10):
        Xs, labels, Xt, _ = make_instance(seed, n_per=15, K=3, d=5, shift=1.5)
        dists0 = compute_distances(
            fit_class_subspaces(Xs, labels, config=PasConfig(dim=1)), Xt)
        lam = float(np.quantile(dists0.min(axis=1), rng.uniform(0.2, 1.0)))
        _, _, history = inner_solve(Xs, labels, Xt, lam, config=PasConfig(dim=1))
        diffs = np.diff(history)
        assert (diffs <= 1e-9).all()


# --- fit_class_subspaces ----------------------------------------------------

def test_fit_class_subspaces_no_state_is_source_pca():
    Xs, labels, _, _ = make_instance(12, K=2)
    config = PasConfig(dim=1)
    model = fit_class_subspaces(Xs, labels, config=config)
    for k in range(2):
        S = pas.fit_pca(Xs[labels.labels == k], dim=1)
        assert (model.subspaces[k].mean == S.mean).all()
        assert (model.subspaces[k].basis == S.basis).all()


def assert_same_fit(S, O, X):
    """S fits the rows X as fit_pca's O does, up to rounding: the same
    effective dimension, residual totals on X and spectra within 1e-10
    relative or 1e-10 of the total sum of squares, and means within a few
    ulps of the rows' magnitude."""
    assert S.effective_dim == O.effective_dim
    Y = X - O.mean
    total_ss = float((Y * Y).sum())
    assert np.abs(S.spectrum - O.spectrum).max(initial=0.0) \
        <= 1e-10 * total_ss / X.shape[0]
    assert float(pas.residuals_sq(S, X).sum()) == pytest.approx(
        float(pas.residuals_sq(O, X).sum()), rel=1e-10, abs=1e-10 * total_ss)
    assert (np.abs(S.mean - O.mean) <= 8 * np.spacing(np.abs(X).max(axis=0))).all()


def test_fit_class_subspaces_explicit_union_oracle():
    # both classes have at least d source rows, so their anchored refits
    # come from source moments: fit_pca's fit to rounding, not bit for bit
    Xs, labels, Xt, _ = make_instance(13, K=2)
    config = PasConfig(dim=1)
    src_model = fit_class_subspaces(Xs, labels, config=config)
    dists = compute_distances(src_model, Xt)
    W = assign_memberships(dists)
    c = dists.min(axis=1)
    lam = float(np.quantile(c, 0.7))
    v = anchor(c, lam)
    assert 0 < v.sum() < len(c)
    state = AnchorState(W.argmax(axis=1), v, lam, c, 2)
    model = fit_class_subspaces(Xs, labels, Xt, state, config)
    for k in range(2):
        union = np.vstack([Xs[labels.labels == k],
                           Xt[(W[:, k] == 1) & (v == 1)]])
        assert_same_fit(model.subspaces[k], pas.fit_pca(union, dim=1), union)


def test_fit_class_subspaces_all_anchored_equals_pooled_classes():
    # zero-shift target with correct assignments pools the true classes
    Xs, labels, _, ys = make_instance(14, K=2, shift=0.0)
    Xt = Xs.copy()
    config = PasConfig(dim=1)
    dists = compute_distances(fit_class_subspaces(Xs, labels, config=config), Xt)
    W = assign_memberships(dists)
    c = dists.min(axis=1)
    lam = float(c.max()) * 1.01 + 1e-9
    state = AnchorState(W.argmax(axis=1), anchor(c, lam), lam, c, 2)
    assert state.anchors.sum() == len(c)
    assert (np.argmax(W, axis=1) == ys).all()
    model = fit_class_subspaces(Xs, labels, Xt, state, config)
    for k in range(2):
        pooled = np.vstack([Xs[ys == k], Xt[ys == k]])
        S = pas.fit_pca(pooled, dim=1)
        assert np.allclose(model.subspaces[k].mean, S.mean, atol=1e-12)


# --- fit_progressive --------------------------------------------------------

def test_fit_progressive_zero_shift_perfect_final_accuracy():
    rng = np.random.default_rng(15)
    means = np.array([[0.0] * 4, [10.0] * 4, [-10.0, 10.0, -10.0, 10.0]])
    Xs = np.vstack([means[k] + rng.normal(size=(12, 4)) for k in range(3)])
    ys = np.repeat(np.arange(3), 12)
    labels = SourceLabels(labels=ys, num_classes=3)
    model, trace = fit_progressive(Xs, labels, Xs.copy(),
                                   PasConfig(dim=1, schedule_step=0.1),
                                   eval_labels=ys)
    assert trace[-1].pseudo_accuracy == 1.0


def test_fit_progressive_step_one_gives_two_stages():
    Xs, labels, Xt, _ = make_instance(16)
    _, trace = fit_progressive(Xs, labels, Xt, PasConfig(dim=1, schedule_step=1.0))
    assert len(trace) == 2
    assert trace[0].fraction == 0.0
    assert trace[1].fraction == 1.0


def test_fit_progressive_trace_invariants():
    Xs, labels, Xt, ys = make_instance(17, n_per=20, K=3, d=4, shift=1.0)
    _, trace = fit_progressive(Xs, labels, Xt,
                               PasConfig(dim=1, schedule_step=0.25),
                               eval_labels=ys)
    fractions = [r.fraction for r in trace]
    assert fractions == [0.0, 0.25, 0.5, 0.75, 1.0]
    anchored = [r.anchored for r in trace]
    assert all(a <= b for a, b in zip(anchored, anchored[1:]))
    thresholds = [r.threshold for r in trace]
    assert all(a <= b for a, b in zip(thresholds, thresholds[1:]))
    assert trace[0].anchored == 0
    assert trace[-1].anchored == Xt.shape[0]
    assert all(r.pseudo_accuracy is not None for r in trace)


def test_fit_progressive_stage_zero_matches_source_only_accuracy():
    Xs, labels, Xt, ys = make_instance(18, n_per=15, K=2, shift=1.2)
    _, trace = fit_progressive(Xs, labels, Xt, PasConfig(dim=1, schedule_step=0.5),
                               eval_labels=ys)
    src_model = fit_class_subspaces(Xs, labels, config=PasConfig(dim=1))
    acc = float(np.mean(predict(src_model, Xt) == ys))
    assert trace[0].pseudo_accuracy == acc


def test_fit_checks_source_features_once(monkeypatch):
    checked = []
    check = core.check_matrix

    def counting(X, name, width=None):
        checked.append(name)
        return check(X, name, width)

    monkeypatch.setattr(core, "check_matrix", counting)
    Xs, labels, Xt, ys = make_instance(18, n_per=10, K=3, d=4, shift=1.0)
    _, trace = fit_progressive(Xs, labels, Xt, PasConfig(dim=1, schedule_step=0.1),
                               eval_labels=ys)
    assert len(trace) == 11
    assert checked.count("source features") == 1
    for call in (lambda: inner_solve(Xs, labels, Xt, 1.0),
                 lambda: fit_class_subspaces(Xs, labels)):
        checked.clear()
        call()
        assert checked.count("source features") == 1


def test_fit_progressive_errors():
    Xs, labels, Xt, ys = make_instance(19)
    with pytest.raises(EmptyTarget):
        fit_progressive(Xs, labels, np.zeros((0, Xs.shape[1])))
    with pytest.raises(DimensionMismatch):
        fit_progressive(Xs, labels, np.zeros((4, Xs.shape[1] + 1)))
    with pytest.raises(RangeError):
        fit_progressive(Xs, labels, Xt, eval_labels=np.zeros(3, dtype=int))
    # one label per row: a (m, 1) column once gave the wrong pseudo accuracy
    with pytest.raises(RangeError, match="label count"):
        fit_progressive(Xs, labels, Xt, eval_labels=np.zeros((16, 1), dtype=int))
    # ys + 0.5 was once scored as its integer part
    for fractional in (ys + 0.5, np.where(ys == 0, np.nan, ys)):
        with pytest.raises(RangeError, match="must be integers"):
            fit_progressive(Xs, labels, Xt, eval_labels=fractional)


def test_overflowing_fit_raises_nonfinite(monkeypatch):
    # squared norms of rows near 1e155 overflow to inf; the first distance
    # matrix of stage 0 is rejected, as it was when assign_memberships
    # checked every matrix
    Xs, labels, Xt, _ = make_instance(31)
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return compute_distances(*args, **kwargs)

    monkeypatch.setattr(core, "compute_distances", counted)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFinite, match="distance matrix contains NaN/Inf"):
            fit_progressive(1e155 * Xs, labels, 1e155 * Xt)
    assert len(calls) == 1


@pytest.mark.parametrize("big_class", [
    # rows (1.5e308, i): a refit multiplies their mean back by the row count
    [[1.5e308, i] for i in range(4)],
    # their scatter overflows, and the class was once fitted as a point
    [[1e200, 0.0], [-1e200, 0.0], [0.0, 1e200], [0.0, -1e200]]])
def test_fit_near_float_max_raises_nonfinite(big_class):
    Xs = np.vstack([big_class, [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]])
    ys = np.repeat([0, 1], 4)
    labels = SourceLabels(labels=ys, num_classes=2)
    Xt = np.array([[1.0, 1.0], [1.5e308, 2.0], [3.0, 3.0]])
    source = pas.LabeledDataset(features=Xs, labels=ys, num_classes=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for fit in (lambda: fit_progressive(Xs, labels, Xt[::2]),
                    lambda: fit_progressive(Xs, labels, Xt),
                    lambda: fit_class_subspaces(Xs, labels),
                    lambda: pas.pas_c(source)):
            with pytest.raises(NonFinite):
                fit()


def test_overflowing_refit_raises_at_first_refit(monkeypatch):
    # the (+-1e200) source of test_fit_near_float_max_raises_nonfinite with
    # ordinary targets: the distances stay finite, but the class's source
    # residual total does not, and the fit once ran its whole schedule on
    # NaN totals before it raised
    Xs = np.vstack([[[1e200, 0.0], [-1e200, 0.0], [0.0, 1e200], [0.0, -1e200]],
                    [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]])
    labels = SourceLabels(labels=np.repeat([0, 1], 4), num_classes=2)
    Xt = np.array([[1.0, 1.0], [3.0, 3.0]])
    refits = []
    refit = core._ClassRefits.refit

    def counted(self, *args):
        refits.append(1)
        return refit(self, *args)

    monkeypatch.setattr(core._ClassRefits, "refit", counted)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFinite):
            fit_progressive(Xs, labels, Xt)
    assert len(refits) == 1


@pytest.mark.parametrize("big_class", [
    [[1.5e308, i] for i in range(4)],
    [[1e200, 0.0], [-1e200, 0.0], [0.0, 1e200], [0.0, -1e200]]])
def test_inner_solve_and_objective_near_float_max_raise_nonfinite(big_class):
    # the source of test_fit_near_float_max_raises_nonfinite; the first
    # targets' sum overflows when the refit memo centres them, and each
    # call once warned before it raised
    Xs = np.vstack([big_class, [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]])
    labels = SourceLabels(labels=np.repeat([0, 1], 4), num_classes=2)
    model = fit_class_subspaces(Xs[4:], SourceLabels(labels=np.repeat([0, 1], 2),
                                                     num_classes=2))
    for Xt in ([[1.5e308, 1.0], [1.5e308, 2.0], [3.0, 3.0]],
               [[1.0, 1.0], [3.0, 3.0]]):
        m = len(Xt)
        state = AnchorState(np.zeros(m, dtype=np.int64), np.ones(m, dtype=np.int64),
                            1.0, np.zeros(m), 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (lambda: inner_solve(Xs, labels, Xt, 0.0),
                         lambda: objective(model, Xs, labels, Xt, state)):
                with pytest.raises(NonFinite):
                    call()


# --- predict ----------------------------------------------------------------

def test_predict_class_mean_gets_its_label():
    Xs, labels, _, _ = make_instance(20, K=3)
    model = fit_class_subspaces(Xs, labels, config=PasConfig(dim=1))
    x = model.subspaces[2].mean
    assert predict(model, x[None, :])[0] == 2


def test_predict_single_class_all_zero():
    rng = np.random.default_rng(21)
    Xs = rng.normal(size=(6, 3))
    labels = SourceLabels(labels=np.zeros(6, dtype=int), num_classes=1)
    model = fit_class_subspaces(Xs, labels, config=PasConfig(dim=1))
    assert (predict(model, rng.normal(size=(7, 3))) == 0).all()


def test_predict_composition_oracle():
    Xs, labels, Xt, _ = make_instance(22, K=4, d=5)
    model = fit_class_subspaces(Xs, labels, config=PasConfig(dim=2))
    expected = np.argmax(assign_memberships(compute_distances(model, Xt)), axis=1)
    assert (predict(model, Xt) == expected).all()


# --- invariants across the solver -------------------------------------------

def test_scaling_leaves_predictions_invariant():
    for seed in range(5):
        Xs, labels, Xt, _ = make_instance(seed, n_per=12, K=3, d=4, shift=1.0)
        s = 7.3
        m1, _ = fit_progressive(Xs, labels, Xt, PasConfig(dim=1, schedule_step=0.25))
        m2, _ = fit_progressive(s * Xs, labels, s * Xt,
                                PasConfig(dim=1, schedule_step=0.25))
        assert (predict(m1, Xt) == predict(m2, s * Xt)).all()


def test_memberships_invariant_under_scaling():
    rng = np.random.default_rng(23)
    dists = rng.uniform(size=(30, 4))
    assert (assign_memberships(dists) == assign_memberships(49.0 * dists)).all()


def test_permutation_equivariance():
    Xs, labels, Xt, _ = make_instance(24, K=3)
    model = fit_class_subspaces(Xs, labels, config=PasConfig(dim=1))
    perm = np.random.default_rng(25).permutation(Xt.shape[0])
    assert (predict(model, Xt[perm]) == predict(model, Xt)[perm]).all()


def test_source_labels_validation():
    with pytest.raises(RangeError):
        SourceLabels(labels=np.array([0, 0, 2]), num_classes=3)  # class 1 missing
    with pytest.raises(RangeError):
        SourceLabels(labels=np.array([0, 1, 3]), num_classes=3)  # out of range
    with pytest.raises(RangeError):
        SourceLabels(labels=np.array([-1, 0, 1]), num_classes=2)
    for fractional in ([0.5, 1.7], [0.0, 1.0, np.nan], [0.0, 1.0, 2.0**63]):
        with pytest.raises(RangeError):
            SourceLabels(labels=fractional, num_classes=2)
    assert SourceLabels(labels=[1.0, 0.0], num_classes=2).labels.tolist() == [1, 0]


@pytest.mark.parametrize("labels, num_classes, error, message", [
    (np.zeros((2, 2), dtype=int), 1, DimensionMismatch, "1-D"),
    (np.array([0, 0]), 0, RangeError, "num_classes must be >= 1"),
    (np.array([0, 1]), 2.0, RangeError, "num_classes"),
    (np.array([0, 0]), True, RangeError, "num_classes"),
    (np.array([0, 1]), "2", RangeError, "num_classes"),
])
def test_source_labels_rejects(labels, num_classes, error, message):
    with pytest.raises(error, match=message):
        SourceLabels(labels=labels, num_classes=num_classes)


def test_config_validation():
    with pytest.raises(ConfigError):
        PasConfig(dim=0)
    with pytest.raises(ConfigError):
        PasConfig(schedule_step=0.0)
    with pytest.raises(ConfigError):
        PasConfig(schedule_step=1.5)
    with pytest.raises(ConfigError):
        PasConfig(dim=2.5)
    assert PasConfig(dim=np.int64(3)).dim == 3
    # a bool is an Integral that compares as 0 or 1, but is no setting
    for bad in (dict(dim=True), dict(dim=False), dict(schedule_step=True)):
        with pytest.raises(ConfigError):
            PasConfig(**bad)
    # a string once raised a bare TypeError, and a numpy bool passed as 1.0
    for bad in (dict(schedule_step="0.5"), dict(schedule_step=np.True_)):
        with pytest.raises(ConfigError):
            PasConfig(**bad)
    config = PasConfig(dim=np.int64(3), schedule_step=np.float32(0.5))
    assert type(config.dim) is int and config.dim == 3
    assert type(config.schedule_step) is float and config.schedule_step == 0.5
    # the inner solver's stopping rule is fixed, not configurable
    assert [f.name for f in dataclasses.fields(PasConfig)] == ["dim",
                                                               "schedule_step"]
    assert PasConfig().inner_tol == 1e-6 and PasConfig().inner_max_iters == 50
    with pytest.raises(TypeError):
        PasConfig(inner_max_iters=3)


# --- persistence ------------------------------------------------------------

def test_model_round_trip_reproduces_predictions_exactly(tmp_path):
    Xs, labels, Xt, _ = make_instance(26, K=3, d=5)
    model, _ = fit_progressive(Xs, labels, Xt, PasConfig(dim=2, schedule_step=0.5))
    path = tmp_path / "model.json"
    pas.save_model(model, str(path))
    loaded = pas.load_model(str(path))
    assert (predict(loaded, Xt) == predict(model, Xt)).all()
    dists = compute_distances(model, Xt)
    dists_loaded = compute_distances(loaded, Xt)
    assert (dists == dists_loaded).all()


def test_numpy_scalar_config_saves_and_reloads(tmp_path):
    Xs, labels, Xt, _ = make_instance(26, K=3, d=5)
    config = PasConfig(dim=np.int64(1), schedule_step=np.float32(0.5))
    assert type(config.dim) is int and type(config.schedule_step) is float
    model, _ = fit_progressive(Xs, labels, Xt, config)
    path = tmp_path / "model.json"
    pas.save_model(model, str(path))
    loaded = pas.load_model(str(path))
    assert loaded.config == PasConfig(dim=1, schedule_step=0.5)
    assert (predict(loaded, Xt) == predict(model, Xt)).all()


def test_model_json_schema(tmp_path):
    Xs, labels, Xt, _ = make_instance(27, K=2, d=3)
    model, _ = fit_progressive(Xs, labels, Xt, PasConfig(dim=1, schedule_step=1.0))
    path = tmp_path / "model.json"
    pas.save_model(model, str(path))
    doc = json.loads(path.read_text())
    assert set(doc) == {"feature_dim", "num_classes", "label_values",
                        "subspaces", "config"}
    assert doc["feature_dim"] == 3 and doc["num_classes"] == 2
    assert doc["label_values"] == [0, 1]
    assert doc["config"] == {"dim": 1, "schedule_step": 1.0}
    for entry in doc["subspaces"]:
        assert set(entry) == {"mean", "basis", "spectrum"}
        assert len(entry["mean"]) == 3
        assert len(entry["basis"]) == 3 * len(entry["spectrum"])


def test_model_written_with_config_seed_still_loads(tmp_path):
    # earlier model files carry a top-level dim after label_values and
    # config.inner_tol and config.inner_max_iters; the oldest also carry
    # config.seed, as PasConfig once had a seed field
    Xs, labels, Xt, _ = make_instance(28, K=3, d=4)
    model, _ = fit_progressive(Xs, labels, Xt, PasConfig(dim=2, schedule_step=0.5))
    doc = core.model_to_dict(model)
    old = {key: doc[key] for key in ("feature_dim", "num_classes",
                                     "label_values")}
    old["dim"] = 2
    old["subspaces"] = doc["subspaces"]
    old["config"] = {"dim": 2, "schedule_step": 0.5, "inner_tol": 1e-06,
                     "inner_max_iters": 50, "seed": 0}
    path = tmp_path / "old.json"
    path.write_text(json.dumps(old, indent=2) + "\n")
    loaded = pas.load_model(str(path))
    assert core.model_to_dict(loaded) == doc
    pas.save_model(loaded, str(path))
    assert path.read_text() == json.dumps(doc, indent=2) + "\n"
    assert (compute_distances(loaded, Xt) == compute_distances(model, Xt)).all()
    assert (predict(loaded, Xt) == predict(model, Xt)).all()


def test_model_written_without_label_values_loads_identity(tmp_path):
    Xs, labels, Xt, _ = make_instance(29, K=3, d=4)
    model, _ = fit_progressive(Xs, labels, Xt, PasConfig(dim=1, schedule_step=0.5))
    model.label_values = np.array([5, 9, 7])
    doc = core.model_to_dict(model)
    assert core.model_from_dict(doc).label_values.tolist() == [5, 9, 7]
    del doc["label_values"]
    loaded = core.model_from_dict(doc)
    assert loaded.label_values.tolist() == [0, 1, 2]
    assert (predict(loaded, Xt) == predict(model, Xt)).all()


def test_model_load_rejects_a_spectrum_longer_than_feature_dim():
    # fit_pca keeps at most feature_dim columns, so a longer spectrum is
    # rejected before any r x r product: a 4,000-value spectrum at d = 1
    # would otherwise form B^T B and an identity of 128 MB each
    r = 4000
    doc = {"feature_dim": 1, "num_classes": 1,
           "config": {"dim": 1, "schedule_step": 0.5},
           "subspaces": [{"mean": [0.0], "spectrum": [1.0] * r,
                          "basis": [1.0] + [0.0] * (r - 1)}]}
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError) as exc:
            core.model_from_dict(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(exc.value) == "spectrum has 4000 values, more than feature_dim 1"
    # the mean, spectrum and basis as float64 arrays, with room to spare
    assert peak <= 4 * (1 + r + r) * 8 + (64 << 10)


def test_model_load_rejects_garbage(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        pas.load_model(str(path))
    path.write_text(json.dumps({"feature_dim": 3}))
    with pytest.raises(ConfigError):
        pas.load_model(str(path))
