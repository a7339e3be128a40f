"""Property tests for the batched distance kernel and the solver.

The per-class residual (pas.residuals_sq) is the oracle for
compute_distances, alone and inside a whole progressive fit.  The
block-update replication from test_core is the oracle for inner_solve
and, stage by stage, for fit_progressive: it refits every class and
recomputes every distance on every iteration, where the solver reuses
what did not change.  argmin over scipy's cdist is the oracle for
nn1_classify.
"""

import json
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from pas import (
    AnchorState,
    PasConfig,
    PasModel,
    Shift,
    SourceLabels,
    Subspace,
    SynthConfig,
    compute_distances,
    fit_class_subspaces,
    fit_pca,
    fit_progressive,
    objective,
    predict,
    residuals_sq,
    synth_shifted_pair,
)
from pas import baselines, core, subspace
from pas.cli import SUITES
from pas.core import (StageRecord, inner_solve, lambda_for_fraction,
                      model_from_dict, model_to_dict)
from pas.data import LabeledDataset
from pas.subspace import RANK_TOL
from conftest import solve_inner
from test_core import assert_same_fit, make_instance, replicate_inner

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
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 40),
       extra=st.integers(-20, 200), k=st.integers(2, 5),
       cut=st.floats(1.0, 3.0), offset=st.sampled_from([0.0, 1.0, 1e3]))
def test_fitted_model_passes_load_checks(seed, n, extra, k, cut, offset):
    # nearly rank-deficient classes, most of them on the Gram route (fewer
    # rows than features), whose last eigenvalue sits at cut times the rank
    # cutoff of the others' total
    rng = np.random.default_rng(seed)
    d = max(n + extra, 2)
    k = min(k, n - 1, d)
    assume(k >= 2)
    spectrum = np.sort(10.0 ** rng.uniform(-3, 0, size=k))[::-1]
    spectrum[-1] = RANK_TOL * cut * spectrum[:-1].sum()
    U, _ = np.linalg.qr(rng.normal(size=(n, k)))
    V, _ = np.linalg.qr(rng.normal(size=(d, k)))
    Y = (U * np.sqrt(spectrum * n)) @ V.T
    X = Y - Y.mean(axis=0) + offset * rng.normal(size=d)
    Xs = np.vstack([X, rng.normal(size=(3, d))])
    labels = SourceLabels(labels=np.repeat([0, 1], [n, 3]), num_classes=2)
    model = fit_class_subspaces(Xs, labels, config=PasConfig(dim=k))
    loaded = model_from_dict(json.loads(json.dumps(model_to_dict(model))))
    for S, T in zip(model.subspaces, loaded.subspaces):
        assert S.basis.tobytes() == T.basis.tobytes()
        assert S.spectrum.tobytes() == T.spectrum.tobytes()


@PROPERTY
@given(seed=st.integers(0, 10_000), K=st.integers(1, 4),
       quantile=st.floats(0.0, 1.0), max_iters=st.sampled_from([2, 3, 50]))
def test_inner_solve_matches_replication(seed, K, quantile, max_iters):
    Xs, labels, Xt, _ = make_instance(seed, n_per=10, K=K, d=4, shift=1.5)
    config = PasConfig(dim=1)
    dists0 = compute_distances(fit_class_subspaces(Xs, labels, config=config), Xt)
    lam = float(np.quantile(dists0.min(axis=1), quantile))
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(PasConfig, "inner_max_iters", max_iters)
        _, state, history = solve_inner(Xs, labels, Xt, lam, config=config)
        _, state2, history2 = replicate_inner(Xs, labels, Xt, lam, config)
    assert history == history2
    assert (state.memberships == state2.memberships).all()
    assert (state.anchors == state2.anchors).all()


@PROPERTY
@given(seed=st.integers(0, 10_000), K=st.integers(1, 4), d=st.integers(2, 6),
       dim=st.integers(1, 3), quantile=st.floats(0.0, 1.0),
       warm=st.booleans())
def test_inner_solve_objective_never_increases(seed, K, d, dim, quantile, warm):
    # each block update minimizes the objective given the others, so every
    # history, cold or warm-started, is nonincreasing up to roundoff
    Xs, labels, Xt, _ = make_instance(seed, n_per=8, K=K, d=d, shift=1.5)
    config = PasConfig(dim=dim)
    dists0 = compute_distances(fit_class_subspaces(Xs, labels, config=config), Xt)
    lam = float(np.quantile(dists0.min(axis=1), quantile))
    state = None
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(PasConfig, "inner_tol", 1e-12)
        if warm:
            _, state, _ = solve_inner(Xs, labels, Xt, 0.5 * lam, config=config)
        _, _, history = solve_inner(Xs, labels, Xt, lam, state, config)
    for before, after in zip(history, history[1:]):
        assert after <= before + 1e-9 * max(1.0, abs(before))


def _per_class_distances(model, X, _memo=None):
    # every column, whatever the solver's memo says changed
    return np.column_stack([residuals_sq(S, X) for S in model.subspaces])


def suite_pair(suite):
    """(source, target, labels, config) of the seed-0 pas bench suite instance."""
    spec = SUITES[suite]
    cfg = SynthConfig(num_classes=spec["num_classes"], dim=spec["dim"],
                      per_class=spec["per_class"],
                      shift=Shift(rotation=spec["rotation"],
                                  translation=spec["translation"],
                                  noise=spec["noise"]),
                      pda_keep=spec["pda_keep"], seed=0)
    source, target = synth_shifted_pair(cfg)
    labels = SourceLabels(labels=source.labels, num_classes=source.num_classes)
    return source, target, labels, PasConfig(dim=spec["subspace_dim"])


@pytest.mark.parametrize("suite", ["closed", "pda"])
def test_fit_trajectory_matches_per_class_kernel(monkeypatch, suite):
    source, target, labels, config = suite_pair(suite)
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


def replicate_progressive(Xs, labels, Xt, config, eval_labels=None):
    """fit_progressive rebuilt stage by stage on replicate_inner; returns
    (model, trace, one objective history per stage)."""
    trace, histories = [], []
    step = config.schedule_step
    num_stages = int(np.ceil(1.0 / step - 1e-9))
    lam, state = 0.0, None
    for s in range(num_stages + 1):
        fraction = 0.0
        if s:
            fraction = 1.0 if s == num_stages else min(1.0, s * step)
            lam = max(lam, lambda_for_fraction(state.distances, fraction))
        model, state, history = replicate_inner(Xs, labels, Xt, lam, config,
                                                warm_state=state)
        acc = None
        if eval_labels is not None:
            acc = float(np.mean(np.argmax(state.memberships, axis=1)
                                == eval_labels))
        trace.append(StageRecord(stage=s, fraction=fraction, threshold=lam,
                                 anchored=int(state.anchors.sum()),
                                 objective=history[-1], pseudo_accuracy=acc))
        histories.append(history)
    return model, trace, histories


def assert_fit_matches_oracle(monkeypatch, Xs, labels, Xt, config,
                              eval_labels=None):
    histories = []

    def recorded(*args, **kwargs):
        result = inner_solve(*args, **kwargs)
        histories.append(result[2])
        return result

    with monkeypatch.context() as patch:
        patch.setattr(core, "inner_solve", recorded)
        model, trace = fit_progressive(Xs, labels, Xt, config, eval_labels)
    oracle_model, oracle_trace, oracle_histories = replicate_progressive(
        Xs, labels, Xt, config, eval_labels)
    assert isinstance(trace, list)
    # the solver recomputes only the distance columns of refitted classes,
    # which moves the last bits of those columns against a full recompute
    exact = ("stage", "fraction", "anchored", "pseudo_accuracy")
    assert ([[getattr(r, name) for name in exact] for r in trace]
            == [[getattr(r, name) for name in exact] for r in oracle_trace])
    for name in ("threshold", "objective"):
        assert [getattr(r, name) for r in trace] == pytest.approx(
            [getattr(r, name) for r in oracle_trace], rel=1e-9)
    assert [len(h) for h in histories] == [len(h) for h in oracle_histories]
    for history, oracle_history in zip(histories, oracle_histories):
        assert history == pytest.approx(oracle_history, rel=1e-9)
    for S, T in zip(model.subspaces, oracle_model.subspaces):
        for name in ("mean", "basis", "spectrum"):
            assert getattr(S, name).tobytes() == getattr(T, name).tobytes()


@pytest.mark.parametrize("suite", ["closed", "pda"])
def test_fit_matches_full_refit_oracle_on_suites(monkeypatch, suite):
    source, target, labels, config = suite_pair(suite)
    assert_fit_matches_oracle(monkeypatch, source.features, labels,
                              target.features, config, target.true_labels)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), K=st.integers(1, 4), d=st.integers(2, 5),
       dim=st.integers(1, 2), keep=st.integers(1, 15),
       step=st.sampled_from([0.1, 0.25, 0.5, 1.0]),
       max_iters=st.sampled_from([2, 3, 50]))
def test_fit_matches_full_refit_oracle(seed, K, d, dim, keep, step, max_iters):
    # keep is a bit mask of the classes the target holds (partial DA)
    Xs, labels, Xt, ys = make_instance(seed, n_per=8, K=K, d=d, shift=1.5)
    present = [k for k in range(K) if keep >> k & 1] or [0]
    rows = np.isin(ys, present)
    config = PasConfig(dim=dim, schedule_step=step)
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(PasConfig, "inner_max_iters", max_iters)
        assert_fit_matches_oracle(monkeypatch, Xs, labels, Xt[rows], config,
                                  ys[rows])


def test_absent_classes_are_fitted_once(monkeypatch):
    # on a partial-DA fit no target row is ever anchored to a class the
    # target lacks, so its subspace is the source PCA fitted at the start:
    # each absent class is refitted once, on no target row
    source, target, labels, config = suite_pair("pda")
    absent = sorted(set(range(labels.num_classes))
                    - set(SUITES["pda"]["pda_keep"]))
    fits = {k: [] for k in absent}
    refit = core._ClassRefits.refit

    def counted(self, *args):
        subspaces = refit(self, *args)
        for k in set(absent) & set(self.refitted):
            fits[k].append(int((self.key == k).sum()))
        return subspaces

    monkeypatch.setattr(core._ClassRefits, "refit", counted)
    _, trace = fit_progressive(source.features, labels, target.features, config)
    assert len(trace) == 101
    assert fits == {k: [0] for k in absent}


@pytest.mark.parametrize("suite, class_refits, distance_calls",
                         [("closed", 432, 216), ("pda", 37, 26)])
def test_suite_fit_work_counts(monkeypatch, suite, class_refits, distance_calls):
    # recorded before the solver carried class indices, kept the warm
    # state's distances when a stage's first refit changes no class and
    # refitted classes from source moments: the fast paths neither add nor
    # drop a class refit or a distance recomputation.  A moments refit
    # calls no fit_pca, so class refits are counted at the memo.
    source, target, labels, config = suite_pair(suite)
    counts = {"class_refits": 0, "compute_distances": 0}
    refit, distances = core._ClassRefits.refit, core.compute_distances

    def counted_refit(self, *args):
        subspaces = refit(self, *args)
        counts["class_refits"] += len(self.refitted)
        return subspaces

    def counted_distances(*args, **kwargs):
        counts["compute_distances"] += 1
        return distances(*args, **kwargs)

    monkeypatch.setattr(core._ClassRefits, "refit", counted_refit)
    monkeypatch.setattr(core, "compute_distances", counted_distances)
    fit_progressive(source.features, labels, target.features, config)
    assert counts == {"class_refits": class_refits,
                      "compute_distances": distance_calls}


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 24),
       extra=st.integers(-23, 20), r=st.integers(0, 20), dim=st.integers(1, 6),
       kind=st.sampled_from(["normal", "low_rank"]),
       offset=st.sampled_from([0.0, 1.0, 1e2, 1e5]),
       scale=st.sampled_from([1e-3, 1.0, 1e3]))
def test_moments_refit_matches_stacked_fit_pca(seed, d, extra, r, dim, kind,
                                               offset, scale):
    # a class with n_s source rows and r anchored rows (none included) is
    # refitted from its source summary: from its moments when n_s >= d
    # (n_s == d when extra is 0), fit_pca's fit of the stacked rows up to
    # rounding with its source residual total in closed form within
    # 4 d eps tr(A) of the per-row sum; from its rows otherwise, that fit
    # and that sum bit for bit
    rng = np.random.default_rng(seed)
    n_s = max(d + extra, 1)
    if kind == "normal":
        Z = rng.normal(size=(n_s + r, d)) * rng.uniform(0.1, 3.0, size=d)
        Z[n_s:] += rng.normal(size=d)
    else:
        # 1 to dim + 1 directions, anchored rows on the same flat.  Not
        # none: equal rows fit a point on both routes (see
        # test_equal_rows_fit_a_point), but their residual totals are
        # rounding noise, which assert_same_fit cannot compare
        k = int(rng.integers(1, min(dim + 1, d) + 1))
        Z = rng.normal(size=(n_s + r, k)) @ rng.normal(size=(k, d))
    X = scale * Z + offset * rng.normal(size=d)
    Xs, R = X[:n_s], X[n_s:]
    labels = SourceLabels(labels=np.zeros(n_s, dtype=np.int64), num_classes=1)
    state = AnchorState(np.zeros(r, dtype=np.int64), np.ones(r, dtype=np.int64),
                        1.0, np.zeros(r), 1)
    refits = core._ClassRefits(Xs, labels, R, state)
    with pytest.MonkeyPatch.context() as monkeypatch:
        if n_s >= d:
            monkeypatch.setattr(subspace, "fit_pca", None)   # a stacked fit fails
        S = refits.refit(state, dim)[0]
    O = fit_pca(X, dim)
    assert_same_fit(S, O, X)
    Y = Xs - S.mean
    bound = 0.0 if n_s < d else 4 * d * np.finfo(float).eps * float((Y * Y).sum())
    assert abs(refits.source_total() - float(residuals_sq(S, Xs).sum())) <= bound
    if n_s < d:
        assert S.mean.tobytes() == O.mean.tobytes()
        assert S.basis.tobytes() == O.basis.tobytes()


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 30), d=st.integers(1, 8),
       magnitude=st.sampled_from([1e-3, 1.0, 0.8216181, 33333.33, 1e5]))
def test_equal_rows_fit_a_point(seed, n, d, magnitude):
    # the covariance of equal rows is the rounding of their mean, so both
    # fit_pca (covariance or Gram route) and a refit from either source
    # summary fit a point
    rng = np.random.default_rng(seed)
    X = np.tile(magnitude * rng.uniform(-1.0, 1.0, size=d), (n, 1))
    assert fit_pca(X, dim=d).effective_dim == 0
    if n > 1:
        # moments when n > d, as n_s >= d then; rows otherwise
        n_s = int(rng.integers(d, n)) if n > d else int(rng.integers(1, n))
        labels = SourceLabels(labels=np.zeros(n_s, dtype=np.int64), num_classes=1)
        r = n - n_s
        state = AnchorState(np.zeros(r, dtype=np.int64), np.ones(r, dtype=np.int64),
                            1.0, np.zeros(r), 1)
        refits = core._ClassRefits(X[:n_s], labels, X[n_s:], state)
        assert refits.refit(state, d)[0].effective_dim == 0
        assert isinstance(refits.sources[0], subspace._SourceMoments) == (n_s >= d)


@pytest.mark.parametrize("n, d", [(20, 3), (3, 8)])
def test_huge_offset_rows_keep_their_spread(n, d):
    # rows at 1e160 +- 1e150: |mean|^2 overflows, their covariance does
    # not, so the rounding floor must not swallow the spread (covariance
    # and Gram routes, and a refit from either source summary)
    rng = np.random.default_rng(0)
    X = 1e160 * rng.uniform(-1.0, 1.0, size=d) + 1e150 * rng.normal(size=(n, d))
    assert fit_pca(X, dim=d).effective_dim == min(n - 1, d)
    n_s, r = n // 2, n - n // 2
    labels = SourceLabels(labels=np.zeros(n_s, dtype=np.int64), num_classes=1)
    state = AnchorState(np.zeros(r, dtype=np.int64), np.ones(r, dtype=np.int64),
                        1.0, np.zeros(r), 1)
    refits = core._ClassRefits(X[:n_s], labels, X[n_s:], state)
    assert refits.refit(state, d)[0].effective_dim == min(n - 1, d)
    assert isinstance(refits.sources[0], subspace._SourceMoments) == (n_s >= d)


@PROPERTY
@given(seed=st.integers(0, 10_000), K=st.integers(1, 4), d=st.integers(2, 6),
       n_per=st.integers(2, 9), dim=st.integers(1, 3),
       fractions=st.lists(st.floats(0.0, 1.0), max_size=4))
def test_residual_kept_at_refit_is_the_fresh_residual(seed, K, d, n_per, dim,
                                                      fractions):
    # over successive warm-started solves through one memo, the source
    # residual every refit stores equals a fresh residual from its class's
    # source summary bit for bit, and objective() equals each solve's last
    # history entry bit for bit
    Xs, labels, Xt, _ = make_instance(seed, n_per=n_per, K=K, d=d, shift=1.5)
    config = PasConfig(dim=dim)
    refits = core._ClassRefits(Xs, labels, Xt)
    refit, stored = refits.refit, set()

    def checked_refit(state, dim):
        subspaces = refit(state, dim)
        for k in refits.refitted:
            stored.add(type(refits.sources[k]))
            fresh = refits.sources[k].residual(refits.subspaces[k])
            assert refits.residuals[k] == fresh
        return subspaces

    refits.refit = checked_refit
    state, lam = None, 0.0
    # the last solve anchors every row, so each class has anchored rows
    for fraction in [0.0] + sorted(fractions) + [1.0]:
        if state is not None:
            lam = max(lam, lambda_for_fraction(state.distances, fraction))
        model, state, history = inner_solve(Xs, labels, Xt, lam, state, config,
                                            _refits=refits)
        assert objective(model, Xs, labels, Xt, state) == history[-1]
    # classes with n_per >= d source rows are refitted from moments
    assert stored == {subspace._SourceMoments if n_per >= d else subspace._SourceRows}


@pytest.mark.parametrize("suite, moments_fits", [("closed", 432), ("pda", 37)])
def test_scatter_built_once_per_moments_refit(monkeypatch, suite, moments_fits):
    # every class of both suites has at least d source rows, so each of the
    # class refits test_suite_fit_work_counts counts, source-only ones
    # included, is a moments refit; it builds its class's scatter once and
    # takes the source residual from it, and source_total builds none
    source, target, labels, config = suite_pair(suite)
    counts = {"fits": 0, "scatters": 0, "in_source_total": 0}
    inside = []
    moments = subspace._SourceMoments
    fit, scatter_about = moments.fit, moments.scatter_about
    source_total = core._ClassRefits.source_total

    def counted_fit(self, *args):
        counts["fits"] += 1
        return fit(self, *args)

    def counted_scatter(self, mu):
        counts["scatters"] += 1
        counts["in_source_total"] += bool(inside)
        return scatter_about(self, mu)

    def counted_total(self):
        inside.append(True)
        try:
            return source_total(self)
        finally:
            inside.pop()

    monkeypatch.setattr(moments, "fit", counted_fit)
    monkeypatch.setattr(moments, "scatter_about", counted_scatter)
    monkeypatch.setattr(core._ClassRefits, "source_total", counted_total)
    fit_progressive(source.features, labels, target.features, config)
    assert counts == {"fits": moments_fits, "scatters": moments_fits,
                      "in_source_total": 0}


def one_hot_rows(state):
    """Each class's anchored target rows, in row order, picked from the
    one-hot memberships as the refit memo once did: the nonzero cells of
    (W == 1) & (v == 1), stably sorted by class."""
    targets, classes = np.nonzero((state.memberships == 1)
                                  & (state.anchors == 1)[:, None])
    picked = targets[np.argsort(classes, kind="stable")]
    ends = np.cumsum(np.bincount(classes, minlength=state.num_classes))
    return np.split(picked, ends[:-1])


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), K=st.integers(1, 6),
       m=st.integers(0, 40), share=st.floats(0.0, 1.0), moved=st.integers(0, 40))
def test_refit_picks_the_one_hot_rows(seed, K, m, share, moved):
    # a random valid state, then one with `moved` rows reassigned or
    # re-anchored, so the memo both refits and keeps classes
    rng = np.random.default_rng(seed)
    labels = SourceLabels(labels=np.repeat(np.arange(K), 2), num_classes=K)
    Xs, Xt = rng.normal(size=(2 * K, 3)), rng.normal(size=(m, 3))
    assigned = rng.integers(0, K, size=m)
    anchors = (rng.uniform(size=m) < share).astype(np.int64)
    first = AnchorState(assigned, anchors, 1.0, np.zeros(m), K)
    rows = rng.integers(0, max(m, 1), size=min(moved, m))
    assigned, anchors = assigned.copy(), anchors.copy()
    assigned[rows] = rng.integers(0, K, size=rows.size)
    anchors[rows] = rng.integers(0, 2, size=rows.size)
    second = AnchorState(assigned, anchors, 1.0, np.zeros(m), K)
    refits = core._ClassRefits(Xs, labels, Xt, first)
    previous = None
    for state in (first, second):
        refits.refit(state, 1)
        oracle = one_hot_rows(state)
        assert len(oracle) == K
        for k, expected in enumerate(oracle):
            assert np.array_equal(np.flatnonzero(refits.key == k), expected)
        # the first refit fits every class, the second exactly those whose
        # anchored rows changed
        assert refits.refitted == [
            k for k in range(K)
            if previous is None or not np.array_equal(previous[k], oracle[k])]
        previous = oracle


def sorted_threshold(c, fraction):
    """lambda_for_fraction's threshold read off a full sort: the smallest
    value above the t-th smallest, else just above the largest."""
    t = int(np.ceil(fraction * c.size - 1e-9))
    s = np.sort(c)
    bigger = s[s > s[t - 1]]
    return float(bigger[0]) if bigger.size else float(s[t - 1] * (1.0 + 1e-9) + 1e-12)


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 2000),
       distinct=st.integers(1, 60), decimals=st.integers(0, 3),
       scale=st.sampled_from([1e-300, 1.0, 1e300]), k=st.integers(1, 2000),
       exact=st.booleans())
def test_lambda_for_fraction_matches_sort_oracle(seed, m, distinct, decimals,
                                                 scale, k, exact):
    # m distances drawn from a few values, rounded so that zeros and ties
    # are common; an exact fraction k/m puts the t-th value on a tie's edge.
    # fit_progressive's fractions are at least MIN_SCHEDULE_STEP
    rng = np.random.default_rng(seed)
    pool = np.round(rng.uniform(0, 1, size=distinct), decimals) * scale
    c = rng.choice(pool, size=m)
    fraction = (min(k, m) / m if exact
                else float(rng.uniform(core.MIN_SCHEDULE_STEP, 1.0)))
    assert repr(lambda_for_fraction(c, fraction)) == repr(sorted_threshold(c, fraction))


def test_state_checked_once_per_public_call(monkeypatch):
    calls = []
    check = core._check_state

    def counted(*args):
        calls.append(args)
        return check(*args)

    monkeypatch.setattr(core, "_check_state", counted)
    source, target, labels, config = suite_pair("closed")
    _, trace = fit_progressive(source.features, labels, target.features, config)
    assert len(trace) == 101
    assert calls == []
    Xs, labels, Xt, _ = make_instance(33, K=3)
    model, state, _ = solve_inner(Xs, labels, Xt, 1.0)
    assert calls == []
    for call in (lambda: solve_inner(Xs, labels, Xt, 2.0, warm_state=state),
                 lambda: fit_class_subspaces(Xs, labels, Xt, state),
                 lambda: objective(model, Xs, labels, Xt, state)):
        calls.clear()
        call()
        assert len(calls) == 1


def nn1_case(seed, kind, n, m, d, offset=0.0, scale=1.0):
    """Source and target rows for the 1NN oracles.

    Integer grids tie exactly; duplicated source rows (every kind drawn
    from normal rows but "normal") tie in every distance; targets within
    1e-9 of a source row ("near") sit at the float64 scores' rounding
    level, where only the cdist recheck can decide; targets translated by
    1e6 to 1e14 along one direction ("far") leave the float32 screen no
    margin, so most rows are rescored in float64 and some reach cdist,
    and their norms differ by up to 1e8; targets moved by 1e4 each along
    its own coordinate ("axes") make the scale's bound, twice the norm of
    the columns' largest centred entries, exceed every row's R by about
    sqrt(min(m, d)); a single source row ("single") or n equal ones
    ("equal") put every source row on the mean.  Both sides are then
    shifted by offset and scaled by scale."""
    rng = np.random.default_rng(seed)
    shift = offset * rng.normal(size=d)
    if kind == "grid":
        X_s = rng.integers(-2, 3, size=(n, d)).astype(float)
        X_t = rng.integers(-2, 3, size=(m, d)).astype(float)
    elif kind in ("single", "equal"):
        X_s = np.repeat(rng.normal(size=(1, d)), 1 if kind == "single" else n, axis=0)
        X_t = rng.normal(size=(m, d))
    else:
        X_s = rng.normal(size=(n, d))
        if kind != "normal":
            X_s = np.vstack([X_s, X_s[rng.integers(0, n, size=n // 2 + 1)]])
        X_t = (X_s[rng.integers(0, X_s.shape[0], size=m)]
               + rng.normal(size=(m, d)) * (1e-9 if kind == "near" else 1e-3))
        if kind == "far":
            X_t += np.outer(10.0 ** rng.uniform(6, 14, size=m),
                            rng.normal(size=d) / np.sqrt(d))
        if kind == "axes":
            X_t[np.arange(m), np.arange(m) % d] += 1e4 * rng.choice([-1.0, 1.0], size=m)
    return (X_s + shift) * scale, (X_t + shift) * scale


@settings(PROPERTY, max_examples=200)
@given(seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["grid", "normal", "duplicates", "near", "far",
                             "axes", "single", "equal"]),
       n=st.integers(1, 60), m=st.integers(1, 40), d=st.integers(1, 300),
       offset=st.sampled_from([0.0, 1.0, 1e3, 1e5]),
       scale=st.sampled_from([1e-30, 1.0, 1e30]),
       chunk=st.sampled_from([1, 7, 1024]))
def test_nn1_matches_cdist_oracle(seed, kind, n, m, d, offset, scale, chunk):
    # scales of 1e-30 and 1e30 move the float32 screen's power-of-two
    # scale far from 1, and tier-1 fails on any overflow warning
    X_s, X_t = nn1_case(seed, kind, n, m, d, offset, scale)
    source = LabeledDataset(features=X_s, labels=np.arange(X_s.shape[0]),
                            num_classes=X_s.shape[0])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(baselines, "NN1_CHUNK_ROWS", chunk)
        got = baselines.nn1_classify(source, X_t)
    assert np.array_equal(got, np.argmin(cdist(X_t, X_s), axis=1))


@settings(PROPERTY, max_examples=200)
@given(seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["grid", "normal", "duplicates", "near", "far",
                             "axes", "single", "equal"]),
       n=st.integers(1, 60), m=st.integers(1, 40), d=st.integers(1, 300),
       offset=st.sampled_from([0.0, 1.0, 1e3, 1e5]),
       scale=st.sampled_from([1e-30, 1.0, 1e30]),
       tile=st.sampled_from([1, 7, 2048]), chunk=st.sampled_from([1, 7, 1024]))
def test_nn1_tiles_match_cdist_oracle(seed, kind, n, m, d, offset, scale, tile,
                                      chunk):
    # tiles of one and seven source rows merge each row's best and runner-up
    # across many tiles, ties and near ties among them; 2048 is one tile
    X_s, X_t = nn1_case(seed, kind, n, m, d, offset, scale)
    source = LabeledDataset(features=X_s, labels=np.arange(X_s.shape[0]),
                            num_classes=X_s.shape[0])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(baselines, "NN1_TILE_COLS", tile)
        mp.setattr(baselines, "NN1_CHUNK_ROWS", chunk)
        got = baselines.nn1_classify(source, X_t)
    assert np.array_equal(got, np.argmin(cdist(X_t, X_s), axis=1))


def test_nn1_equal_rows_in_two_tiles_go_to_the_recheck(monkeypatch):
    # source rows 2 and 6 are equal and lie in different tiles of 4: the
    # later tile's equal score does not win, so each pass keeps index 2,
    # and its runner-up, equal to the best, sends the row on to cdist
    X_s = np.array([[9.0, 0.0], [0.0, 9.0], [1.0, 1.0], [-9.0, 0.0],
                    [0.0, -9.0], [9.0, 9.0], [1.0, 1.0], [-9.0, -9.0]])
    X_t = np.array([[1.0, 1.5]])
    score_blocks, passes, rechecked = baselines._score_blocks, [], []

    def recording_blocks(dtype, rows, *args):
        nearest = args[-1]
        for out in score_blocks(dtype, rows, *args):
            block, tied = out[0], out[1]
            passes.append((np.dtype(dtype).name, nearest[block].tolist(),
                           block[tied].tolist()))
            yield out

    def counting_cdist(XA, XB):
        rechecked.append(XB.shape[0])
        return cdist(XA, XB)

    monkeypatch.setattr(baselines, "NN1_TILE_COLS", 4)
    monkeypatch.setattr(baselines, "_score_blocks", recording_blocks)
    monkeypatch.setattr(baselines, "cdist", counting_cdist)
    source = LabeledDataset(features=X_s, labels=np.arange(8), num_classes=8)
    assert baselines.nn1_classify(source, X_t).tolist() == [2]
    assert passes == [("float32", [2], [0]), ("float64", [2], [0])]
    assert rechecked == [2]


@settings(PROPERTY, max_examples=60)
@given(seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["grid", "normal", "duplicates", "near", "far",
                             "axes", "single", "equal"]),
       n=st.integers(1, 60), m=st.integers(1, 40), d=st.integers(1, 64),
       offset=st.sampled_from([0.0, 1.0, 1e3, 1e5]),
       j=st.sampled_from([-600, -530, 500]))
def test_nn1_labels_are_unchanged_by_power_of_two_scaling(seed, kind, n, m, d,
                                                          offset, j):
    # scaling both inputs by 2^j is exact, so the nearest rows stay the same;
    # at 2^-600 squared distances underflow and at 2^500 those of "far"
    # targets overflow, unless every tier works on rows scaled into range
    X_s, X_t = nn1_case(seed, kind, n, m, d, offset)
    source = LabeledDataset(features=X_s, labels=np.arange(X_s.shape[0]),
                            num_classes=X_s.shape[0])
    want = baselines.nn1_classify(source, X_t)
    source.features = np.ldexp(X_s, j)
    assert np.array_equal(baselines.nn1_classify(source, np.ldexp(X_t, j)), want)
