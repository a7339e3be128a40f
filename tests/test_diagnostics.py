import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist, pdist

import pas
from pas import PasConfig, SourceLabels
from pas.diagnostics import (ASCENT_TOL, BLOCK_ROWS, LOG_FLOOR, MAX_ASCENT_STEPS,
                             MAX_STEP_SCALINGS, DensityRatioModel,
                             _feasible_ascent_direction, adr, anchoring_report,
                             kliep_fit)
from pas.data import Shift, SynthConfig, synth_shifted_pair
from pas.errors import (
    ConfigError,
    DegenerateKernel,
    DimensionMismatch,
    EmptySelection,
    NonFinite,
    RangeError,
    TooFewSamples,
)


def test_same_distribution_ratio_near_one():
    rng = np.random.default_rng(0)
    X_src = rng.normal(size=(200, 3))
    X_tgt = rng.normal(size=(200, 3))
    model = kliep_fit(X_src, X_tgt)
    w = model.ratio(X_tgt)
    assert abs(float(w.mean()) - 1.0) <= 1e-3
    assert float(w.std()) < 0.5


def test_normalization_constraint_on_every_fit():
    rng = np.random.default_rng(1)
    for seed in range(5):
        X_src = rng.normal(size=(80, 2)) + seed * 0.3
        X_tgt = rng.normal(size=(120, 2))
        model = kliep_fit(X_src, X_tgt, seed=seed)
        assert abs(float(model.ratio(X_tgt).mean()) - 1.0) <= 1e-3
        assert (model.alphas >= 0).all()


def test_objective_history_nondecreasing():
    rng = np.random.default_rng(2)
    X_src = rng.normal(size=(150, 2)) + 0.8
    X_tgt = rng.normal(size=(150, 2))
    model = kliep_fit(X_src, X_tgt)
    hist = np.asarray(model.objective_history)
    assert len(hist) > 1
    assert (np.diff(hist) >= 0).all()


def test_analytic_gaussian_ratio_correlation():
    # src = N(0,1), tgt = N(1,1): true ratio p/q is exp(1/2 - x)
    rng = np.random.default_rng(13)
    X_src = rng.normal(0.0, 1.0, size=(500, 1))
    X_tgt = rng.normal(1.0, 1.0, size=(500, 1))
    model = kliep_fit(X_src, X_tgt)
    w = model.ratio(X_tgt)
    truth = np.exp(0.5 - X_tgt[:, 0])
    corr = float(np.corrcoef(w, truth)[0, 1])
    assert corr > 0.9


def test_degenerate_kernel():
    X = np.ones((10, 2))
    with pytest.raises(DegenerateKernel):
        kliep_fit(X, X.copy())
    with pytest.raises(DegenerateKernel, match="zero"):
        kliep_fit(np.random.default_rng(0).normal(size=(5, 2)),
                  np.random.default_rng(1).normal(size=(5, 2)), bandwidth=0.0)
    # a bandwidth is a real number: True and "1" were once taken as 1.0
    for bad in (float("nan"), float("inf"), True, np.True_, "1"):
        with pytest.raises(DegenerateKernel, match="finite real number"):
            kliep_fit(np.random.default_rng(0).normal(size=(5, 2)),
                      np.random.default_rng(1).normal(size=(5, 2)), bandwidth=bad)
    # a negative bandwidth was once reported as zero
    with pytest.raises(DegenerateKernel, match="negative"):
        kliep_fit(np.random.default_rng(0).normal(size=(5, 2)),
                  np.random.default_rng(1).normal(size=(5, 2)), bandwidth=-1.0)
    # 2 * bandwidth^2 once underflowed to a division by zero, or raised
    # OverflowError from bandwidth ** 2
    for bad in (1e-160, 1e300):
        with pytest.raises(DegenerateKernel, match="normal float"):
            kliep_fit(np.random.default_rng(0).normal(size=(5, 2)),
                      np.random.default_rng(1).normal(size=(5, 2)), bandwidth=bad)


@pytest.mark.parametrize("num_centers, target_rows", [(1, 5), (100, 1)])
def test_median_bandwidth_needs_two_centers(num_centers, target_rows):
    rng = np.random.default_rng(6)
    with pytest.raises(DegenerateKernel, match="needs >= 2 centers"):
        kliep_fit(rng.normal(size=(5, 2)), rng.normal(size=(target_rows, 2)),
                  num_centers=num_centers)


def test_step_search_ends_when_every_doubling_helps(monkeypatch):
    # an objective that rises on every evaluation never ends the step
    # doubling by itself (a NaN one never did either); the search must
    calls = iter(range(10**4))
    monkeypatch.setattr("pas.diagnostics._kliep_objective",
                        lambda K_src, alphas: float(next(calls)))
    monkeypatch.setattr("pas.diagnostics.MAX_ASCENT_STEPS", 3)
    rng = np.random.default_rng(5)
    model = kliep_fit(rng.normal(size=(20, 2)), rng.normal(size=(20, 2)))
    assert len(model.objective_history) == 4
    assert next(calls) < 4 * 70


def test_kliep_input_validation():
    rng = np.random.default_rng(4)
    with pytest.raises(EmptySelection):
        kliep_fit(np.zeros((0, 2)), rng.normal(size=(5, 2)))
    with pytest.raises(DimensionMismatch):
        kliep_fit(rng.normal(size=(5, 2)), rng.normal(size=(5, 3)))
    with pytest.raises(ConfigError):
        kliep_fit(rng.normal(size=(5, 2)), rng.normal(size=(5, 2)), num_centers=0)
    # "5" once used 5 centers and 2.7 used 2
    for bad in ("5", 2.7, True):
        with pytest.raises(ConfigError):
            kliep_fit(rng.normal(size=(5, 2)), rng.normal(size=(5, 2)),
                      num_centers=bad)
    # -1 once raised numpy's bare ValueError; True and 1.5 are not seeds
    for bad in (-1, True, 1.5):
        with pytest.raises(ConfigError, match="seed"):
            kliep_fit(rng.normal(size=(5, 2)), rng.normal(size=(5, 2)),
                      seed=bad)


def materialised_kernel(X, centers, bandwidth):
    with np.errstate(over="ignore"):
        return np.exp(-cdist(X, centers, "sqeuclidean") / (2.0 * bandwidth ** 2))


def materialised_kliep_fit(X_src, X_tgt, num_centers, bandwidth, seed):
    """kliep_fit as it was before the target kernel was taken in blocks:
    it holds the whole (m, centres) target kernel and takes its column
    means, and builds each kernel through full-size temporaries.  Valid
    inputs only; returns (centers, alphas, bandwidth, history)."""
    perm = np.random.default_rng(seed).permutation(X_tgt.shape[0])
    centers = X_tgt[perm[:min(num_centers, X_tgt.shape[0])]]
    if bandwidth is None:
        bandwidth = float(np.median(pdist(centers)))
    K_src = materialised_kernel(X_src, centers, bandwidth)
    K_tgt = materialised_kernel(X_tgt, centers, bandwidth)
    b = K_tgt.mean(axis=0)

    def objective(a):
        return float(np.log(np.maximum(K_src @ a, LOG_FLOOR)).sum())

    alphas = np.ones(centers.shape[0])
    alphas /= b @ alphas
    obj = objective(alphas)
    history = [obj]
    step = None
    for _ in range(MAX_ASCENT_STEPS):
        grad = K_src.T @ (1.0 / np.maximum(K_src @ alphas, LOG_FLOOR))
        direction = _feasible_ascent_direction(grad, alphas, b)
        gnorm = float(np.linalg.norm(direction))
        if gnorm <= 1e-15:
            break
        if step is None:
            step = float(np.linalg.norm(alphas)) / gnorm

        def evaluate(trial):
            cand = np.maximum(alphas + trial * direction, 0.0)
            scale = b @ cand
            if scale <= 0.0:
                return None, -np.inf
            cand = cand / scale
            return cand, objective(cand)

        trial = step
        cand, cand_obj = evaluate(trial)
        backtracks = 0
        while cand_obj < obj and backtracks < MAX_STEP_SCALINGS:
            trial *= 0.5
            cand, cand_obj = evaluate(trial)
            backtracks += 1
        if cand_obj < obj:
            break
        if backtracks == 0:
            for _ in range(MAX_STEP_SCALINGS):
                bigger, bigger_obj = evaluate(trial * 2.0)
                if bigger_obj <= cand_obj:
                    break
                trial *= 2.0
                cand, cand_obj = bigger, bigger_obj
        improvement = cand_obj - obj
        alphas, obj, step = cand, cand_obj, trial
        history.append(obj)
        if improvement <= ASCENT_TOL * max(1.0, abs(history[-2])):
            break
    return centers, alphas, bandwidth, history


# below, at and one row past a block, and several blocks; one centre
# (whose column numpy sums pairwise), two and many; median and given widths
ORACLE_GRID = [(m, centers, width)
               for m in (2, BLOCK_ROWS - 1, BLOCK_ROWS,
                         BLOCK_ROWS + 1, 3 * BLOCK_ROWS + 5)
               for centers in (1, 2, 100) for width in ("median", "given")
               if (centers, width) != (1, "median")]


@pytest.mark.parametrize("m, num_centers, width", ORACLE_GRID)
@settings(derandomize=True, max_examples=4, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 60), d=st.integers(1, 6),
       bandwidth=st.floats(0.3, 5.0), shift=st.sampled_from([0.0, 0.5, 2.0]))
def test_kliep_blocks_match_materialised_oracle(m, num_centers, width, seed, n,
                                                d, bandwidth, shift):
    # the target kernel taken BLOCK_ROWS rows at a time, and each
    # kernel built in place, give the bits of the materialised fit
    rng = np.random.default_rng(seed)
    X_tgt = rng.normal(size=(m, d))
    X_src = rng.normal(size=(n, d)) + shift
    if width == "median":
        bandwidth = None
    model = kliep_fit(X_src, X_tgt, num_centers=num_centers,
                      bandwidth=bandwidth, seed=seed % 7)
    centers, alphas, bandwidth, history = materialised_kliep_fit(
        X_src, X_tgt, num_centers, bandwidth, seed % 7)
    assert np.array_equal(model.centers, centers)
    assert model.alphas.tobytes() == alphas.tobytes()
    assert model.bandwidth == bandwidth
    assert model.objective_history == history
    assert model.ratio(X_tgt).tobytes() == (
        materialised_kernel(X_tgt, centers, bandwidth) @ alphas).tobytes()


def test_adr_constant_ratio_is_one():
    model = DensityRatioModel(centers=np.zeros((1, 2)), alphas=np.array([1.0]),
                              bandwidth=1e9)
    X = np.random.default_rng(5).normal(size=(20, 2))
    assert adr(model, X, np.arange(20)) == pytest.approx(1.0, abs=1e-12)


def test_ratio_rejects_nonfinite_rows():
    # a NaN row raises instead of giving a NaN ratio
    model = DensityRatioModel(centers=np.zeros((1, 2)), alphas=np.array([1.0]),
                              bandwidth=1.0)
    with pytest.raises(NonFinite):
        model.ratio(np.array([[0.0, 1.0], [np.nan, 0.0]]))
    with pytest.raises(DimensionMismatch):
        model.ratio(np.zeros((2, 3)))
    with pytest.raises(DimensionMismatch):
        model.ratio(np.zeros(2))


def test_adr_single_sample():
    rng = np.random.default_rng(6)
    X_src = rng.normal(size=(50, 2)) + 0.5
    X_tgt = rng.normal(size=(50, 2))
    model = kliep_fit(X_src, X_tgt)
    w = model.ratio(X_tgt)
    assert adr(model, X_tgt, np.array([7])) == pytest.approx(float(w[7]), rel=1e-12)


def test_adr_direct_mean_oracle():
    rng = np.random.default_rng(7)
    X_src = rng.normal(size=(60, 3)) * 1.2
    X_tgt = rng.normal(size=(60, 3))
    model = kliep_fit(X_src, X_tgt)
    idx = np.array([3, 11, 25, 40])
    total = 0.0
    for i in idx:
        total += float(model.ratio(X_tgt[i][None, :])[0])
    assert adr(model, X_tgt, idx) == pytest.approx(total / 4, rel=1e-12)


def test_adr_linearity_over_disjoint_union():
    rng = np.random.default_rng(8)
    X_src = rng.normal(size=(40, 2)) + 1.0
    X_tgt = rng.normal(size=(40, 2))
    model = kliep_fit(X_src, X_tgt)
    a = np.array([0, 1, 2])
    b = np.array([5, 6, 7, 8, 9])
    union = np.concatenate([a, b])
    weighted = (3 * adr(model, X_tgt, a) + 5 * adr(model, X_tgt, b)) / 8
    assert adr(model, X_tgt, union) == pytest.approx(weighted, abs=1e-12)


def test_adr_empty_selection():
    model = DensityRatioModel(centers=np.zeros((1, 2)), alphas=np.array([1.0]),
                              bandwidth=1.0)
    with pytest.raises(EmptySelection):
        adr(model, np.zeros((3, 2)), np.array([], dtype=int))
    with pytest.raises(EmptySelection):
        adr(model, np.zeros((3, 2)), np.array([5]))
    # a boolean mask once selected rows 0 and 1, and [0.7] row 0
    for indices in (np.array([True, True, False]), np.array([0.7]),
                    np.array([1.0]), [0, 2.5]):
        with pytest.raises(EmptySelection, match="indices must be integers"):
            adr(model, np.zeros((3, 2)), indices)
    assert adr(model, np.zeros((3, 2)), [0, 2]) == adr(
        model, np.zeros((3, 2)), np.array([0, 2], dtype=np.uint8))


def fitted_pair(seed=0, **shift_kw):
    shift = dict(rotation=0.2, translation=2.5, noise=1.5)
    shift.update(shift_kw)
    cfg = SynthConfig(num_classes=3, dim=8, per_class=50, shift=Shift(**shift),
                      seed=seed)
    src, tgt = synth_shifted_pair(cfg)
    labels = SourceLabels(labels=src.labels, num_classes=3)
    model, _ = pas.fit_progressive(src.features, labels, tgt.features,
                                   PasConfig(dim=1, schedule_step=0.1))
    ratio = kliep_fit(src.features, tgt.features)
    return model, src, tgt, ratio


def test_report_zero_shift_top_group_perfect():
    model, src, tgt, ratio = fitted_pair(rotation=0.0, translation=0.0, noise=0.0)
    rep = anchoring_report(model, tgt.features, tgt.true_labels, ratio)
    assert rep["top"]["acc"] == 1.0


def test_report_fraction_half_partitions_target():
    model, src, tgt, ratio = fitted_pair(seed=1)
    m = tgt.features.shape[0]
    assert m % 2 == 0
    rep = anchoring_report(model, tgt.features, tgt.true_labels, ratio,
                           fraction=0.5)
    assert rep["group_size"] == m // 2


def test_report_group_structure():
    model, src, tgt, ratio = fitted_pair(seed=2)
    rep = anchoring_report(model, tgt.features, tgt.true_labels, ratio,
                           fraction=0.1)
    assert set(rep) == {"top", "bottom", "fraction", "group_size"}
    for side in ("top", "bottom"):
        assert 0.0 <= rep[side]["acc"] <= 1.0
        assert rep[side]["adr"] >= 0.0


def test_report_computes_distances_once(monkeypatch):
    # the labels are the argmin of the distance matrix the ranking uses
    model, src, tgt, ratio = fitted_pair(seed=6)
    calls = []

    def counted(*args):
        calls.append(args)
        return pas.compute_distances(*args)

    # predict looks compute_distances up in core
    monkeypatch.setattr(pas.core, "compute_distances", counted)
    monkeypatch.setattr(pas.diagnostics, "compute_distances", counted)
    rep = anchoring_report(model, tgt.features, tgt.true_labels, ratio,
                           fraction=0.5)
    assert len(calls) == 1
    # at fraction 0.5 the two groups partition the target
    correct = (pas.predict(model, tgt.features) == tgt.true_labels).sum()
    assert (rep["top"]["acc"] + rep["bottom"]["acc"]) * rep["group_size"] \
        == pytest.approx(correct)


def test_report_too_few_samples():
    model, src, tgt, ratio = fitted_pair(seed=3)
    with pytest.raises(TooFewSamples):
        anchoring_report(model, tgt.features[:5], tgt.true_labels[:5], ratio,
                         fraction=0.1)


def test_report_label_count_must_match_rows():
    # one label per target row: shorter and longer vectors both raise
    model, src, tgt, ratio = fitted_pair(seed=5)
    for truth in (tgt.true_labels[:-1], np.append(tgt.true_labels, 0)):
        with pytest.raises(RangeError):
            anchoring_report(model, tgt.features, truth, ratio)
    with pytest.raises(RangeError, match="label count"):
        anchoring_report(model, tgt.features, tgt.true_labels[:, None], ratio)


def test_report_rejects_fractional_labels():
    # true_labels + 0.5 was once scored as its integer part
    model, src, tgt, ratio = fitted_pair(seed=5)
    with pytest.raises(RangeError, match="must be integers"):
        anchoring_report(model, tgt.features, tgt.true_labels + 0.5, ratio)
    rep = anchoring_report(model, tgt.features, tgt.true_labels + 0.0, ratio)
    assert rep == anchoring_report(model, tgt.features, tgt.true_labels, ratio)


def test_report_fraction_validation():
    model, src, tgt, ratio = fitted_pair(seed=4)
    for bad in (0.0, 0.6, -0.1):
        with pytest.raises(ConfigError):
            anchoring_report(model, tgt.features, tgt.true_labels, ratio,
                             fraction=bad)
    # these once raised a bare TypeError
    for bad in ("0.1", None):
        with pytest.raises(ConfigError):
            anchoring_report(model, tgt.features, tgt.true_labels, ratio,
                             fraction=bad)
