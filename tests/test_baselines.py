import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.spatial.distance import cdist

import pas
from pas import (AnchorState, PasConfig, PasModel, SourceLabels, core, kliep_fit,
                 nn1_classify, pas_c)
from pas.data import LabeledDataset, Shift, SynthConfig, synth_shifted_pair
from pas.errors import DimensionMismatch, EmptySelection, NonFinite, RangeError
from test_properties import nn1_case


def labeled(features, labels):
    labels = np.asarray(labels)
    return LabeledDataset(features=np.asarray(features, float), labels=labels,
                          num_classes=int(labels.max()) + 1)


def test_nn1_exact_match_gets_source_label():
    src = labeled([[0.0, 0.0], [5.0, 5.0]], [0, 1])
    assert nn1_classify(src, np.array([[5.0, 5.0]]))[0] == 1


def test_nn1_single_source_sample():
    # at 1e200 the target's squared norms would overflow float64 unscaled;
    # every tier works on rows scaled into range, without a warning
    src = labeled([[1.0, 2.0]], [0])
    for scale in (1.0, 1e200):
        out = nn1_classify(src, np.random.default_rng(0).normal(size=(6, 2)) * scale)
        assert (out == 0).all()


def test_nn1_matches_pairwise_scan_oracle():
    rng = np.random.default_rng(1)
    X_s = rng.normal(size=(25, 4))
    y_s = rng.integers(0, 3, size=25)
    src = labeled(X_s, y_s)
    X_t = rng.normal(size=(18, 4))
    got = nn1_classify(src, X_t)
    for j in range(18):
        best, best_d = 0, np.inf
        for i in range(25):
            d = float(((X_t[j] - X_s[i]) ** 2).sum())
            if d < best_d:
                best, best_d = i, d
        assert got[j] == y_s[best]


def test_nn1_tie_breaks_to_lowest_source_index():
    src = labeled([[0.0, 1.0], [0.0, -1.0]], [1, 0])
    # equidistant from both source points: index 0 wins, label 1
    assert nn1_classify(src, np.array([[0.0, 0.0]]))[0] == 1


def test_nn1_dimension_mismatch():
    src = labeled([[0.0, 0.0]], [0])
    with pytest.raises(DimensionMismatch):
        nn1_classify(src, np.zeros((2, 3)))
    with pytest.raises(DimensionMismatch):
        nn1_classify(src, np.zeros(2))


def test_nn1_rejects_nonfinite_rows():
    # argmin over NaN distances would pick source row 0; a NaN row must raise
    src = labeled([[0.0, 0.0], [5.0, 5.0]], [0, 1])
    with pytest.raises(NonFinite):
        nn1_classify(src, np.array([[5.0, 5.0], [np.nan, 1.0]]))
    with pytest.raises(NonFinite):
        nn1_classify(labeled([[np.inf, 0.0], [5.0, 5.0]], [0, 1]),
                     np.array([[5.0, 5.0]]))


@pytest.mark.parametrize("chunk", [1, 7, 1024])
def test_nn1_chunks_match_the_full_distance_matrix(monkeypatch, chunk):
    # integer points give many exact ties, some across chunk boundaries;
    # one label per source row, so labels are the nearest indices, and a
    # seed per case, so no freed buffer holds this case's answer
    rng = np.random.default_rng(chunk)
    X_s = rng.integers(-2, 3, size=(40, 3)).astype(float)
    src = labeled(X_s, np.arange(40))
    X_t = rng.integers(-2, 3, size=(50, 3)).astype(float)
    monkeypatch.setattr(pas.baselines, "NN1_CHUNK_ROWS", chunk)
    got = nn1_classify(src, X_t)
    assert np.array_equal(got, np.argmin(cdist(X_t, X_s), axis=1))
    assert nn1_classify(src, X_t[:0]).shape == (0,)


def test_nn1_empty_source_raises():
    src = LabeledDataset(features=np.zeros((0, 3)), labels=np.zeros(0, int),
                         num_classes=1)
    with pytest.raises(EmptySelection):
        nn1_classify(src, np.zeros((2, 3)))


def test_nn1_label_count_must_match_source_rows():
    # fewer and more labels than source rows both raise
    X_s = np.arange(10.0).reshape(5, 2)
    for rows, count in ((5, 3), (2, 5)):
        src = LabeledDataset(features=X_s[:rows], labels=np.arange(count),
                             num_classes=count)
        with pytest.raises(RangeError):
            nn1_classify(src, np.zeros((2, 2)))
    # a (n, 1) column once passed and gave (m, 1) labels
    src = LabeledDataset(features=X_s, labels=np.zeros((5, 1), dtype=int),
                         num_classes=1)
    with pytest.raises(RangeError, match="label count"):
        nn1_classify(src, np.zeros((2, 2)))


def test_nn1_near_ties_take_the_cdist_recheck(monkeypatch):
    # source rows duplicated up to 1e-9 and targets within 1e-9 of them,
    # 1e3 from the origin: the GEMM scores of a row's two nearest source
    # rows differ by less than their rounding, so only cdist can order them
    rng = np.random.default_rng(0)
    X_s = rng.normal(size=(30, 64)) + 1e3
    X_s = np.vstack([X_s, X_s + rng.normal(size=X_s.shape) * 1e-9])
    X_t = X_s[rng.integers(0, 60, size=40)] + rng.normal(size=(40, 64)) * 1e-9
    rechecked = []

    def counting_cdist(XA, XB):
        rechecked.append(XA.shape[0])
        return cdist(XA, XB)

    monkeypatch.setattr(pas.baselines, "cdist", counting_cdist)
    got = nn1_classify(labeled(X_s, np.arange(60)), X_t)
    assert np.array_equal(got, np.argmin(cdist(X_t, X_s), axis=1))
    assert sum(rechecked) > 0


def test_nn1_tiers_reached(monkeypatch):
    # rows scored at each precision, counted where nn1_classify hands them
    # to the block-scoring routine, and rows rechecked with cdist
    score_blocks, scored, rechecked = pas.baselines._score_blocks, {}, []

    def counting_blocks(dtype, rows, *args):
        scored[np.dtype(dtype).name] = rows.size
        return score_blocks(dtype, rows, *args)

    def counting_cdist(XA, XB):
        rechecked.append(XA.shape[0])
        return cdist(XA, XB)

    monkeypatch.setattr(pas.baselines, "_score_blocks", counting_blocks)
    monkeypatch.setattr(pas.baselines, "cdist", counting_cdist)
    # far targets: most rows reach float64, and some need cdist
    X_s, X_t = nn1_case(0, "far", n=60, m=40, d=16)
    got = nn1_classify(labeled(X_s, np.arange(X_s.shape[0])), X_t)
    assert np.array_equal(got, np.argmin(cdist(X_t, X_s), axis=1))
    assert scored["float32"] == X_t.shape[0]
    assert scored["float64"] > X_t.shape[0] // 2 and sum(rechecked) > 0
    # serve-shaped inputs: under 1% of rows pass on to float64
    scored.clear()
    cfg = SynthConfig(num_classes=10, dim=64, per_class=1000,
                      shift=Shift(rotation=0.2, translation=2.5, noise=1.5), seed=0)
    src, tgt = synth_shifted_pair(cfg)
    nn1_classify(src, tgt.features)
    assert scored["float64"] < 0.01 * tgt.features.shape[0]


def test_nn1_source_mean_does_not_overflow():
    # the rows' sum overflows float64 where their mean does not; the labels
    # are those of the contract, cdist on both inputs scaled by 2^k_raw
    X_s = np.array([[1.5e308, i * 1e307] for i in range(4)])
    X_t = np.array([[1.5e308, 1.2e307], [1.5e308, 2.7e307], [1.4e308, -3e307]])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = nn1_classify(labeled(X_s, np.arange(4)), X_t)
    assert not caught
    k_raw = -int(np.frexp(1.5e308)[1])
    want = np.argmin(cdist(np.ldexp(X_t, k_raw), np.ldexp(X_s, k_raw)), axis=1)
    assert np.array_equal(got, want) and want.tolist() == [1, 3, 0]


def test_nn1_centring_overflow_goes_to_cdist():
    # mu - lo overflows on the raw rows, where cdist once decided every row;
    # every tier now works on both inputs scaled by 2^k_raw, and the label
    # is still that of cdist on them, with no warning
    X_s, X_t = np.array([[1.5e308], [1e308]]), np.array([[-1.5e308]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = nn1_classify(labeled(X_s, [0, 1]), X_t)
    k_raw = -int(np.frexp(1.5e308)[1])
    want = np.argmin(cdist(np.ldexp(X_t, k_raw), np.ldexp(X_s, k_raw)), axis=1)
    assert got.tolist() == want.tolist() == [1]


def test_nn1_scores_near_max_rows_without_recheck(monkeypatch):
    # centring the raw rows would overflow; on the 2^k_raw-scaled rows they
    # are scored like any others, and no row is near a tie
    calls = []

    def counting_cdist(XA, XB):
        calls.append(XA.shape[0])
        return cdist(XA, XB)

    monkeypatch.setattr(pas.baselines, "cdist", counting_cdist)
    X_s = np.array([[1.5e308], [1e308], [-1.5e308]])
    X_t = np.array([[1.4e308], [-1.4e308]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = nn1_classify(labeled(X_s, [0, 1, 2]), X_t)
    k_raw = -int(np.frexp(1.5e308)[1])
    want = np.argmin(cdist(np.ldexp(X_t, k_raw), np.ldexp(X_s, k_raw)), axis=1)
    assert got.tolist() == want.tolist() == [0, 2]
    assert calls == []


def traced_peak(call):
    """Bytes call() allocates at its peak, as tracemalloc sees numpy's."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("translation", [0.0, 1e9])
def test_nn1_memory_is_one_float64_block(translation):
    # targets 1e9 away send every row to the float64 tier, whose block
    # buffer is allocated only after the float32 one is freed
    m = n = 4096
    d = 64
    rng = np.random.default_rng(1)
    src = labeled(rng.normal(size=(n, d)), np.arange(n) % 10)
    X_t = rng.normal(size=(m, d)) + translation * rng.normal(size=d)
    block = pas.baselines.NN1_CHUNK_ROWS * n * 8
    assert traced_peak(lambda: nn1_classify(src, X_t)) <= block + 4 * n * d * 8


@pytest.mark.parametrize("n", [10_000, 40_000])
def test_nn1_memory_is_the_source_and_one_tile(n):
    # the scaled source, one float64 tile, a block of target rows and one
    # tile of source rows cast to the pass's precision: the same bound at
    # both n (24.1 and 39.7 MB), which a float32 copy of the whole source
    # exceeds at n = 40,000, and one 1,024 x n block of float32 scores
    # (41 MB) at n = 10,000
    m, d = 2048, 64
    rng = np.random.default_rng(7)
    src = labeled(rng.normal(size=(n, d)), np.arange(n) % 10)
    X_t = rng.normal(size=(m, d)) + 0.3
    chunk, tile = pas.baselines.NN1_CHUNK_ROWS, pas.baselines.NN1_TILE_COLS
    bound = (n + tile) * (d + 1) * 8 + chunk * (tile + 2 * d + 1) * 8
    assert traced_peak(lambda: nn1_classify(src, X_t)) <= bound


def test_predict_memory_is_linear_in_rows():
    # predict holds the centred rows and a few (m, K + R) products, R the
    # basis columns of all classes, never an (m, K, d) or (m, n) array
    m = n = 4096
    d, K = 64, 10
    rng = np.random.default_rng(2)
    labels = SourceLabels(labels=np.arange(n) % K, num_classes=K)
    model = pas.fit_class_subspaces(rng.normal(size=(n, d)), labels,
                                    config=PasConfig(dim=2))
    X_t = rng.normal(size=(m, d))
    R = sum(S.effective_dim for S in model.subspaces)
    peak = traced_peak(lambda: pas.predict(model, X_t))
    assert peak <= 6 * m * (K + R) * 8 + m * d * 8


def test_anchoring_report_memory_is_linear_in_rows():
    # the report holds predict's distances and the ratio of one group of
    # rows against the centres, never an (m, m) or (m, n) array
    m = n = 4096
    d, K = 64, 10
    rng = np.random.default_rng(6)
    labels = SourceLabels(labels=np.arange(n) % K, num_classes=K)
    model = pas.fit_class_subspaces(rng.normal(size=(n, d)), labels,
                                    config=PasConfig(dim=2))
    X_t = rng.normal(size=(m, d)) + 0.5
    ratio_model = kliep_fit(rng.normal(size=(n, d)), X_t, num_centers=100)
    truth = rng.integers(0, K, size=m)
    R = sum(S.effective_dim for S in model.subspaces)
    peak = traced_peak(lambda: pas.anchoring_report(model, X_t, truth, ratio_model))
    assert peak <= 6 * m * (K + R) * 8 + m * d * 8


def test_compute_distances_with_memo_memory_is_linear_in_rows():
    # with the solver's refit memo the centred rows are already held, so a
    # call holds a few (m, K + R) products, first for every class and then
    # for the refitted ones, written into the memo's matrix in place
    m = n = 4096
    d, K = 64, 10
    rng = np.random.default_rng(4)
    labels = SourceLabels(labels=np.arange(n) % K, num_classes=K)
    refits = core._ClassRefits(rng.normal(size=(n, d)), labels,
                               rng.normal(size=(m, d)) + 0.5)
    model = PasModel(subspaces=refits.refit(None, 2), config=PasConfig(dim=2))
    R = sum(S.effective_dim for S in model.subspaces)
    bound = 6 * m * (K + R) * 8 + m * d * 8
    peak = traced_peak(lambda: setattr(refits, "dists", core.compute_distances(
        model, refits.X_t, _memo=refits)))
    assert peak <= bound
    assigned = refits.dists.argmin(axis=1)
    state = AnchorState(assigned, (assigned < K // 2).astype(np.int64), 1.0,
                        refits.dists[np.arange(m), assigned], K)
    model = PasModel(subspaces=refits.refit(state, 2), config=PasConfig(dim=2))
    assert refits.refitted
    peak = traced_peak(lambda: core.compute_distances(model, refits.X_t, _memo=refits))
    assert peak <= bound


@pytest.mark.parametrize("centers", [50, 200])
def test_kliep_memory_is_linear_in_rows_and_centers(centers):
    # kliep_fit holds the (n, centers) source kernel and one
    # KLIEP_BLOCK_ROWS-row block of the target kernel, never an (m, centers)
    # or (m, n) one: the same bound at m = n and m = 4n, plus (n,) vectors
    # of the ascent and the centres with their pairwise distances
    n, d = 4096, 64
    block = pas.diagnostics.KLIEP_BLOCK_ROWS
    bound = (n + block) * centers * 8 + (8 * n + centers * (d + centers)) * 8
    for m in (n, 4 * n):
        rng = np.random.default_rng(5)
        X_s, X_t = rng.normal(size=(n, d)), rng.normal(size=(m, d)) + 0.5
        peak = traced_peak(lambda: kliep_fit(X_s, X_t, num_centers=centers))
        assert peak <= bound, m


def test_fit_progressive_memory_is_linear_in_rows():
    # a fit holds (rows, d) and (m, K) arrays and each class's d x d source
    # moments, never an (m, n) one: doubling m and n together about doubles
    # its peak, where an (m, n) array would quadruple it
    d, K = 64, 4
    peaks = []
    for per_class in (512, 1024):
        source, target = synth_shifted_pair(SynthConfig(
            num_classes=K, dim=d, per_class=per_class,
            shift=Shift(rotation=0.2, translation=2.5, noise=1.5), seed=3))
        labels = SourceLabels(labels=source.labels, num_classes=K)
        peaks.append(traced_peak(lambda: pas.fit_progressive(
            source.features, labels, target.features,
            PasConfig(dim=2, schedule_step=0.25))))
        rows = source.features.shape[0] + target.features.shape[0]
        assert peaks[-1] <= 2 * rows * d * 8
    assert peaks[1] <= 2.5 * peaks[0]


def test_pas_c_equals_source_only_fit():
    cfg = SynthConfig(num_classes=3, dim=6, per_class=20,
                      shift=Shift(rotation=0.4, translation=1.0, noise=0.5), seed=3)
    src, tgt = synth_shifted_pair(cfg)
    model = pas_c(src, dim=1)
    labels = SourceLabels(labels=src.labels, num_classes=3)
    direct = pas.fit_class_subspaces(src.features, labels, config=PasConfig(dim=1))
    for S, T in zip(model.subspaces, direct.subspaces):
        assert (S.mean == T.mean).all()
        assert (S.basis == T.basis).all()
        assert (S.spectrum == T.spectrum).all()


def test_pas_c_keeps_source_label_values():
    # a saved pas_c model once made pas predict write class indices
    src = labeled([[0.0, 0.0], [0.1, 0.0], [5.0, 5.0], [5.1, 5.0]], [0, 0, 1, 1])
    assert pas_c(src).label_values.tolist() == [0, 1]
    src.label_values = np.array([5, 7])
    model = pas_c(src)
    assert model.label_values.tolist() == [5, 7]
    assert model.label_values[pas.predict(model, [[5.0, 5.0]])].tolist() == [7]


def test_pas_c_matches_progressive_stage_zero():
    # stage-0 pseudo accuracy recorded by the progressive fit equals the
    # accuracy of the source-only model's predictions, on every seed
    for seed in range(5):
        cfg = SynthConfig(num_classes=3, dim=6, per_class=20,
                          shift=Shift(rotation=0.5, translation=1.5, noise=0.8),
                          seed=seed)
        src, tgt = synth_shifted_pair(cfg)
        labels = SourceLabels(labels=src.labels, num_classes=3)
        _, trace = pas.fit_progressive(src.features, labels, tgt.features,
                                       PasConfig(dim=1, schedule_step=0.5),
                                       eval_labels=tgt.true_labels)
        model_c = pas_c(src, dim=1)
        acc = float(np.mean(pas.predict(model_c, tgt.features) == tgt.true_labels))
        assert trace[0].pseudo_accuracy == acc


def test_pas_c_perfect_on_separable_zero_shift():
    cfg = SynthConfig(num_classes=3, dim=6, per_class=25,
                      shift=Shift(rotation=0.0, translation=0.0, noise=0.0), seed=4)
    src, tgt = synth_shifted_pair(cfg)
    model = pas_c(src, dim=1)
    assert (pas.predict(model, tgt.features) == tgt.true_labels).all()


def test_pas_c_single_class():
    src = labeled(np.random.default_rng(5).normal(size=(10, 3)), np.zeros(10, int))
    model = pas_c(src, dim=1)
    assert (pas.predict(model, np.random.default_rng(6).normal(size=(4, 3))) == 0).all()
