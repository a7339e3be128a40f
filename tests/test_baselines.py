import numpy as np
import pytest
from scipy.spatial.distance import cdist

import pas
from pas import PasConfig, SourceLabels, nn1_classify, pas_c
from pas.data import LabeledDataset, Shift, SynthConfig, synth_shifted_pair
from pas.errors import DimensionMismatch, EmptySelection, NonFinite, RangeError


def labeled(features, labels):
    labels = np.asarray(labels)
    return LabeledDataset(features=np.asarray(features, float), labels=labels,
                          num_classes=int(labels.max()) + 1)


def test_nn1_exact_match_gets_source_label():
    src = labeled([[0.0, 0.0], [5.0, 5.0]], [0, 1])
    assert nn1_classify(src, np.array([[5.0, 5.0]]))[0] == 1


def test_nn1_single_source_sample():
    src = labeled([[1.0, 2.0]], [0])
    out = nn1_classify(src, np.random.default_rng(0).normal(size=(6, 2)))
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
