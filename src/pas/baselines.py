"""Reference classifiers: 1-nearest-neighbor and the source-only subspace model."""

import numpy as np
from scipy.spatial.distance import cdist

from .core import PasConfig, PasModel, SourceLabels, fit_class_subspaces
from .errors import EmptySelection, check_labels, check_matrix

# target rows per distance block: memory stays at NN1_CHUNK_ROWS x n
# scores instead of m x n distances
NN1_CHUNK_ROWS = 1024

# Rounding bound on the GEMM scores, as a multiple of d * eps * R^2, where
# R = ||t - mu|| + max_i ||s_i - mu|| bounds every distance from t and
# eps = 2u.  Three errors can reorder two source rows, each to first order:
#   * the expansion ||s||^2 - 2t's: the dot product and the squared norm
#     together lose at most d * u * R^2, whatever the BLAS summation order,
#     and the final addition u * R^2; on both entries (d + 1) * eps * R^2;
#   * centring: fl(t - mu) and fl(s - mu) move each side by at most u times
#     its norm, so each squared distance by 2 * u * R^2; on both, 2 * eps * R^2;
#   * cdist's own rounding: its sum of d squared differences is off by at
#     most (d + 2) * u relative, and its sqrt must still separate the two
#     sums, which takes a further 4 * u; on both, (d + 4) * eps * R^2.
# Together under 2 * (d + 4) * eps * R^2; four times that leaves room for
# the second-order terms and the rounding of R itself.  A row whose
# runner-up score lies within NN1_TIE_REL * (d + 4) * eps * R^2 of its best
# is decided by cdist over every source row within that bound of the best;
# a row outside it has a cdist distance strictly above the best's.
NN1_TIE_REL = 8.0


def nn1_classify(source, X_t):
    """Label each target row with the label of its Euclidean-nearest source row.

    The nearest indices equal argmin(cdist(X_t, X_s), axis=1), ties to the
    lowest source index, at any BLAS thread count.  Each block of
    NN1_CHUNK_ROWS target rows scores every source row by
    ||s - mu||^2 - 2 (t - mu)'(s - mu), mu the source mean, with one GEMM
    into a block buffer allocated once, so memory stays at one
    NN1_CHUNK_ROWS x n block.  A row whose runner-up score is within the
    rounding bound of NN1_TIE_REL of its best is rechecked with cdist
    against every source row within that bound.  An empty source raises
    EmptySelection, and a label count other than one per source row
    RangeError.
    """
    X_s = check_matrix(source.features, "source features")
    X_t = check_matrix(X_t, "target features", width=X_s.shape[1])
    n, d = X_s.shape
    if n == 0:
        raise EmptySelection("1NN needs at least one source row")
    labels = check_labels(source.labels, n, "source")
    m = X_t.shape[0]
    mu = X_s.sum(axis=0) / n
    S = X_s - mu
    s_sq = np.einsum("ij,ij->i", S, S)
    s_norm_max = np.sqrt(s_sq.max())
    tie_scale = NN1_TIE_REL * (d + 4) * np.finfo(float).eps
    nearest = np.empty(m, dtype=np.intp)
    scores = np.empty((min(NN1_CHUNK_ROWS, m), n))
    for start in range(0, m, NN1_CHUNK_ROWS):
        T = X_t[start:start + NN1_CHUNK_ROWS] - mu
        b = T.shape[0]
        score = scores[:b]
        # scaling by -2 is exact, so the product is -2 t's as computed
        np.matmul(-2.0 * T, S.T, out=score)
        score += s_sq
        rows = np.arange(b)
        best = np.argmin(score, axis=1)
        best_score = score[rows, best]
        score[rows, best] = np.inf
        runner_up = score.min(axis=1)
        score[rows, best] = best_score
        tau = tie_scale * (np.sqrt(np.einsum("ij,ij->i", T, T)) + s_norm_max) ** 2
        # written as "not beyond" so that a NaN from overflow is rechecked
        for j in np.flatnonzero(~(runner_up - best_score > tau)):
            cand = np.flatnonzero(~(score[j] > best_score[j] + tau[j]))
            dist = cdist(X_t[start + j:start + j + 1], X_s[cand])[0]
            best[j] = cand[np.argmin(dist)]
        nearest[start:start + b] = best
    return labels[nearest]


def pas_c(source, dim=1):
    """Source-only per-class subspace model (no target refinement).

    Identical to the stage-0 initialization of the progressive fit; the
    model keeps source.label_values (the identity when None).
    """
    config = PasConfig(dim=dim)
    labels = SourceLabels(labels=source.labels, num_classes=source.num_classes)
    model = fit_class_subspaces(source.features, labels, config=config)
    return PasModel(model.subspaces, config, source.label_values)
