"""Reference classifiers: 1-nearest-neighbor and the source-only subspace model."""

import numpy as np
from scipy.spatial.distance import cdist

from .core import PasConfig, PasModel, SourceLabels, fit_class_subspaces
from .errors import EmptySelection, check_labels, check_matrix

# target rows per score block: memory stays at NN1_CHUNK_ROWS x n scores
# instead of m x n distances
NN1_CHUNK_ROWS = 1024

# Tie bound on the scores ||s||^2 - 2t's of the centred rows, as a multiple
# of (d + 4) * eps * R^2 in the precision the scores are computed in, where
# R = ||t - mu|| + max_i ||s_i - mu|| bounds every distance from t and
# eps = 2u.  A row whose runner-up score lies beyond the bound of its best
# has a cdist distance to the best strictly below every other's.
#
# float64 scores.  Three errors can reorder two source rows, each to first
# order:
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
# is decided by cdist over every source row within that bound of the best.
#
# float32 scores (the screen).  The centred float64 rows are scaled by a
# power of two 2^k, exact in float64, that puts the largest R in
# [2^59, 2^60), so no score, product or partial sum reaches 2^121 and
# nothing overflows.  One sgemm of [-2t', 1] against [s', ||s'||^2] gives
# the score, where t' = 2^k (t - mu), s' = 2^k (s - mu) and R' = 2^k R.
# With u = 2^-24 and a = 2^-126 (the smallest normal float32, the most a
# subnormal flush can lose), each score is off by at most
#   * the cast of both operands and of ||s'||^2, u relative on each, so
#     u * (4||t'|| ||s'|| + ||s'||^2) <= 2u * R'^2, plus
#     a * (sqrt(d) * (2||t'|| + ||s'||) + 1) <= 2 sqrt(d) * a * R' + a;
#   * the sgemm's rounding of its d + 1 terms, (d + 1) * u times
#     2||t'|| ||s'|| + ||s'||^2 <= R'^2 in any summation order, plus
#     2(d + 1) * a for flushed products and partial sums.
# On both entries that is (d + 3) * eps * R'^2 plus
# 4 sqrt(d) * a * R' + (4d + 6) * a <= 8(d + 1) * a * (R' + 1).  The float64
# terms above (centring and cdist) and the float64 rounding of ||s||^2 add
# under 2^-28 of (d + 4) * eps * R'^2, so NN1_TIE_REL times
# (d + 4) * eps * R'^2 + (d + 1) * a * (R' + 1) covers the float32 scores
# with room to spare.  A row whose runner-up lies beyond that bound keeps
# its float32 best; the others are rescored in float64.
NN1_TIE_REL = 8.0


def _best_two(score):
    """Each row's lowest-scoring index (ties to the lowest), its score and
    the runner-up score, both as float64; score is left as it was."""
    rows = np.arange(score.shape[0])
    best = np.argmin(score, axis=1)
    best_score = score[rows, best]
    score[rows, best] = np.inf
    runner_up = score.min(axis=1)
    score[rows, best] = best_score
    return best, best_score.astype(float), runner_up.astype(float)


def _screen(X_t, mu, k0, S, s_sq, R, nearest):
    """Tier 1: float32 scores of every target row, one block at a time, from
    the source rows S and bounds R already scaled by 2^k0.

    Sets nearest to each row's float32 best and returns, in increasing
    order, the rows whose runner-up lies within the float32 tie bound."""
    n, d = S.shape
    m = X_t.shape[0]
    if not np.isfinite(R.max()):
        # centring overflowed float64: no scale fits, all go on
        return np.arange(m)
    eps, tiny = float(np.finfo(np.float32).eps), float(np.finfo(np.float32).tiny)
    k = 60 - int(np.frexp(R.max())[1])
    S1 = np.empty((n, d + 1), dtype=np.float32)
    S1[:, :d] = np.ldexp(S, k)
    S1[:, d] = np.ldexp(s_sq, 2 * k)
    T1 = np.ones((min(NN1_CHUNK_ROWS, m), d + 1), dtype=np.float32)
    scores = np.empty((T1.shape[0], n), dtype=np.float32)
    undecided = []
    for start in range(0, m, NN1_CHUNK_ROWS):
        rows = slice(start, start + NN1_CHUNK_ROWS)
        b = min(NN1_CHUNK_ROWS, m - start)
        T1[:b, :d] = np.ldexp(mu - X_t[rows], k0 + k + 1)
        np.matmul(T1[:b], S1.T, out=scores[:b])
        best, best_score, runner_up = _best_two(scores[:b])
        Rk = np.ldexp(R[rows], k)
        tau = NN1_TIE_REL * ((d + 4) * eps * Rk ** 2 + (d + 1) * tiny * (Rk + 1.0))
        nearest[rows] = best
        undecided.append(start + np.flatnonzero(~(runner_up - best_score > tau)))
    return np.concatenate(undecided)


def nn1_classify(source, X_t):
    """Label each target row with the label of its Euclidean-nearest source row.

    The nearest indices equal argmin(cdist(X_t, X_s), axis=1), ties to the
    lowest source index, at any BLAS thread count, on the rows scaled by
    the power of two that puts their largest magnitude in [0.5, 1): that is
    cdist itself wherever its squares neither underflow nor overflow, and
    scaling both inputs by a power of two leaves the labels as they are.
    Every source row is scored by ||s - mu||^2 - 2 (t - mu)'(s - mu), mu
    the source mean, on centred rows scaled likewise, in three tiers, each
    exact:

    1. each block of NN1_CHUNK_ROWS target rows is scored by one float32
       GEMM, on rows scaled by a power of two into float32 range, into a
       block buffer allocated once; a row whose runner-up lies beyond the
       float32 tie bound of NN1_TIE_REL keeps its best;
    2. the other rows are rescored together, NN1_CHUNK_ROWS at a time, by
       one float64 GEMM each, with the float64 tie bound;
    3. a row still within that bound is rechecked with cdist against every
       source row within the bound of its best.

    The two buffers are not held at once, so memory stays at one
    NN1_CHUNK_ROWS x n float64 block.  An empty source raises
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
    nearest = np.empty(m, dtype=np.intp)
    if m == 0:
        return labels[nearest]
    mu = X_s.sum(axis=0) / n
    # the float64 tier works on centred rows scaled by 2^k, exact, that puts
    # their largest entry in [0.5, 1), so no square under- or overflows; the
    # recheck scales the raw rows the same way by 2^k_raw.  fl(x - mu) is
    # monotone in x, so the column extremes give the largest centred entry.
    hi = np.maximum(X_s.max(axis=0), X_t.max(axis=0))
    lo = np.minimum(X_s.min(axis=0), X_t.min(axis=0))
    k = -int(np.frexp(max((hi - mu).max(), (mu - lo).max()))[1])
    k_raw = -int(np.frexp(max(hi.max(), -lo.min()))[1])
    S = X_s - mu
    np.ldexp(S, k, out=S)
    s_sq = np.einsum("ij,ij->i", S, S)
    s_norm_max = np.sqrt(s_sq.max())
    # R bounds every distance from t (NN1_TIE_REL); its largest value sets
    # the screen's scale, so it is taken before any row is scored
    R = np.empty(m)
    for start in range(0, m, NN1_CHUNK_ROWS):
        T = np.ldexp(X_t[start:start + NN1_CHUNK_ROWS] - mu, k)
        R[start:start + T.shape[0]] = np.sqrt(np.einsum("ij,ij->i", T, T)) + s_norm_max
    undecided = _screen(X_t, mu, k, S, s_sq, R, nearest)
    tie_scale = NN1_TIE_REL * (d + 4) * np.finfo(float).eps
    scores = np.empty((min(NN1_CHUNK_ROWS, undecided.size), n))
    for start in range(0, undecided.size, NN1_CHUNK_ROWS):
        rows = undecided[start:start + NN1_CHUNK_ROWS]
        score = scores[:rows.size]
        # mu - t = -(t - mu) and the scaling by 2^(k + 1) are exact, so
        # the product is -2 t's as computed
        np.matmul(np.ldexp(mu - X_t[rows], k + 1), S.T, out=score)
        score += s_sq
        best, best_score, runner_up = _best_two(score)
        tau = tie_scale * R[rows] ** 2
        # written as "not beyond" so that a NaN from overflow is rechecked
        for j in np.flatnonzero(~(runner_up - best_score > tau)):
            cand = np.flatnonzero(~(score[j] > best_score[j] + tau[j]))
            dist = cdist(np.ldexp(X_t[rows[j]:rows[j] + 1], k_raw),
                         np.ldexp(X_s[cand], k_raw))[0]
            best[j] = cand[np.argmin(dist)]
        nearest[rows] = best
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
