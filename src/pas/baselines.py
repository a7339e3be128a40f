"""Reference classifiers: 1-nearest-neighbor and the source-only subspace model."""

import numpy as np

from .core import PasConfig, PasModel, SourceLabels, fit_class_subspaces
from .data import BLOCK_ROWS
from .errors import EmptySelection, check_labels, check_matrix

# source rows per tile: with BLOCK_ROWS target rows per score block, memory
# stays at one BLOCK_ROWS x NN1_TILE_COLS tile of scores instead of m x n
# distances.  On 10,000 target rows at d = 64, 2,048 columns took the time
# of 4,096 with half the tile, and less than 512, 1,024 or one 1,024 x n
# block (BENCH_nn1_tiles.json)
NN1_TILE_COLS = 2048

# Tie bound on the scores ||s'||^2 - 2t''s', where t' = 2^k (2^k_raw t - mu)
# and s' = 2^k (2^k_raw s - mu): the recheck's rows, scaled by 2^k_raw
# (nn1_classify), centred on mu, the mean of the scaled source rows, and
# scaled by 2^k, exact in float64.  R' = ||t'|| + max_i ||s'_i|| bounds
# every distance from t'.  With span the largest centred entry of each
# column over the scaled targets and source, 2||span|| bounds every R, and
# 2^k puts it in [2^59, 2^60), so R' stays below 2^60 (to the rounding of
# the norm) and no score, product or partial sum reaches 2^121: nothing
# overflows float32.  GEMMs of [-2t', 1] against tiles of [s', ||s'||^2]
# give the scores in the precision of the call, with eps = 2u and a its
# smallest normal.  A row whose runner-up score lies beyond
#     NN1_TIE_REL * ((d + 4) * eps * R'^2 + (d + 1) * a * (R' + 1))
# of its best has a cdist distance to the best strictly below every
# other's.  Each score is off, to first order, by at most
#   * the cast of both operands and of ||s'||^2 (float32 only), u relative
#     on each, so u * (4||t'|| ||s'|| + ||s'||^2) <= 2u * R'^2, plus
#     a * (sqrt(d) * (2||t'|| + ||s'||) + 1) for entries flushed below a;
#   * the GEMM's rounding of its d + 1 terms, (d + 1) * u times
#     2||t'|| ||s'|| + ||s'||^2 <= R'^2 in any summation order, plus
#     2(d + 1) * a for subnormal products and partial sums;
# and, with u64 = 2^-53 whatever the precision of the call,
#   * the float64 rounding of ||s'||^2, d * u64 * R'^2;
#   * centring: fl(2^k_raw t - mu) and fl(2^k_raw s - mu) move each side by
#     at most u64 times its norm, so each squared distance by 2 * u64 * R'^2;
# while cdist's own rounding on the scaled rows, (d + 2) * u64 relative on
# its sum of d squared differences and a further 4 * u64 for its sqrt to
# still separate two sums, takes (d + 4) * eps64 * R'^2 of a pair.  On a
# pair the float64 call is then off by (3d + 7) * eps * R'^2 + 4(d + 1) * a,
# and the float32 call by (d + 3) * eps * R'^2, under 2^-28 of
# (d + 4) * eps * R'^2 for the float64 terms, and
# 4 sqrt(d) * a * R' + (4d + 6) * a: both under 6 times the bracket above,
# so NN1_TIE_REL leaves room for the second-order terms and the rounding of
# R' itself.  Each term bounds one score on its own, in any summation
# order, so the bound also holds when the best and another score come from
# different BLAS calls: two tiles' GEMMs, or a GEMM and the recheck's
# product of one row against every source row.
NN1_TIE_REL = 8.0


def cdist(XA, XB):
    """scipy's Euclidean cdist, imported on first call, so that importing
    pas loads no scipy.spatial: 1NN needs it only for near ties."""
    from scipy.spatial.distance import cdist as scipy_cdist

    return scipy_cdist(XA, XB)


def _score_blocks(dtype, rows, X_t, k_raw, mu, k, S1):
    """Score the target rows X_t[rows] in dtype against S1 = [s', ||s'||^2]
    at the scales 2^k_raw and 2^k (NN1_TIE_REL), each tile of NN1_TILE_COLS
    source rows cast once and scored BLOCK_ROWS target rows at a time.

    Returns each row's best index, whether its runner-up lies within the
    tie bound, the operand T = [-2t', 1] of the rows in dtype, and each
    row's best score plus its bound."""
    m, n, d = rows.size, S1.shape[0], S1.shape[1] - 1
    eps, tiny = float(np.finfo(dtype).eps), float(np.finfo(dtype).tiny)
    T = np.ones((m, d + 1), dtype=dtype)
    t_norm = np.empty(m)
    for start in range(0, m, BLOCK_ROWS):
        block = slice(start, start + BLOCK_ROWS)
        # t scaled by 2^k_raw is the recheck's row; mu - t and the scaling by
        # 2^(k + 1) are exact, so the product adds -2t''s' to ||s'||^2 as cast
        t = np.ldexp(X_t[rows[block]], k_raw)
        T[block, :d] = np.ldexp(np.subtract(mu, t, out=t), k + 1, out=t)
        # ||t'||, with t = -2t'
        t_norm[block] = 0.5 * np.sqrt(np.einsum("ij,ij->i", t, t))
    best = np.zeros(m, dtype=np.intp)
    best_score, runner_up = np.full(m, np.inf), np.full(m, np.inf)
    S = np.empty((min(NN1_TILE_COLS, n), d + 1), dtype=dtype)
    tile = np.empty(min(BLOCK_ROWS, m) * S.shape[0], dtype=dtype)
    # a pass over no rows casts no tile
    for j in range(0, n if m else 0, NN1_TILE_COLS):
        width = min(NN1_TILE_COLS, n - j)
        S[:width] = S1[j:j + width]
        for start in range(0, m, BLOCK_ROWS):
            block = slice(start, start + BLOCK_ROWS)
            top, low, second = best[block], best_score[block], runner_up[block]
            # contiguous at any width: into a strided view, matmul would
            # compute a temporary and copy it
            score = tile[:low.size * width].reshape(low.size, width)
            np.matmul(T[block], S[:width].T, out=score)
            # each row's lowest score (ties to the lowest index), then the
            # lowest once that one is masked, both as float64
            i, at = np.argmin(score, axis=1), np.arange(low.size)
            s = score[at, i].astype(float)
            score[at, i] = np.inf
            r = score.min(axis=1).astype(float)
            # a tile's best wins only on a strictly lower score, so ties go
            # to the lowest index; the runner-up takes the lower of the two
            # bests and both runners-up, so a NaN anywhere reaches it
            won = s < low
            np.minimum(second, r, out=second)
            np.minimum(second, np.where(won, low, s), out=second)
            top[won] = i[won] + j
            low[won] = s[won]
    # R' = ||t'|| + max ||s'||
    R = t_norm + np.sqrt(S1[:, d].max())
    tau = NN1_TIE_REL * ((d + 4) * eps * R ** 2 + (d + 1) * tiny * (R + 1.0))
    # written as "not beyond" so that a NaN is never taken as decided
    return best, ~(runner_up - best_score > tau), T, best_score + tau


def nn1_classify(source, X_t):
    """Label each target row with the label of its Euclidean-nearest source row.

    The nearest indices equal argmin(cdist(X_t, X_s), axis=1), ties to the
    lowest source index, at any BLAS thread count, on the rows scaled by
    the power of two that puts their largest magnitude in [0.5, 1): that is
    cdist itself wherever its squares neither underflow nor overflow, and
    scaling both inputs by a power of two leaves the labels as they are.
    Every tier works on those scaled rows: every source row is scored by
    ||s - mu||^2 - 2 (t - mu)'(s - mu), mu the mean of the scaled source
    rows, on centred rows scaled by a second power of two, by one
    block-scoring routine run twice, each pass exact:

    1. in float32, on every target row; a row whose runner-up lies beyond
       the float32 tie bound of NN1_TIE_REL keeps its best;
    2. in float64, on the other rows; a row still within the float64 bound
       is rescored against every source row in one product of n scores,
       and decided by cdist against every source row within the bound of
       its best.

    Each pass sweeps the tiles of NN1_TILE_COLS source rows once, casting
    each to the pass's precision once, and scores it against every
    data.BLOCK_ROWS block of the pass's rows, keeping each row's best
    index, best score and runner-up across the tiles.  Beside the inputs
    it holds the scaled source, the pass's operand [-2t', 1], one cast
    tile and one BLOCK_ROWS x NN1_TILE_COLS tile of scores, never m x n.
    An empty source raises EmptySelection, and a label count other than
    one per source row RangeError.
    """
    X_s = check_matrix(source.features, "source features")
    X_t = check_matrix(X_t, "target features", width=X_s.shape[1])
    n, d = X_s.shape
    if n == 0:
        raise EmptySelection("1NN needs at least one source row")
    labels = check_labels(source.labels, n, "source")
    m = X_t.shape[0]
    if m == 0:
        return labels[:0]
    # every tier works on the rows scaled by 2^k_raw, which puts their
    # largest magnitude in [0.5, 1): no square under- or overflows in the
    # recheck, and no mean or centred entry overflows
    hi = np.maximum(X_s.max(axis=0), X_t.max(axis=0))
    lo = np.minimum(X_s.min(axis=0), X_t.min(axis=0))
    k_raw = -int(np.frexp(max(hi.max(), -lo.min()))[1])
    S1 = np.empty((n, d + 1))
    S, s_sq = S1[:, :d], S1[:, d]
    mu = np.ldexp(X_s, k_raw, out=S).mean(axis=0)
    # ldexp and fl(x - mu) are monotone in x, so span bounds every centred
    # entry in its column and 2||span|| every R (NN1_TIE_REL)
    span = np.maximum(np.ldexp(hi, k_raw) - mu, mu - np.ldexp(lo, k_raw))
    # the power of two that puts 2||span|| in [2^59, 2^60), its norm taken
    # on span scaled into [0.5, 1) so that no square underflows
    e = int(np.frexp(span.max())[1])
    k = 60 - e - int(np.frexp(2.0 * np.linalg.norm(np.ldexp(span, -e)))[1])
    np.ldexp(np.subtract(S, mu, out=S), k, out=S)
    np.einsum("ij,ij->i", S, S, out=s_sq)
    args = (X_t, k_raw, mu, k, S1)
    nearest, tied = _score_blocks(np.float32, np.arange(m), *args)[:2]
    rows = np.flatnonzero(tied)
    nearest[rows], tied, T, bound = _score_blocks(np.float64, rows, *args)
    for i in np.flatnonzero(tied):
        # one product rescores the row against every source row, and cdist
        # decides among those within the bound of its best
        cand = np.flatnonzero(~(S1 @ T[i] > bound[i]))
        dist = cdist(np.ldexp(X_t[rows[i]:rows[i] + 1], k_raw),
                     np.ldexp(X_s[cand], k_raw))[0]
        nearest[rows[i]] = cand[np.argmin(dist)]
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
