"""Reference classifiers: 1-nearest-neighbor and the source-only subspace model."""

import numpy as np

from .core import PasConfig, PasModel, SourceLabels, fit_class_subspaces
from .errors import EmptySelection, check_labels, check_matrix

# target rows per score block and source rows per tile: memory stays at
# one NN1_CHUNK_ROWS x NN1_TILE_COLS tile of scores instead of m x n
# distances
NN1_CHUNK_ROWS = 1024
# on 10,000 target rows at d = 64, 2,048 columns took the time of 4,096 with
# half the tile, and less than 512, 1,024 or one 1,024 x n block
# (BENCH_nn1_tiles.json)
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


def _score_blocks(dtype, rows, X_t, k_raw, mu, k, S1, nearest):
    """Score the target rows X_t[rows] in dtype, NN1_CHUNK_ROWS at a time,
    against S1 = [s', ||s'||^2] at the scales 2^k_raw and 2^k
    (NN1_TIE_REL), in tiles of NN1_TILE_COLS source rows, each cast to
    dtype into one reused buffer and scored into one tile buffer, and set
    nearest to each row's best.

    Yields per block its rows, the positions in it of the rows whose
    runner-up lies within the tie bound, the block's left operand
    [-2t', 1] (overwritten by the next block) and each row's best score
    plus its bound."""
    n, d = S1.shape[0], S1.shape[1] - 1
    eps, tiny = float(np.finfo(dtype).eps), float(np.finfo(dtype).tiny)
    s_norm_max = np.sqrt(S1[:, d].max())
    T = np.ones((min(NN1_CHUNK_ROWS, rows.size), d + 1), dtype=dtype)
    t = np.empty((T.shape[0], d))
    tile = np.empty(T.shape[0] * min(NN1_TILE_COLS, n), dtype=dtype)
    S = np.empty((min(NN1_TILE_COLS, n), d + 1), dtype=dtype)
    for start in range(0, rows.size, NN1_CHUNK_ROWS):
        block = rows[start:start + NN1_CHUNK_ROWS]
        b = block.size
        # t scaled by 2^k_raw is the recheck's row; mu - t and the scaling
        # by 2^(k + 1) are exact, so the product adds -2t''s' to ||s'||^2 as
        # cast; take's default mode would copy through a second buffer
        np.take(X_t, block, axis=0, out=t[:b], mode="clip")
        np.ldexp(t[:b], k_raw, out=t[:b])
        T[:b, :d] = np.ldexp(np.subtract(mu, t[:b], out=t[:b]), k + 1, out=t[:b])
        best = np.zeros(b, dtype=np.intp)
        best_score, runner_up = np.full(b, np.inf), np.full(b, np.inf)
        for j in range(0, n, NN1_TILE_COLS):
            # contiguous at any width: into a strided view, matmul would
            # compute a temporary and copy it
            width = min(NN1_TILE_COLS, n - j)
            score = tile[:b * width].reshape(b, width)
            S[:width] = S1[j:j + width]
            np.matmul(T[:b], S[:width].T, out=score)
            i, s, r = _best_two(score)
            # a tile's best wins only on a strictly lower score, so ties go
            # to the lowest index; the runner-up takes the lower of the two
            # bests and both runners-up, so a NaN anywhere reaches it
            won = s < best_score
            np.minimum(runner_up, r, out=runner_up)
            np.minimum(runner_up, np.where(won, best_score, s), out=runner_up)
            best[won] = i[won] + j
            best_score[won] = s[won]
        # R' = ||t'|| + max ||s'||, with t[:b] = -2t'
        R = 0.5 * np.sqrt(np.einsum("ij,ij->i", t[:b], t[:b])) + s_norm_max
        tau = NN1_TIE_REL * ((d + 4) * eps * R ** 2 + (d + 1) * tiny * (R + 1.0))
        nearest[block] = best
        # written as "not beyond" so that a NaN is never taken as decided
        yield (block, np.flatnonzero(~(runner_up - best_score > tau)), T[:b],
               best_score + tau)


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

    Each pass scores NN1_CHUNK_ROWS target rows at a time against tiles of
    NN1_TILE_COLS source rows, into one tile buffer freed before the next
    pass, and keeps each row's best index, best score and runner-up score
    across the tiles.  Memory stays at the scaled source, one tile of its
    rows in the pass's precision and one NN1_CHUNK_ROWS x NN1_TILE_COLS
    float64 tile, whatever m and n.
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
    nearest = np.empty(m, dtype=np.intp)
    if m == 0:
        return labels[nearest]
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
    args = (X_t, k_raw, mu, k, S1, nearest)

    def recheck(i, cand):
        dist = cdist(np.ldexp(X_t[i:i + 1], k_raw), np.ldexp(X_s[cand], k_raw))[0]
        nearest[i] = cand[np.argmin(dist)]

    undecided = np.concatenate([block[tied] for block, tied, _, _ in
                                _score_blocks(np.float32, np.arange(m), *args)])
    for block, tied, T, bound in _score_blocks(np.float64, undecided, *args):
        for i in tied:
            # one product rescores the row against every source row
            recheck(block[i], np.flatnonzero(~(S1 @ T[i] > bound[i])))
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
