"""Per-class linear subspace estimation and squared-residual distances.

A fitted subspace is an affine model: a sample mean plus an orthonormal
basis of the top principal directions of the mean-centered fitting
set.  Its squared reconstruction residual doubles as the distance
function used everywhere else in the package.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .errors import EmptyFit, check_count, check_matrix

# Eigenvalues below RANK_TOL * trace(covariance) are treated as zero rank.
RANK_TOL = 1e-12


@dataclass(frozen=True)
class Subspace:
    """Mean, orthonormal basis and eigenvalue spectrum of one fitted class.

    basis has shape (d, effective_dim) with orthonormal columns; spectrum
    holds the matching covariance eigenvalues in nonincreasing order.
    effective_dim may be smaller than the requested dimension when the
    fitting set is rank deficient (it is 0 for a single-point fit, in
    which case residuals reduce to squared distances from the mean).
    """

    mean: np.ndarray
    basis: np.ndarray
    spectrum: np.ndarray

    @property
    def dim(self):
        """Ambient feature dimension d."""
        return self.mean.shape[0]

    @property
    def effective_dim(self):
        return self.basis.shape[1]


def _top_eigenpairs(M, r):
    """Top r eigenpairs of the symmetric matrix M (its lower triangle),
    eigenvalues nonincreasing, from LAPACK's dsyevr."""
    size = M.shape[0]
    evals, evecs, _, _, info = lapack.dsyevr(M, compute_v=1, range="I",
                                             lower=1, il=size - r + 1, iu=size)
    if info != 0:
        raise np.linalg.LinAlgError("dsyevr failed with info %d" % info)
    return evals[r - 1::-1], evecs[:, ::-1]


def fit_pca(X, dim):
    """Fit the top-`dim` principal directions of the rows of X.

    Parameters
    ----------
    X : array, shape (n, d)
        Sample rows.
    dim : int
        Requested subspace dimension (>= 1).  The effective dimension is
        clamped to min(dim, d, rank of the centered data).

    Returns
    -------
    Subspace
        Deterministic across runs: eigenvalues sorted nonincreasing and
        each basis column flipped so its largest-magnitude entry is
        nonnegative.  Only the top min(dim, d) eigenpairs of the d x d
        covariance (d <= n) or min(dim, n) of the n x n Gram matrix
        (d > n) are computed, and the basis is orthonormal to rounding
        on both routes.
    """
    X = check_matrix(X, "sample matrix")
    n, d = X.shape
    if n == 0:
        raise EmptyFit("cannot fit a subspace on zero rows")
    dim = check_count(dim, "requested dimension", ValueError)

    # uniform weights, not X.mean(axis=0): this summation order fixes the
    # bits of every fitted model
    w = np.full(n, 1.0 / n)
    mean = w @ X
    Y = X - mean

    if d <= n:
        # d x d covariance route
        return _covariance_fit(mean, (Y * w[:, None]).T @ Y, n, dim)
    # n x n Gram route for wide data
    A = np.sqrt(w)[:, None] * Y
    M = A @ A.T
    evals, evecs = _top_eigenpairs(M, min(dim, n))
    d_eff = _kept_dim(evals, M, n, dim, d)
    # A'u / sqrt(eigenvalue) would be orthonormal only to about
    # eps * trace / eigenvalue (eps / RANK_TOL at the rank cutoff), so
    # one QR orthonormalizes the kept columns A'u instead
    basis = np.linalg.qr(A.T @ evecs[:, :d_eff])[0]
    return _signed_subspace(mean, basis, evals[:d_eff])


def _covariance_fit(mean, M, n, dim):
    """Subspace of `mean` and the top eigenpairs of the d x d covariance M
    of n rows (d <= n): fit_pca's covariance route after the covariance,
    which the solver also takes from moments it keeps."""
    d = M.shape[0]
    evals, evecs = _top_eigenpairs(M, min(dim, d))
    d_eff = _kept_dim(evals, M, n, dim, d)
    return _signed_subspace(mean, evecs[:, :d_eff].copy(), evals[:d_eff])


def _kept_dim(evals, M, n, dim, d):
    """The rank rule: how many of the top eigenvalues evals of the
    covariance or Gram matrix M of n rows of width d a fit keeps."""
    trace = float(np.trace(M))   # a sum of squares, so >= 0
    rank = int((evals > RANK_TOL * trace).sum())
    return min(dim, d, max(n - 1, 0), rank)


def _signed_subspace(mean, basis, evals):
    """The Subspace, each basis column flipped so its largest-magnitude
    entry is nonnegative (basis is flipped in place)."""
    for j in range(basis.shape[1]):
        k = int(np.argmax(np.abs(basis[:, j])))
        if basis[k, j] < 0:
            basis[:, j] = -basis[:, j]
    return Subspace(mean=mean, basis=basis, spectrum=np.maximum(evals, 0.0))


def residuals_sq(S, X):
    """Row-wise squared residuals for a whole sample matrix."""
    X = check_matrix(X, "sample matrix", width=S.dim)
    Y = X - S.mean
    R = Y - (Y @ S.basis) @ S.basis.T
    return np.einsum("ij,ij->i", R, R)
