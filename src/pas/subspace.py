"""Per-class linear subspace estimation and squared-residual distances.

A fitted subspace is an affine model: a sample mean plus an orthonormal
basis of the top principal directions of the mean-centered fitting
set.  Its squared reconstruction residual doubles as the distance
function used everywhere else in the package.
"""

from dataclasses import dataclass

import numpy as np

from .errors import EmptyFit, check_matrix

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
        nonnegative.
    """
    X = check_matrix(X, "sample matrix")
    n, d = X.shape
    if n == 0:
        raise EmptyFit("cannot fit a subspace on zero rows")
    if dim < 1:
        raise ValueError("requested dimension must be >= 1, got %r" % (dim,))

    # uniform weights, not X.mean(axis=0): this summation order fixes the
    # bits of every fitted model
    w = np.full(n, 1.0 / n)
    mean = w @ X
    Y = X - mean

    if d <= n:
        # d x d covariance route
        cov = (Y * w[:, None]).T @ Y
        evals, evecs = np.linalg.eigh(cov)
        evals = evals[::-1]
        evecs = evecs[:, ::-1]
    else:
        # n x n Gram route for wide data
        A = np.sqrt(w)[:, None] * Y
        gram = A @ A.T
        evals, units = np.linalg.eigh(gram)
        evals = evals[::-1]
        units = units[:, ::-1]
        pos = evals > 0
        evecs = np.zeros((d, n))
        if pos.any():
            evecs[:, pos] = (A.T @ units[:, pos]) / np.sqrt(evals[pos])

    trace = max(float(evals.sum()), 0.0)
    rank = int((evals > RANK_TOL * trace).sum())
    d_eff = min(int(dim), d, max(n - 1, 0), rank)

    basis = evecs[:, :d_eff].copy()
    spectrum = np.maximum(evals[:d_eff], 0.0)

    # sign convention: largest-magnitude entry of each column nonnegative
    for j in range(d_eff):
        k = int(np.argmax(np.abs(basis[:, j])))
        if basis[k, j] < 0:
            basis[:, j] = -basis[:, j]

    return Subspace(mean=mean, basis=basis, spectrum=spectrum)


def residuals_sq(S, X):
    """Row-wise squared residuals for a whole sample matrix."""
    X = check_matrix(X, "sample matrix", width=S.dim)
    Y = X - S.mean
    R = Y - (Y @ S.basis) @ S.basis.T
    return np.einsum("ij,ij->i", R, R)
