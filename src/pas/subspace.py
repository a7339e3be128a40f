"""Per-class linear subspace estimation and squared-residual distances.

A fitted subspace is an affine model: a sample mean plus an orthonormal
basis of the top principal directions of the mean-centered fitting
set.  Its squared reconstruction residual doubles as the distance
function used everywhere else in the package.  source_summary is the
one place that decides how a fit refits a class from its source rows.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyFit, NonFinite, check_count, check_matrix

# Eigenvalues below RANK_TOL * trace(covariance) are treated as zero rank.
RANK_TOL = 1e-12
EPS = np.finfo(float).eps


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
    eigenvalues nonincreasing, from LAPACK's dsyevr, and M's trace."""
    # imported on first use, so that importing pas loads no scipy
    from scipy.linalg import lapack

    trace = float(M.trace())
    size = M.shape[0]
    evals, evecs, _, _, info = lapack.dsyevr(M, compute_v=1, range="I",
                                             lower=1, il=size - r + 1, iu=size)
    if info != 0:
        raise np.linalg.LinAlgError("dsyevr failed with info %d" % info)
    return evals[r - 1::-1], evecs[:, ::-1], trace


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
        on both routes.  Rows whose covariance overflows float64 raise
        NonFinite.
    """
    X = check_matrix(X, "sample matrix")
    if X.shape[0] == 0:
        raise EmptyFit("cannot fit a subspace on zero rows")
    dim = check_count(dim, "requested dimension", ValueError)
    with np.errstate(over="ignore", invalid="ignore"):
        S, trace = _fit_pca(X, dim)
    # the rank rule keeps no direction of such a matrix, which would
    # return a point
    if not math.isfinite(trace):
        raise NonFinite("the covariance of the rows overflows float64: its "
                        "trace is %r" % trace)
    return S


def _fit_pca(X, dim):
    """fit_pca without its checks, for a refit's rows: X a finite (n, d)
    float array with n >= 1 and dim an int >= 1.  Returns the Subspace and
    the trace of the covariance or Gram matrix decomposed."""
    n, d = X.shape
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
    evals, evecs, trace = _top_eigenpairs(M, min(dim, n))
    d_eff = _kept_dim(evals, trace, mean, n, dim)
    # A'u / sqrt(eigenvalue) would be orthonormal only to about
    # eps * trace / eigenvalue (eps / RANK_TOL at the rank cutoff), so
    # one QR orthonormalizes the kept columns A'u instead
    basis = np.linalg.qr(A.T @ evecs[:, :d_eff])[0]
    return _signed_subspace(mean, basis, evals[:d_eff]), trace


def _covariance_fit(mean, M, n, dim):
    """Subspace of `mean` and the top eigenpairs of the d x d covariance M
    of n rows (d <= n), and M's trace: fit_pca's covariance route after the
    covariance, which _SourceMoments.fit also takes."""
    evals, evecs, trace = _top_eigenpairs(M, min(dim, M.shape[0]))
    d_eff = _kept_dim(evals, trace, mean, n, dim)
    return _signed_subspace(mean, evecs[:, :d_eff].copy(), evals[:d_eff]), trace


def source_summary(X):
    """What a fit keeps of one class's source rows X (n rows, d columns)
    in place of X: its _SourceMoments when n >= d, else _SourceRows.  Both
    have fit(R, dim), the subspace of X followed by the rows R (none
    included) with X's residual total on it, and residual(S), that total
    on any subspace S."""
    return _SourceMoments(X) if X.shape[0] >= X.shape[1] else _SourceRows(X)


class _SourceMoments:
    """Count n, mean m, first moment g = sum of (x - m) (zero but for
    rounding) and centred scatter S of the source rows x."""

    def __init__(self, X):
        self.n = X.shape[0]
        # fit_pca's mean, so on fit_pca's subspace of these rows alone
        # residual() has m - mu = 0 exactly
        self.mean = np.full(self.n, 1.0 / self.n) @ X
        Y = X - self.mean
        self.first = Y.sum(axis=0)
        self.scatter = Y.T @ Y

    def scatter_about(self, mu):
        """The sum of (x - mu)(x - mu)' over the rows: S + n dd' + gd' + dg'
        with d = m - mu.  Without the g terms a rounded m would leave an
        error of first order in d."""
        delta = self.mean - mu
        gd = self.first[:, None] * delta
        return self.scatter + self.n * (delta[:, None] * delta) + gd + gd.T

    def fit(self, R, dim):
        """fit_pca of the rows followed by R, up to rounding, on its
        covariance route from the moments and R alone; the scatter about
        the new mean serves both the fit and the residual."""
        n = self.n + R.shape[0]
        mean = (self.n * self.mean + R.sum(axis=0)) / n
        Z = R - mean
        A = self.scatter_about(mean)
        S = _covariance_fit(mean, (A + Z.T @ Z) / n, n, dim)[0]
        return S, self.residual(S, A)

    def residual(self, S, A=None):
        """tr(A) - tr(B'AB) clamped at 0, with A the rows' scatter about S's
        mean (built when not given) and B its basis: within about
        d * eps * tr(A) of the sum of residuals_sq."""
        A = self.scatter_about(S.mean) if A is None else A
        return max(float(np.trace(A)) - float(np.einsum("ij,ij->", A @ S.basis, S.basis)),
                   0.0)


class _SourceRows:
    """The source rows themselves, for fewer rows than columns, where a d x d
    scatter would outgrow them: a refit is fit_pca of the stacked rows."""

    def __init__(self, X):
        self.rows = X

    def fit(self, R, dim):
        S = _fit_pca(np.vstack([self.rows, R]), dim)[0]
        return S, self.residual(S)

    def residual(self, S):
        return float(_residuals_sq(S, self.rows).sum())


def _kept_dim(evals, trace, mean, n, dim):
    """The rank rule: how many of the top eigenvalues evals of the
    covariance or Gram matrix M of n rows with mean `mean` a fit keeps,
    given trace = trace(M).

    An eigenvalue counts above RANK_TOL * trace and above the rounding
    of the centring.  The computed mean is off by up to about
    n * eps * |mean|, and the centred rows inherit that error, so the top
    eigenvalue of rows that are all equal is its square: at most
    0.08 * (n * eps * |mean|)^2 over 20,000 random cases of 2 to 30 equal
    rows, on either route and from source moments."""
    # trace is a sum of squares, so >= 0; hypot keeps |mean| finite for
    # rows whose squared norm would overflow
    noise = n * EPS * math.hypot(*mean.tolist())
    floor = max(RANK_TOL * trace, noise * noise)
    rank = sum(value > floor for value in evals.tolist())
    return min(dim, mean.shape[0], max(n - 1, 0), rank)


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
    return _residuals_sq(S, check_matrix(X, "sample matrix", width=S.dim))


def _residuals_sq(S, X):
    """residuals_sq without its check: X a finite (n, S.dim) float array."""
    Y = X - S.mean
    R = Y - (Y @ S.basis) @ S.basis.T
    return np.einsum("ij,ij->i", R, R)
