import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pas import Subspace, fit_pca, residuals_sq
from pas.errors import DimensionMismatch, EmptyFit, NonFinite
from pas.subspace import RANK_TOL


def full_eigh_fit(X, dim):
    """fit_pca from every eigenpair of the covariance (d <= n) or Gram
    (d > n) matrix, with Gram-route columns A'u / sqrt(eigenvalue): the
    reference for fit_pca, which computes only the kept eigenpairs."""
    n, d = X.shape
    w = np.full(n, 1.0 / n)
    mean = w @ X
    Y = X - mean
    if d <= n:
        evals, evecs = np.linalg.eigh((Y * w[:, None]).T @ Y)
        evals, evecs = evals[::-1], evecs[:, ::-1]
    else:
        A = np.sqrt(w)[:, None] * Y
        evals, units = np.linalg.eigh(A @ A.T)
        evals, units = evals[::-1], units[:, ::-1]
        pos = evals > 0
        evecs = np.zeros((d, n))
        if pos.any():
            evecs[:, pos] = (A.T @ units[:, pos]) / np.sqrt(evals[pos])
    trace = max(float(evals.sum()), 0.0)
    rank = int((evals > RANK_TOL * trace).sum())
    d_eff = min(int(dim), d, max(n - 1, 0), rank)
    return Subspace(mean=mean, basis=evecs[:, :d_eff].copy(),
                    spectrum=np.maximum(evals[:d_eff], 0.0))


def test_two_collinear_points():
    S = fit_pca(np.array([[0.0, 0.0], [2.0, 0.0]]), dim=1)
    assert np.allclose(S.mean, [1.0, 0.0])
    # sign rule resolves the +/- ambiguity to (1, 0)
    assert np.allclose(S.basis[:, 0], [1.0, 0.0])
    assert residuals_sq(S, np.array([[0.0, 0.0], [2.0, 0.0]])) == pytest.approx(
        [0.0, 0.0], abs=1e-15)


def test_full_dimensional_basis_reconstructs_exactly():
    X = np.random.default_rng(0).normal(size=(10, 3))
    S = fit_pca(X, dim=3)
    assert residuals_sq(S, X).max() < 1e-18


def test_total_residual_matches_char_poly_eigen_oracle():
    # oracle: smallest eigenvalue of the 3x3 sample covariance found by
    # explicit characteristic-polynomial root finding (frozen value)
    X = np.random.default_rng(42).normal(size=(10, 3))
    S = fit_pca(X, dim=2)
    total = float(residuals_sq(S, X).sum())
    assert total == pytest.approx(1.9293838167497075, rel=1e-9)


def test_residual_zero_for_in_span_point():
    X = np.random.default_rng(2).normal(size=(9, 4))
    S = fit_pca(X, dim=2)
    x = S.mean + S.basis @ np.array([0.7, -1.3])
    assert residuals_sq(S, x[None, :])[0] < 1e-24


def test_residual_orthogonal_offset():
    S = fit_pca(np.array([[0.0, 0.0], [2.0, 0.0]]), dim=1)
    assert residuals_sq(S, np.array([[1.0, 5.0]]))[0] == pytest.approx(25.0)


def test_residual_pythagoras_identity_oracle():
    rng = np.random.default_rng(6)
    for _ in range(20):
        X = rng.normal(size=(10, 4))
        S = fit_pca(X, dim=2)
        x = rng.normal(size=4)
        y = x - S.mean
        coords = S.basis.T @ y
        expected = float(y @ y) - float(coords @ coords)
        assert residuals_sq(S, x[None, :])[0] == pytest.approx(
            expected, rel=1e-10, abs=1e-12)


def test_orthonormality_invariant():
    rng = np.random.default_rng(7)
    for _ in range(30):
        n = int(rng.integers(2, 30))
        d = int(rng.integers(1, 12))
        dim = int(rng.integers(1, 6))
        S = fit_pca(rng.normal(size=(n, d)), dim=dim)
        gram = S.basis.T @ S.basis
        assert np.abs(gram - np.eye(S.effective_dim)).max() <= 1e-8


def test_residual_optimality_against_random_bases():
    rng = np.random.default_rng(8)
    for _ in range(10):
        n = int(rng.integers(3, 13))
        d = int(rng.integers(2, 5))
        dim = int(rng.integers(1, 3))
        X = rng.normal(size=(n, d))
        S = fit_pca(X, dim=dim)
        Y = X - S.mean
        fitted = float(residuals_sq(S, X).sum())
        k = min(dim, d)
        for _ in range(200):
            Q, _ = np.linalg.qr(rng.normal(size=(d, k)))
            competitor = float((Y ** 2).sum() - ((Y @ Q) ** 2).sum())
            assert fitted <= competitor + 1e-9


def test_trace_identity():
    rng = np.random.default_rng(9)
    for _ in range(20):
        n = int(rng.integers(4, 40))
        d = int(rng.integers(2, 10))
        dim = int(rng.integers(1, d + 1))
        X = rng.normal(size=(n, d))
        S = fit_pca(X, dim=dim)
        total = float(residuals_sq(S, X).sum())
        expected = float(((X - S.mean) ** 2).sum()) - n * float(S.spectrum.sum())
        assert total == pytest.approx(expected, rel=1e-6, abs=1e-9)


def test_rotation_equivariance():
    rng = np.random.default_rng(10)
    X = rng.normal(size=(15, 6))
    Q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    S = fit_pca(X, dim=2)
    S_rot = fit_pca(X @ Q.T, dim=2)
    np.testing.assert_allclose(residuals_sq(S_rot, X @ Q.T), residuals_sq(S, X),
                               rtol=0, atol=1e-8)


def test_scale_covariance():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(12, 5))
    s = 2.37
    S = fit_pca(X, dim=2)
    S_scaled = fit_pca(s * X, dim=2)
    np.testing.assert_allclose(residuals_sq(S_scaled, s * X),
                               s * s * residuals_sq(S, X), rtol=1e-8)


def test_single_point_fit_degrades_to_mean():
    S = fit_pca(np.array([[1.0, 2.0, 3.0]]), dim=2)
    assert S.effective_dim == 0
    assert residuals_sq(S, np.array([[1.0, 2.0, 4.0]]))[0] == pytest.approx(1.0)


def test_rank_clamping_on_duplicated_rows():
    X = np.vstack([np.tile([1.0, 2.0], (4, 1)), np.tile([3.0, 5.0], (4, 1))])
    S = fit_pca(X, dim=2)
    assert S.effective_dim == 1
    assert S.spectrum.shape == (1,)


def test_spectrum_nonincreasing_nonnegative():
    rng = np.random.default_rng(14)
    for _ in range(10):
        S = fit_pca(rng.normal(size=(20, 6)), dim=5)
        assert (np.diff(S.spectrum) <= 1e-10).all()
        assert (S.spectrum >= -1e-10).all()


def test_gram_route_matches_covariance_spectrum():
    # wide data (d > n) goes through the Gram matrix; spectrum must agree
    # with a direct dense eigendecomposition
    rng = np.random.default_rng(15)
    X = rng.normal(size=(5, 12))
    S = fit_pca(X, dim=3)
    Y = X - X.mean(axis=0)
    evals = np.linalg.eigvalsh(Y.T @ Y / 5)[::-1]
    assert np.allclose(S.spectrum, evals[:S.effective_dim], atol=1e-10)
    assert np.abs(S.basis.T @ S.basis - np.eye(S.effective_dim)).max() <= 1e-8
    assert S.effective_dim <= 4  # n_fit - 1


def test_sign_convention_deterministic():
    rng = np.random.default_rng(16)
    X = rng.normal(size=(10, 4))
    S = fit_pca(X, dim=3)
    for j in range(S.effective_dim):
        col = S.basis[:, j]
        assert col[np.argmax(np.abs(col))] >= 0


def test_errors():
    with pytest.raises(EmptyFit):
        fit_pca(np.zeros((0, 3)), dim=1)
    with pytest.raises(NonFinite):
        fit_pca(np.array([[1.0, np.nan]]), dim=1)
    with pytest.raises(ValueError):
        fit_pca(np.ones((3, 2)), dim=0)
    # a dimension is an integer: these once fitted or raised a bare error
    for bad in (1.5, True, "2", float("nan")):
        with pytest.raises(ValueError, match="requested dimension"):
            fit_pca(np.ones((3, 2)), dim=bad)
    S = fit_pca(np.random.default_rng(0).normal(size=(5, 3)), dim=1)
    with pytest.raises(NonFinite):
        residuals_sq(S, np.array([[0.0, np.nan, 1.0]]))
    with pytest.raises(DimensionMismatch):
        residuals_sq(S, np.zeros(3))
    with pytest.raises(DimensionMismatch):
        residuals_sq(S, np.zeros((2, 4)))


@pytest.mark.parametrize("scale", [1e155, 1e200])
def test_fit_pca_overflowing_covariance_raises_nonfinite(scale):
    # singular values about 3, 2 and 1 times the scale: the spectrum (about
    # 9e310 at 1e155) cannot be represented, and these rows were once
    # fitted as a point after an overflow warning, on either route
    rng = np.random.default_rng(0)
    X = scale * rng.normal(size=(12, 3)) * [3.0, 2.0, 1.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for rows in (X, X.T):
            with pytest.raises(NonFinite):
                fit_pca(rows, dim=2)


def test_fit_pca_rows_at_huge_offset_fit_a_point_silently():
    # a spread below the rounding of a mean near 1e300 is no direction; the
    # square of that rounding overflows, which once warned
    X = 1e300 + np.random.default_rng(0).normal(size=(12, 3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert fit_pca(X, dim=2).effective_dim == 0


@settings(derandomize=True, max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 300),
       d=st.integers(1, 279), dim=st.integers(1, 6),
       kind=st.sampled_from(["normal", "low_rank", "near_cutoff"]),
       cut=st.sampled_from([0.25, 4.0]), offset=st.sampled_from([0.0, 1.0, 1e2]))
def test_fit_pca_matches_full_eigh_oracle(seed, n, d, dim, kind, cut, offset):
    # both routes (d <= n covariance, d > n Gram); low_rank fits fewer
    # directions than dim, and near_cutoff puts the last of them at cut
    # times the rank cutoff, away from it by more than the solvers' error
    rng = np.random.default_rng(seed)
    if kind == "normal":
        X = rng.normal(size=(n, d)) * rng.uniform(0.1, 3.0, size=d)
    else:
        k = min(int(rng.integers(1, dim + 1)), n - 1, d)
        if k < 1:
            X = np.zeros((n, d))
        else:
            spectrum = np.sort(10.0 ** rng.uniform(-3, 0, size=k))[::-1]
            if kind == "near_cutoff" and k >= 2:
                spectrum[-1] = RANK_TOL * cut * spectrum[:-1].sum()
            # columns orthogonal to the ones vector, so the rows are centred
            U = np.linalg.qr(np.column_stack(
                [np.ones(n), rng.normal(size=(n, k))]))[0][:, 1:]
            V = np.linalg.qr(rng.normal(size=(d, k)))[0]
            X = (U * np.sqrt(spectrum * n)) @ V.T
    X = X + offset * rng.normal(size=d)
    S, O = fit_pca(X, dim), full_eigh_fit(X, dim)
    assert S.effective_dim == O.effective_dim
    Y = X - O.mean
    total_ss = float((Y * Y).sum())
    assert np.abs(S.spectrum - O.spectrum).max(initial=0.0) <= 1e-10 * total_ss / n
    assert float(residuals_sq(S, X).sum()) == pytest.approx(
        float(residuals_sq(O, X).sum()), rel=1e-10, abs=1e-10 * total_ss)
    r = S.effective_dim
    assert np.abs(S.basis.T @ S.basis - np.eye(r)).max(initial=0.0) <= 1e-12
