"""Anchoring analysis: density-ratio estimation and grouped accuracy reports.

The density ratio w(x) = p_source(x) / q_target(x) is modeled as a
nonnegative mixture of Gaussian kernels centered on target samples and
fitted by maximizing the source log-ratio subject to the ratio averaging
to one over the target sample (the KLIEP objective).  Samples the model
anchors early (small subspace residual) should look source-like, i.e.
carry a large ratio; the report quantifies that for the closest and
farthest groups of target samples.
"""

from dataclasses import dataclass, field

import numpy as np

# predict is not called here, but benchmarks/tracer.py patches
# diagnostics.predict by name and fails on a missing attribute
from .core import compute_distances, predict
from .data import BLOCK_ROWS
from .errors import (DegenerateKernel, EmptySelection, TooFewSamples, check_count,
                     check_fraction, check_labels, check_matrix, check_real)

LOG_FLOOR = 1e-300
# most halvings or doublings of the step in one line search
MAX_STEP_SCALINGS = 60
# most ascent steps, and the relative objective gain below which the
# ascent stops
MAX_ASCENT_STEPS = 500
ASCENT_TOL = 1e-7


@dataclass
class DensityRatioModel:
    """Kernel centers, nonnegative coefficients, and Gaussian bandwidth."""

    centers: np.ndarray
    alphas: np.ndarray
    bandwidth: float
    objective_history: list = field(default_factory=list)

    def ratio(self, X):
        """Evaluate w(x) row-wise."""
        X = check_matrix(X, "samples", width=self.centers.shape[1])
        return _kernel(X, self.centers, self.bandwidth) @ self.alphas


def _kernel(X, centers, bandwidth):
    """exp(-||x - c||^2 / (2 bandwidth^2)) of each row of X against each
    centre; an exponent beyond the float range gives the limit, 0."""
    # imported on first use, as in kliep_fit: importing pas loads no scipy
    from scipy.spatial.distance import cdist

    # in place on cdist's one buffer: negating first, then dividing, gives
    # the bits of -cdist(...) / (2 bandwidth^2)
    K = cdist(X, centers, "sqeuclidean")
    np.negative(K, out=K)
    with np.errstate(over="ignore"):
        np.divide(K, 2.0 * bandwidth ** 2, out=K)
        return np.exp(K, out=K)


def _target_means(X_tgt, centers, bandwidth):
    """The kernel's column means over the target rows, the bits of
    _kernel(X_tgt, centers, bandwidth).mean(axis=0), computed
    BLOCK_ROWS rows at a time."""
    if centers.shape[0] == 1:
        # numpy sums one column pairwise, not in row order; it is only m
        # floats, so it is taken whole
        return _kernel(X_tgt, centers, bandwidth).mean(axis=0)
    # with two or more columns numpy sums axis 0 in row order, so the
    # running sum enters each block through its first row
    total = np.zeros(centers.shape[0])
    for start in range(0, X_tgt.shape[0], BLOCK_ROWS):
        block = _kernel(X_tgt[start:start + BLOCK_ROWS], centers, bandwidth)
        block[0] += total
        total = block.sum(axis=0)
    return total / X_tgt.shape[0]


def _kliep_objective(K_src, alphas):
    return float(np.log(np.maximum(K_src @ alphas, LOG_FLOOR)).sum())


def _feasible_ascent_direction(grad, alphas, b):
    """Project the gradient onto the feasible directions at alphas.

    Scaling all coefficients up is undone by the renormalization, so the
    component along the constraint normal is removed; coordinates pinned
    at zero whose projected component points negative are frozen (active
    set), iterating until the direction respects every bound.
    """
    active = np.zeros(alphas.shape[0], dtype=bool)
    for _ in range(alphas.shape[0]):
        d = np.where(active, 0.0, grad)
        bi = np.where(active, 0.0, b)
        denom = float(bi @ bi)
        if denom > 0.0:
            d = d - bi * (float(bi @ d) / denom)
        newly = (alphas <= 0.0) & (d < 0.0) & ~active
        if not newly.any():
            return d
        active |= newly
    return np.zeros_like(grad)


def kliep_fit(X_src, X_tgt, num_centers=100, bandwidth=None, seed=0):
    """Fit the density-ratio model by projected gradient ascent.

    Parameters
    ----------
    X_src, X_tgt : arrays, shape (n, d) and (m, d)
        Samples from the ratio's numerator (source) and denominator
        (target) distributions.
    num_centers : int
        Kernel centers are the first min(num_centers, m) target samples
        under a seeded shuffle.
    bandwidth : float, optional
        Gaussian kernel width, a finite real number > 0 whose
        2 * bandwidth^2 is a normal float (DegenerateKernel otherwise);
        defaults to the median pairwise distance among the centers.
    seed : int
        Seed for the center shuffle, an integer >= 0 (ConfigError
        otherwise).

    The ascent takes at most MAX_ASCENT_STEPS steps and stops early once a
    step gains less than ASCENT_TOL of the objective (relative, floored at
    1).  Steps are accepted only if the objective does not decrease
    (backtracking line search), and after every step the coefficients are
    clipped at zero and rescaled so the ratio averages to one over the
    target sample.

    Memory stays at the (n, centres) source kernel plus one block of the
    target kernel, data.BLOCK_ROWS (1,024) rows, whatever m: the target
    enters only through the kernel's column means, summed block by block
    in the row order of mean(axis=0), so the fit is bit for bit that of the
    whole (m, centres) kernel.  With one centre that column, m floats, is
    taken whole.
    """
    X_src = check_matrix(X_src, "source samples")
    X_tgt = check_matrix(X_tgt, "target samples", width=X_src.shape[1])
    if X_src.shape[0] == 0 or X_tgt.shape[0] == 0:
        raise EmptySelection("need nonempty source and target sets")
    num_centers = check_count(num_centers, "num_centers")

    rng = np.random.default_rng(check_count(seed, "seed", low=0))
    perm = rng.permutation(X_tgt.shape[0])
    centers = X_tgt[perm[:min(num_centers, X_tgt.shape[0])]]

    if bandwidth is None:
        if centers.shape[0] < 2:
            raise DegenerateKernel("median bandwidth needs >= 2 centers")
        from scipy.spatial.distance import pdist

        bandwidth = float(np.median(pdist(centers)))
    bandwidth = check_real(bandwidth, "bandwidth", DegenerateKernel)
    if bandwidth < 0.0:
        raise DegenerateKernel("bandwidth must be positive, got negative %r" % bandwidth)
    if bandwidth == 0.0:
        raise DegenerateKernel("bandwidth is zero (all points identical?)")
    # the kernel divides by 2 bandwidth^2; x * x, unlike x ** 2, gives inf
    # instead of raising
    if not np.finfo(float).tiny <= 2.0 * bandwidth * bandwidth < np.inf:
        raise DegenerateKernel("2 * bandwidth^2 must be a normal float, got "
                               "bandwidth %r" % bandwidth)

    # target-average of each kernel; strictly > 0
    b = _target_means(X_tgt, centers, bandwidth)
    K_src = _kernel(X_src, centers, bandwidth)

    alphas = np.ones(centers.shape[0])
    alphas /= b @ alphas
    obj = _kliep_objective(K_src, alphas)
    history = [obj]

    step = None
    for _ in range(MAX_ASCENT_STEPS):
        grad = K_src.T @ (1.0 / np.maximum(K_src @ alphas, LOG_FLOOR))
        direction = _feasible_ascent_direction(grad, alphas, b)
        gnorm = float(np.linalg.norm(direction))
        if gnorm <= 1e-15:
            break
        if step is None:
            # move by about the coefficient norm on the first try
            step = float(np.linalg.norm(alphas)) / gnorm

        def evaluate(trial):
            cand = np.maximum(alphas + trial * direction, 0.0)
            scale = b @ cand
            if scale <= 0.0:
                return None, -np.inf
            cand = cand / scale
            return cand, _kliep_objective(K_src, cand)

        # backtrack until the step improves, then keep doubling while it
        # helps; accepted steps never decrease the objective
        trial = step
        cand, cand_obj = evaluate(trial)
        backtracks = 0
        while cand_obj < obj and backtracks < MAX_STEP_SCALINGS:
            trial *= 0.5
            cand, cand_obj = evaluate(trial)
            backtracks += 1
        if cand_obj < obj:
            break
        if backtracks == 0:
            for _ in range(MAX_STEP_SCALINGS):
                bigger, bigger_obj = evaluate(trial * 2.0)
                if bigger_obj <= cand_obj:
                    break
                trial *= 2.0
                cand, cand_obj = bigger, bigger_obj
        improvement = cand_obj - obj
        alphas, obj, step = cand, cand_obj, trial
        history.append(obj)
        if improvement <= ASCENT_TOL * max(1.0, abs(history[-2])):
            break

    return DensityRatioModel(centers=centers, alphas=alphas,
                             bandwidth=bandwidth, objective_history=history)


def adr(model, X, indices):
    """Average density ratio over the selected sample subset; indices
    must be integers (not a boolean mask) within the rows of X."""
    indices = np.asarray(indices)
    if indices.size == 0:
        raise EmptySelection("no indices selected")
    if indices.dtype.kind not in "iu":
        raise EmptySelection("indices must be integers, got dtype %s" % indices.dtype)
    X = np.asarray(X, dtype=float)
    if indices.min() < 0 or indices.max() >= X.shape[0]:
        raise EmptySelection("indices out of range")
    return float(model.ratio(X[indices]).mean())


def anchoring_report(model, X_t, true_labels, ratio_model, fraction=0.05):
    """Accuracy and ADR of the closest/farthest target groups by residual.

    Targets are ranked by their assigned-subspace squared residual; the
    top group is the smallest-distance `fraction` of samples and the
    bottom group the largest-distance fraction.  true_labels hold label
    values, compared with the model's label_values of the predicted
    classes, one per row of X_t (RangeError otherwise).
    """
    fraction = check_fraction(fraction, "fraction", 0.5)
    dists = compute_distances(model, X_t)
    m = dists.shape[0]
    true_labels = check_labels(true_labels, m, "true", np.int64)
    group = int(np.floor(fraction * m))
    if group < 1:
        raise TooFewSamples("fraction %r of %d samples selects no rows"
                            % (fraction, m))

    c = dists.min(axis=1)
    order = np.argsort(c, kind="stable")
    top, bottom = order[:group], order[-group:]
    pred = model.label_values[np.argmin(dists, axis=1)]

    def summarize(idx):
        return {
            "acc": float(np.mean(pred[idx] == true_labels[idx])),
            "adr": adr(ratio_model, X_t, idx),
        }

    return {"top": summarize(top), "bottom": summarize(bottom),
            "fraction": fraction, "group_size": group}
