"""Progressive adaptation of per-class subspaces.

The solver alternates four closed-form block updates: refit each class
subspace on its source samples plus currently anchored targets, recompute
target-to-subspace distances, reassign memberships to the nearest
subspace, and re-anchor the targets whose assigned distance falls
strictly below the threshold.  Each update is the global minimizer of
its block, so the unified objective never increases within a stage.
A stage schedule raises the anchoring threshold from the 0% to the 100%
distance quantile, admitting target samples in order of reliability.

The distance kernel (compute_distances) gets all K class columns from one
GEMM against the stacked class means and bases, and recomputes with the
exact per-class residual every cell small enough to lose digits to that
expansion.

The solver keeps a per-class refit memo for the life of one fit.  It
checks the fit's inputs once, and a class whose anchored target rows are
unchanged keeps its subspace (and its source residual total) bit for bit
instead of being refitted.  fit_pca is deterministic and the distance
kernel depends only on the model and the target rows, so every reused
value is the one a recomputation would give; a refit that changes no
class ends the inner loop.
"""

import json
import math
import numbers
from dataclasses import asdict, dataclass

import numpy as np

from . import data
from .errors import (
    ConfigError,
    DimensionMismatch,
    EmptyTarget,
    RangeError,
    check_matrix,
)
from .subspace import Subspace, fit_pca, residuals_sq

# The expanded residual loses about d * eps of ||x - c||^2 + ||mu_k - c||^2
# to cancellation, so a cell above this fraction of that sum keeps a
# relative error below about d * eps / 1e-5 (5.7e-9 at d = 256; random
# stress cases up to d = 259 and offsets up to 1e5 stayed within 1e-10).
# Cells at or below it are recomputed with the exact per-class residual.
EXACT_FALLBACK_REL = 1e-5

# Largest |B'B - I| entry a loaded basis may show.  fit_pca's Gram route
# (fewer rows than features) normalizes A'u by the square root of its
# eigenvalue, which loses orthonormality in proportion to eps / RANK_TOL
# (2.2e-4) for an eigenvalue at the rank cutoff; 13,500 nearly rank-deficient
# probe fits reached 3.1e-4.  A genuinely wrong basis is off by order 1.
BASIS_ORTHONORMAL_TOL = 1e-3


@dataclass
class PasConfig:
    """Solver configuration.

    dim is the requested per-class subspace dimension (1 is a good
    closed-set default; around 10 suits partial-DA with many source
    classes).  schedule_step is the anchored-fraction increment per
    stage.  All tie-breaks are deterministic (smallest index).
    """

    dim: int = 1
    schedule_step: float = 0.01
    # the inner solver's fixed stopping rule: class attributes, not fields
    inner_tol = 1e-6
    inner_max_iters = 50

    def __post_init__(self):
        if not isinstance(self.dim, numbers.Integral) or self.dim < 1:
            raise ConfigError("dim must be an integer >= 1, got %r" % (self.dim,))
        if not (0.0 < self.schedule_step <= 1.0):
            raise ConfigError("schedule_step must be in (0, 1], got %r"
                              % (self.schedule_step,))


@dataclass
class SourceLabels:
    """Class indices in {0..num_classes-1}; every class must occur."""

    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        values = np.asarray(self.labels)
        # a NaN or out-of-range float casts to garbage, which the
        # comparison below rejects
        with np.errstate(invalid="ignore"):
            labels = values.astype(np.int64)
        if labels.ndim != 1:
            raise DimensionMismatch("labels must be a 1-D vector")
        if (labels != values).any():
            raise RangeError("labels must be integers")
        if self.num_classes < 1:
            raise RangeError("num_classes must be >= 1")
        if labels.size and (labels.min() < 0 or labels.max() >= self.num_classes):
            raise RangeError("labels outside {0..%d}" % (self.num_classes - 1))
        present = np.unique(labels)
        if present.size != self.num_classes:
            missing = sorted(set(range(self.num_classes)) - set(present.tolist()))
            raise RangeError("source classes %r have no samples" % (missing,))
        object.__setattr__(self, "labels", labels)


@dataclass
class AnchorState:
    """Target-side state: memberships W, anchor indicators v, threshold, distances."""

    memberships: np.ndarray   # (m, K) one-hot
    anchors: np.ndarray       # (m,) in {0, 1}
    threshold: float
    distances: np.ndarray     # (m,) residual to the assigned subspace


@dataclass
class PasModel:
    """K fitted subspaces plus the configuration that produced them.

    label_values[k] is the source label value of class index k; it
    defaults to the identity 0..K-1.  predict returns class indices.
    """

    subspaces: list
    config: PasConfig
    label_values: np.ndarray | None = None

    def __post_init__(self):
        if self.label_values is None:
            self.label_values = np.arange(len(self.subspaces), dtype=np.int64)

    @property
    def num_classes(self):
        return len(self.subspaces)

    @property
    def feature_dim(self):
        return self.subspaces[0].dim


@dataclass
class StageRecord:
    stage: int
    fraction: float
    threshold: float
    anchored: int
    objective: float
    pseudo_accuracy: float | None = None


def compute_distances(model, X_t):
    """m x K matrix of squared residuals of each row to each class subspace.

    With c the mean of the rows of X_t, one GEMM gives (x - c) against
    every centred mean mu_k - c and every basis column b, and each cell is
    ||x - c||^2 - 2 (x - c)'(mu_k - c) + ||mu_k - c||^2
    - sum over the columns b of class k of ((x - c)'b - (mu_k - c)'b)^2,
    clamped at 0.  Cells at or below EXACT_FALLBACK_REL times
    ||x - c||^2 + ||mu_k - c||^2 are recomputed with residuals_sq.
    """
    d = model.feature_dim
    X_t = check_matrix(X_t, "target features", width=d)
    subspaces = model.subspaces
    K = len(subspaces)
    dims = [S.effective_dim for S in subspaces]
    # filled in place so the GEMM operand is C-ordered whatever the bases'
    # order, which keeps the products bitwise reproducible
    stacked = np.empty((d, K + sum(dims)))
    stacked[:, :K] = np.array([S.mean for S in subspaces]).T
    stacked[:, K:] = np.hstack([S.basis for S in subspaces])
    # the centre comes from the rows, not the model: a class whose subspace
    # did not change between solver iterations then keeps bitwise-equal
    # distances, so a row whose distance set the threshold is not anchored
    # by rounding (anchoring is the strict c < lam); an empty X_t gets 0
    centre = X_t.sum(axis=0) / max(X_t.shape[0], 1)
    stacked[:, :K] -= centre[:, None]
    means, bases = stacked[:, :K], stacked[:, K:]
    owner = np.repeat(np.arange(K), dims)

    X_c = X_t - centre
    G = X_c @ stacked
    x_sq = np.einsum("ij,ij->i", X_c, X_c)
    mu_sq = np.einsum("ij,ij->j", means, means)
    proj = G[:, K:] - np.einsum("ij,ij->j", means[:, owner], bases)
    in_class = np.zeros((owner.size, K))
    in_class[np.arange(owner.size), owner] = 1.0
    scale = x_sq[:, None] + mu_sq
    dists = np.maximum(scale - 2.0 * G[:, :K] - (proj * proj) @ in_class, 0.0)

    low = dists <= EXACT_FALLBACK_REL * scale
    for k in np.flatnonzero(low.any(axis=0)):
        rows = np.flatnonzero(low[:, k])
        dists[rows, k] = residuals_sq(subspaces[k], X_t[rows])
    return dists


def assign_memberships(dists):
    """One-hot assignment of each row to its minimum-distance class.

    Ties break to the smallest class index, which makes runs
    deterministic.
    """
    dists = check_matrix(dists, "distance matrix")
    m, K = dists.shape
    W = np.zeros((m, K), dtype=np.int64)
    W[np.arange(m), np.argmin(dists, axis=1)] = 1
    return W


def anchor(c, lam):
    """Indicator of samples anchored at threshold lam: 1 iff c_j < lam (strict)."""
    c = np.asarray(c, dtype=float)
    return (c < lam).astype(np.int64)


def lambda_for_fraction(c, fraction):
    """Smallest threshold anchoring at least ceil(fraction * m) samples.

    fraction = 0 returns 0 (anchors nothing, since anchoring is strict);
    fraction = 1 returns a value strictly above max(c).
    """
    c = np.asarray(c, dtype=float)
    if c.size == 0:
        raise EmptyTarget("no target distances")
    if not (0.0 <= fraction <= 1.0):
        raise ConfigError("fraction must be in [0, 1], got %r" % (fraction,))
    # the 1e-9 guard absorbs float noise in fraction * m (e.g. 17 * 0.01 * 300)
    t = int(math.ceil(fraction * c.size - 1e-9))
    if t <= 0:
        return 0.0
    s = np.sort(c)
    u = s[t - 1]
    bigger = s[s > u]
    if bigger.size:
        return float(bigger[0])
    return float(u * (1.0 + 1e-9) + 1e-12)


def _source_groups(labels, num_rows):
    """Source row indices of each class, after checking that labels has
    one entry per source row (RangeError otherwise)."""
    if labels.labels.shape[0] != num_rows:
        raise RangeError("label count %d does not match %d source rows"
                         % (labels.labels.shape[0], num_rows))
    return [np.flatnonzero(labels.labels == k) for k in range(labels.num_classes)]


def _source_residual_total(model, X_s, labels):
    total = 0.0
    for k, idx in enumerate(_source_groups(labels, X_s.shape[0])):
        total += float(residuals_sq(model.subspaces[k], X_s[idx]).sum())
    return total


def _objective_value(source_total, dists, W, v, lam):
    target_term = float((v * (W * dists).sum(axis=1)).sum())
    return source_total + target_term - lam * float(v.sum())


def objective(model, X_s, labels, X_t, state):
    """Unified objective: source residuals + anchored target residuals - lam * #anchored."""
    X_s = check_matrix(X_s, "source features", width=model.feature_dim)
    dists = compute_distances(model, X_t)
    W = state.memberships
    if W.shape != dists.shape:
        raise DimensionMismatch("membership shape %r does not match distances %r"
                                % (W.shape, dists.shape))
    return _objective_value(_source_residual_total(model, X_s, labels), dists,
                            W, state.anchors, state.threshold)


class _ClassRefits:
    """Per-class refit memo for the life of one fit.

    Its constructor is where the solver checks a fit's inputs: X_s and,
    when given, X_t must be 2-D and finite with equal widths, and labels
    must have one entry per source row.  It holds the checked X_t, each
    class's source rows, and, per class, the anchored target row indices
    its current subspace was fitted on, that subspace and its source
    residual total (computed when first asked for).  dists is the
    distance matrix of the current subspaces once the solver has set it.
    """

    def __init__(self, X_s, labels, X_t=None):
        X_s = check_matrix(X_s, "source features")
        groups = _source_groups(labels, X_s.shape[0])
        if X_t is not None:
            X_t = check_matrix(X_t, "target features", width=X_s.shape[1])
        self.X_t = X_t
        self.blocks = [X_s[idx] for idx in groups]
        K = len(self.blocks)
        self.anchored = [None] * K
        self.subspaces = [None] * K
        self.residuals = [None] * K
        self.changed = False
        self.dists = None

    def refit(self, state, dim):
        """Fit each class on its source rows followed by the target rows
        with its membership and anchor indicator 1, in row order; a class
        whose anchored rows equal those of its stored subspace keeps it.
        Sets changed to whether any class was refitted."""
        X_t = self.X_t
        K = len(self.blocks)
        picked = [np.zeros(0, dtype=np.intp)] * K
        if state is not None and X_t is not None:
            anchored = state.anchors == 1
            picked = [np.flatnonzero((state.memberships[:, k] == 1) & anchored)
                      for k in range(K)]
        self.changed = False
        for k, (block, rows_t) in enumerate(zip(self.blocks, picked)):
            if (self.subspaces[k] is not None
                    and np.array_equal(rows_t, self.anchored[k])):
                continue
            rows = np.vstack([block, X_t[rows_t]]) if rows_t.size else block
            self.subspaces[k] = fit_pca(rows, dim=dim)
            self.anchored[k] = rows_t
            self.residuals[k] = None
            self.changed = True
        return list(self.subspaces)

    def source_total(self):
        """Source residual total of the current subspaces, summed in class
        order from 0.0 as _source_residual_total sums it."""
        total = 0.0
        for k, block in enumerate(self.blocks):
            if self.residuals[k] is None:
                self.residuals[k] = float(residuals_sq(self.subspaces[k], block).sum())
            total += self.residuals[k]
        return total


def fit_class_subspaces(X_s, labels, X_t=None, state=None, config=None,
                        _refits=None):
    """Fit one subspace per class on its source rows plus anchored targets.

    For class k the fitting set is the source rows labeled k followed by
    the target rows with membership k and anchor indicator 1, in their
    original row order.  With no state (or nothing anchored) this is the
    plain per-class source PCA.  The solver passes its per-fit memo as
    _refits, so only the classes whose anchored rows changed are refitted.
    """
    config = config or PasConfig()
    if _refits is None:
        _refits = _ClassRefits(X_s, labels, X_t)
    return PasModel(subspaces=_refits.refit(state, config.dim), config=config)


def inner_solve(X_s, labels, X_t, lam, warm_state=None, config=None,
                _refits=None):
    """Alternate the block updates at a fixed threshold until convergence.

    Returns (model, state, history) where history holds the objective
    after every full iteration; it is nonincreasing up to roundoff
    because each block update is a global minimizer given the others.
    When a refit after the first iteration changes no class, the rest of
    the iteration would rebuild the same distances, state and objective
    bit for bit, so the loop records that objective once more and stops.
    fit_progressive passes one refit memo (_refits), which holds the
    checked X_t, to every stage.
    """
    config = config or PasConfig()
    if _refits is None:
        _refits = _ClassRefits(X_s, labels, X_t)
    X_t = _refits.X_t

    state = warm_state
    history = []
    model = None
    for _ in range(config.inner_max_iters):
        model = fit_class_subspaces(X_s, labels, X_t, state, config,
                                    _refits=_refits)
        if _refits.changed:
            _refits.dists = compute_distances(model, X_t)
        elif history:
            history.append(history[-1])
            break
        dists = _refits.dists
        W = assign_memberships(dists)
        c = dists.min(axis=1)
        v = anchor(c, lam)
        state = AnchorState(memberships=W, anchors=v, threshold=lam, distances=c)
        history.append(_objective_value(_refits.source_total(), dists, W, v, lam))
        if len(history) >= 2:
            prev = history[-2]
            if abs(history[-1] - prev) <= config.inner_tol * max(1.0, abs(prev)):
                break
    return model, state, history


def _accuracy(pred, truth):
    return float(np.mean(pred == truth))


def fit_progressive(X_s, labels, X_t, config=None, eval_labels=None):
    """Run the full progressive schedule and return (model, trace), with
    trace a list of one StageRecord per stage.

    Stage 0 fits with threshold 0 (source-only initialization); each
    later stage raises the threshold to the quantile of the current
    assigned distances for fraction step, 2*step, ..., 1.0, warm-starting
    the inner solver from the previous stage.  The threshold never
    decreases across stages.  With eval_labels given, each stage records
    the pseudo-label accuracy of the current assignments.
    """
    config = config or PasConfig()
    refits = _ClassRefits(X_s, labels, X_t)
    X_t = refits.X_t
    if X_t.shape[0] == 0:
        raise EmptyTarget("target set is empty")
    if eval_labels is not None:
        eval_labels = np.asarray(eval_labels, dtype=np.int64)
        if eval_labels.shape[0] != X_t.shape[0]:
            raise RangeError("eval label count does not match target rows")

    def record(stage, fraction, lam, state, history):
        acc = None
        if eval_labels is not None:
            acc = _accuracy(np.argmax(state.memberships, axis=1), eval_labels)
        trace.append(StageRecord(stage=stage, fraction=fraction, threshold=lam,
                                 anchored=int(state.anchors.sum()),
                                 objective=history[-1], pseudo_accuracy=acc))

    trace = []
    model, state, history = inner_solve(X_s, labels, X_t, 0.0, None, config,
                                        _refits=refits)
    record(0, 0.0, 0.0, state, history)

    step = config.schedule_step
    num_stages = int(math.ceil(1.0 / step - 1e-9))
    lam = 0.0
    for s in range(1, num_stages + 1):
        fraction = 1.0 if s == num_stages else min(1.0, s * step)
        lam = max(lam, lambda_for_fraction(state.distances, fraction))
        model, state, history = inner_solve(X_s, labels, X_t, lam, state, config,
                                            _refits=refits)
        record(s, fraction, lam, state, history)
    return model, trace


def predict(model, X):
    """Label each row with its minimum-residual subspace index."""
    dists = compute_distances(model, X)
    return np.argmin(dists, axis=1)


# --- model persistence ----------------------------------------------------
#
# JSON schema: {feature_dim, num_classes, label_values,
#               subspaces: [{mean, basis (column-major flat list), spectrum}],
#               config: {dim, schedule_step}}
# Floats are serialized via repr and round-trip exactly, so a reloaded
# model reproduces predictions bit for bit.  Loading ignores the keys
# earlier versions wrote (a top-level dim, and config.seed, inner_tol and
# inner_max_iters); models written before label_values existed load with
# the identity mapping.

LEGACY_CONFIG_KEYS = ("seed", "inner_tol", "inner_max_iters")


def model_to_dict(model):
    subspaces = []
    for S in model.subspaces:
        subspaces.append({
            "mean": [float(x) for x in S.mean],
            "basis": [float(x) for x in S.basis.ravel(order="F")],
            "spectrum": [float(x) for x in S.spectrum],
        })
    return {
        "feature_dim": model.feature_dim,
        "num_classes": model.num_classes,
        "label_values": [int(v) for v in model.label_values],
        "subspaces": subspaces,
        "config": asdict(model.config),
    }


def _subspace_from_dict(entry, d):
    mean = np.asarray(entry["mean"], dtype=float)
    spectrum = np.asarray(entry["spectrum"], dtype=float)
    basis = np.asarray(entry["basis"], dtype=float)
    if mean.shape != (d,):
        raise ConfigError("mean has shape %r, expected (%d,)" % (mean.shape, d))
    if spectrum.ndim != 1:
        raise ConfigError("spectrum must be a flat list")
    r = spectrum.shape[0]
    if basis.shape != (d * r,):
        raise ConfigError("basis has shape %r, expected %d x %d values"
                          % (basis.shape, d, r))
    for name, values in (("mean", mean), ("basis", basis),
                         ("spectrum", spectrum)):
        if not np.isfinite(values).all():
            raise ConfigError("%s contains NaN/Inf" % name)
    # C order, as fit_pca returns it: the residual products then take the
    # same BLAS path, so a reload reproduces every distance bit for bit
    basis = np.ascontiguousarray(basis.reshape((d, r), order="F"))
    # the distance kernel's expansion and its exact fallback agree only
    # for orthonormal columns
    if r and np.abs(basis.T @ basis - np.eye(r)).max() > BASIS_ORTHONORMAL_TOL:
        raise ConfigError("basis columns are not orthonormal within %g"
                          % BASIS_ORTHONORMAL_TOL)
    if (spectrum < 0.0).any() or (np.diff(spectrum) > 0.0).any():
        raise ConfigError("spectrum must be nonnegative and nonincreasing")
    return Subspace(mean=mean, basis=basis, spectrum=spectrum)


def _label_values_from_list(values, num_classes):
    # the values predict writes must load back as a label file
    if (not isinstance(values, list) or len(values) != num_classes
            or any(type(v) is not int or not 0 <= v <= data.LABEL_MAX
                   for v in values)
            or len(set(values)) != num_classes):
        raise ConfigError("label_values must be %d distinct integers in "
                          "[0, 2^63 - 1]" % num_classes)
    return np.array(values, dtype=np.int64)


def model_from_dict(doc):
    """Rebuild a model from its JSON document, raising ConfigError on a
    missing field, unknown config key, inconsistent shape, non-finite
    value, basis that is not orthonormal within BASIS_ORTHONORMAL_TOL,
    spectrum that is negative or increasing, or label_values that are not
    num_classes distinct integers.  The config keys in LEGACY_CONFIG_KEYS
    are ignored, and a document without label_values gets the identity."""
    try:
        d = int(doc["feature_dim"])
        num_classes = int(doc["num_classes"])
        if d < 1 or num_classes < 1:
            raise ConfigError("feature_dim and num_classes must be >= 1, "
                              "got %d and %d" % (d, num_classes))
        config = PasConfig(**{key: value for key, value in doc["config"].items()
                              if key not in LEGACY_CONFIG_KEYS})
        subspaces = [_subspace_from_dict(entry, d) for entry in doc["subspaces"]]
        values = doc.get("label_values")
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError("malformed model document: %s" % exc) from exc
    if len(subspaces) != num_classes:
        raise ConfigError("subspace count does not match num_classes")
    if values is not None:
        values = _label_values_from_list(values, num_classes)
    return PasModel(subspaces=subspaces, config=config, label_values=values)


def save_model(model, path):
    data.atomic_write_text(path, json.dumps(model_to_dict(model), indent=2) + "\n")


def load_model(path):
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError("model file is not valid JSON: %s" % exc) from exc
    return model_from_dict(doc)
