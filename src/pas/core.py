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
checks the fit's inputs once and centres the target rows once.  A class
whose anchored target rows are unchanged keeps its subspace, its source
residual total and its distance column bit for bit instead of being
refitted; only the columns of refitted classes are recomputed, which can
move their last bits against a recomputation of every column.  A refit
that changes no class ends the inner loop; at the start of a stage it
leaves the warm state's assignments and distances as they are.  A state
holds memberships as class indices, checked once when a fit starts.

Each class keeps one summary of its source rows, chosen once per fit by
pas.subspace.source_summary: its moments (count, mean and centred
scatter) when it has at least d source rows, else the rows themselves.
Every refit of a class, with anchored rows or none, is one call of its
summary's fit on the anchored rows, which returns the subspace and the
class's source residual total, so the objective sums stored floats."""

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import data
from .errors import (ConfigError, DimensionMismatch, EmptyTarget, NonFinite,
                     RangeError, check_count, check_fraction, check_labels,
                     check_matrix)
# fit_pca stays bound here: benchmarks/tracer.py looks up core.fit_pca when
# tracing starts
from .subspace import Subspace, fit_pca, residuals_sq, source_summary

# The expanded residual loses about d * eps of ||x - c||^2 + ||mu_k - c||^2
# to cancellation, so a cell above this fraction of that sum keeps a
# relative error below about d * eps / 1e-5 (5.7e-9 at d = 256; random
# stress cases up to d = 259 and offsets up to 1e5 stayed within 1e-10).
# Cells at or below it are recomputed with the exact per-class residual.
EXACT_FALLBACK_REL = 1e-5

# Largest |B'B - I| entry a loaded basis may show.  fit_pca's bases are
# orthonormal to rounding, but earlier versions' Gram route wrote bases off
# by about eps / RANK_TOL (2.2e-4) near the rank cutoff (probe fits reached
# 3.1e-4), which must still load.  A genuinely wrong basis is off by order 1.
BASIS_ORTHONORMAL_TOL = 1e-3

# Smallest schedule_step: a fit runs ceil(1 / step) stages, so this caps
# them at 10^6 and keeps 1 / step finite.
MIN_SCHEDULE_STEP = 1e-6


@dataclass
class PasConfig:
    """Solver configuration.

    dim is the requested per-class subspace dimension (1 is a good
    closed-set default; around 10 suits partial-DA with many source
    classes).  schedule_step is the anchored-fraction increment per
    stage, in [MIN_SCHEDULE_STEP, 1], so that a fit runs at most 10^6
    stages.  All tie-breaks are deterministic (smallest index).
    """

    dim: int = 1
    schedule_step: float = 0.01
    # the inner solver's fixed stopping rule: class attributes, not fields
    inner_tol = 1e-6
    inner_max_iters = 50

    def __post_init__(self):
        # plain Python numbers, so a numpy scalar saves to JSON
        self.dim = check_count(self.dim, "dim")
        self.schedule_step = check_fraction(self.schedule_step, "schedule_step", 1.0)
        if self.schedule_step < MIN_SCHEDULE_STEP:
            raise ConfigError("schedule_step must be at least %r, got %r"
                              % (MIN_SCHEDULE_STEP, self.schedule_step))


@dataclass
class SourceLabels:
    """Class indices in {0..num_classes-1}; every class must occur."""

    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        values = np.asarray(self.labels)
        if values.ndim != 1:
            raise DimensionMismatch("labels must be a 1-D vector")
        labels = check_labels(values, values.shape[0], "source", np.int64)
        self.num_classes = check_count(self.num_classes, "num_classes", RangeError)
        if labels.size and (labels.min() < 0 or labels.max() >= self.num_classes):
            raise RangeError("labels outside {0..%d}" % (self.num_classes - 1))
        present = np.unique(labels)
        if present.size != self.num_classes:
            missing = sorted(set(range(self.num_classes)) - set(present.tolist()))
            raise RangeError("source classes %r have no samples" % (missing,))
        object.__setattr__(self, "labels", labels)


@dataclass
class AnchorState:
    """Target-side state: each row's class index and anchor indicator v,
    threshold, distances; memberships is the one-hot W, built when read."""

    assigned: np.ndarray      # (m,) class indices in {0..num_classes-1}
    anchors: np.ndarray       # (m,) in {0, 1}
    threshold: float
    distances: np.ndarray     # (m,) residual to the assigned subspace
    num_classes: int

    memberships = property(
        lambda self: np.eye(self.num_classes, dtype=np.int64)[self.assigned])


def _check_state(state, m, K):
    a, v = state.assigned, state.anchors
    if a.shape != (m,) or v.shape != (m,):
        raise DimensionMismatch("state must hold %d membership class indices and %d "
                                "anchors, got membership shape %r and anchor shape %r"
                                % (m, m, a.shape, v.shape))
    if (state.num_classes != K or a.dtype.kind not in "iu"
            or m and not 0 <= a.min() <= a.max() < K):
        raise RangeError("state must have %d classes and integer class indices in "
                         "{0..%d}, got num_classes %r" % (K, K - 1, state.num_classes))
    if not np.isin(v, (0, 1)).all():
        raise RangeError("state anchors must be 0 or 1")


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
    inner_iters: int     # len(history) of the stage's inner_solve
    converged: bool      # whether that history met _converged
    pseudo_accuracy: float | None = None


def _centred_rows(X_t):
    """(centre, X_t - centre, row-wise squared norms of X_t - centre), with
    centre the mean of the rows of X_t (0 for an empty X_t)."""
    centre = X_t.sum(axis=0) / max(X_t.shape[0], 1)
    X_c = X_t - centre
    return centre, X_c, np.einsum("ij,ij->i", X_c, X_c)


@np.errstate(over="ignore", invalid="ignore")
def compute_distances(model, X_t, _memo=None):
    """m x K matrix of squared residuals of each row to each class subspace.

    With c the mean of the rows of X_t, one GEMM gives (x - c) against
    every centred mean mu_k - c and every basis column b, and each cell is
    ||x - c||^2 - 2 (x - c)'(mu_k - c) + ||mu_k - c||^2
    - sum over the columns b of class k of ((x - c)'b - (mu_k - c)'b)^2,
    clamped at 0.  Cells at or below EXACT_FALLBACK_REL times
    ||x - c||^2 + ||mu_k - c||^2 are recomputed with residuals_sq.

    The solver passes its refit memo as _memo, which holds the checked
    X_t centred once per fit, the distance matrix of its previous
    subspaces and the classes its last refit changed; only those columns
    are recomputed and written in place.  Overflow raises NonFinite.
    """
    if _memo is None:
        X_t = check_matrix(X_t, "target features", width=model.feature_dim)
        centre, X_c, x_sq = _centred_rows(X_t)
        classes, dists = range(model.num_classes), None
    else:
        # before its first distances the memo has refitted every class
        centre, X_c, x_sq = _memo.centre, _memo.X_c, _memo.x_sq
        classes, dists = _memo.refitted, _memo.dists
    subspaces = [model.subspaces[k] for k in classes]
    n = len(subspaces)
    dims = [S.effective_dim for S in subspaces]
    # filled in place so the GEMM operand is C-ordered whatever the bases'
    # order, which keeps the products bitwise reproducible
    stacked = np.empty((X_c.shape[1], n + sum(dims)))
    means, bases = stacked[:, :n], stacked[:, n:]
    # the centre comes from the rows, not the model, so it is fixed for a
    # fit and a class's column depends on that class alone: a class whose
    # subspace did not change keeps bitwise-equal distances, so a row whose
    # distance set the threshold is not anchored by rounding (anchoring is
    # the strict c < lam)
    np.subtract(np.array([S.mean for S in subspaces]).T, centre[:, None], out=means)
    np.concatenate([S.basis for S in subspaces], axis=1, out=bases)
    owner = np.repeat(np.arange(n), dims)

    # worked class by row, so each elementwise step runs along the m rows;
    # the class sums of squares stay one product, on an (m, r) C-ordered array
    G = np.ascontiguousarray((X_c @ stacked).T)
    mu_sq = np.einsum("ij,ij->j", means, means)
    proj = G[n:] - np.einsum("ij,ij->j", means[:, owner], bases)[:, None]
    scale = mu_sq[:, None] + x_sq
    squares = np.ascontiguousarray((proj * proj).T)
    block = np.maximum(scale - 2.0 * G[:n] - (squares @ np.eye(n)[owner]).T, 0.0)

    low = block <= EXACT_FALLBACK_REL * scale
    for j in np.flatnonzero(low.any(axis=1)):
        rows = np.flatnonzero(low[j])
        block[j, rows] = residuals_sq(subspaces[j], X_t[rows])
    check_matrix(block, "distance matrix")
    if dists is None:
        return np.ascontiguousarray(block.T)
    dists[:, classes] = block.T
    return dists


# no solver caller: benchmarks/tracer.py looks up core.assign_memberships
def assign_memberships(dists):
    """One-hot assignment of each row to its minimum-distance class.

    Ties break to the smallest class index, which makes runs
    deterministic.
    """
    dists = check_matrix(dists, "distance matrix")
    return np.eye(dists.shape[1], dtype=np.int64)[np.argmin(dists, axis=1)]


def anchor(c, lam):
    """Indicator of samples anchored at threshold lam: 1 iff c_j < lam (strict)."""
    return (c < lam).astype(np.int64)


def lambda_for_fraction(c, fraction):
    """Smallest threshold anchoring at least ceil(fraction * m) of the m
    distances c; fraction = 1 returns a value strictly above max(c).

    fit_progressive passes its m >= 1 row distances and a fraction in
    [schedule_step, 1], so at least one row is anchored.
    """
    # the 1e-9 guard absorbs float noise in fraction * m (e.g. 17 * 0.01 * 300)
    t = int(math.ceil(fraction * c.size - 1e-9))
    # the t-th smallest value; every value above it lies after index t - 1
    s = np.partition(c, t - 1)
    u, rest = s[t - 1], s[t:]
    bigger = rest[rest > u]
    return float(bigger.min()) if bigger.size else float(u * (1.0 + 1e-9) + 1e-12)


def _objective_value(source_total, c, v, lam):
    target_term = float((v * c).sum())
    return source_total + target_term - lam * float(v.sum())


def objective(model, X_s, labels, X_t, state):
    """Unified objective: source residuals + anchored target residuals - lam * #anchored.

    A fresh refit memo checks the inputs and state and sums the source
    term over model's subspaces from its source summaries; a model of
    another width than X_s or another class count than labels raises
    DimensionMismatch, and overflow NonFinite."""
    if model.num_classes != labels.num_classes:
        raise DimensionMismatch("model has %d classes, labels %d"
                                % (model.num_classes, labels.num_classes))
    with np.errstate(over="ignore", invalid="ignore"):
        refits = _ClassRefits(X_s, labels, X_t, state)
        dists = compute_distances(model, refits.X_t)
        refits.residuals = [source.residual(S)
                            for source, S in zip(refits.sources, model.subspaces)]
    return _objective_value(refits.source_total(),
                            dists[np.arange(dists.shape[0]), state.assigned],
                            state.anchors, state.threshold)


class _ClassRefits:
    """Per-class refit memo for the life of one fit.

    Its constructor is where a fit and objective check their inputs: X_s and,
    when given, X_t must be 2-D and finite with equal widths, labels must
    have one entry per source row, and a state must hold (m,) class
    indices in {0..K-1}, (m,) anchors in {0, 1} and num_classes K, with m
    the rows of X_t (0 without it).  It holds the checked X_t (no rows
    without it) and, for compute_distances, X_t centred on the mean of its
    rows with their squared norms; sources, each class's source summary
    (pas.subspace.source_summary), which stands in for its source rows;
    key, each target row's class index if anchored and K if not, as of the
    last refit (class k's subspace was fitted on the rows keyed k); and
    per class that subspace and its source residual total, both returned
    by the summary's fit at refit.  refitted lists the classes the last
    refit fitted anew, and dists is the distance matrix of the current
    subspaces once the solver has set it.
    """

    def __init__(self, X_s, labels, X_t=None, state=None):
        X_s = check_matrix(X_s, "source features")
        check_labels(labels.labels, X_s.shape[0], "source")
        X_t = check_matrix(X_s[:0] if X_t is None else X_t, "target features",
                           width=X_s.shape[1])
        self.centre, self.X_c, self.x_sq = _centred_rows(X_t)
        self.X_t, self.m = X_t, X_t.shape[0]
        self.sources = [source_summary(X_s[labels.labels == k])
                        for k in range(labels.num_classes)]
        K = len(self.sources)
        if state is not None:
            _check_state(state, self.m, K)
        self.key = None
        self.subspaces = [None] * K
        self.residuals = [None] * K
        self.refitted = []
        self.dists = None

    def refit(self, state, dim):
        """Fit each class on its source rows followed by the target rows
        assigned to it with anchor indicator 1, in row order, by its source
        summary's fit, keeping the class's source residual total with the
        subspace; a class whose anchored rows equal those of its stored
        subspace keeps both.  Sets refitted to the indices of the classes
        refitted."""
        K = len(self.sources)
        key = (np.full(self.m, K) if state is None
               else np.where(state.anchors, state.assigned, K))
        if self.key is None:
            changed = range(K)
        else:
            # a row whose key moved changes the rows of both its classes
            moved = (key != self.key).nonzero()[0]
            changed = sorted({*key[moved].tolist(), *self.key[moved].tolist()} - {K})
        self.key, self.refitted = key, list(changed)
        for k in self.refitted:
            self.subspaces[k], self.residuals[k] = self.sources[k].fit(
                self.X_t[key == k], dim)
        return list(self.subspaces)

    def source_total(self):
        """Source residual total of the current subspaces: the classes'
        stored totals, summed in class order from 0.0.  A total that is not
        finite (a refit overflowed) raises NonFinite."""
        total = 0.0
        for residual in self.residuals:
            total += residual
        if not math.isfinite(total):
            raise NonFinite("source residuals contains NaN/Inf")
        return total


def fit_class_subspaces(X_s, labels, X_t=None, state=None, config=None,
                        _refits=None):
    """Fit one subspace per class on its source rows plus anchored targets.

    For class k the fitting set is the source rows labeled k followed by
    the target rows assigned to k with anchor indicator 1, in row order.
    With no state (or nothing anchored) this is the per-class source PCA,
    up to rounding for a class fitted from its moments (at least d source
    rows).  Overflow raises NonFinite.  The solver passes its per-fit memo
    as _refits, so only the classes whose anchored rows changed are refitted.
    """
    config = config or PasConfig()
    if _refits is not None:   # fit_progressive checks the solver's fit
        return PasModel(subspaces=_refits.refit(state, config.dim), config=config)
    with np.errstate(over="ignore", invalid="ignore"):
        refits = _ClassRefits(X_s, labels, X_t, state)
        model = PasModel(subspaces=refits.refit(state, config.dim), config=config)
    refits.source_total()   # NonFinite on overflow
    return model


def inner_solve(X_s, labels, X_t, lam, warm_state, config, _refits):
    """Alternate the block updates at a fixed threshold until convergence.

    Returns (model, state, history) where history holds the objective
    after every full iteration; it is nonincreasing up to roundoff
    because each block update is a global minimizer given the others.
    A refit that changes no class would rebuild the same distances: after
    the first iteration the loop records the last objective once more and
    stops; on the first it keeps the warm state's assignments and distances,
    since every state returned was built from the distances left in the
    refit memo _refits.  The one caller, fit_progressive, checks the inputs
    (X_t is the memo's) and sets the errstate; overflow raises NonFinite.
    """
    state, history = warm_state, []
    for _ in range(config.inner_max_iters):
        model = fit_class_subspaces(X_s, labels, X_t, state, config,
                                    _refits=_refits)
        if _refits.refitted:
            _refits.dists = compute_distances(model, X_t, _memo=_refits)
            assigned = _refits.dists.argmin(axis=1)
            c = _refits.dists[np.arange(assigned.size), assigned]   # the row minima
        elif history:
            history.append(history[-1])
            break
        else:   # the warm state was built from the memo's distances
            assigned, c = state.assigned, state.distances
        v = anchor(c, lam)
        state = AnchorState(assigned, v, lam, c, len(_refits.sources))
        history.append(_objective_value(_refits.source_total(), c, v, lam))
        if _converged(history, config):
            break
    return model, state, history


def _converged(history, config):
    """The stopping rule: the last two objectives agree to inner_tol."""
    return (len(history) >= 2 and abs(history[-1] - history[-2])
            <= config.inner_tol * max(1.0, abs(history[-2])))


@np.errstate(over="ignore", invalid="ignore")
def fit_progressive(X_s, labels, X_t, config=None, eval_labels=None):
    """Run the full progressive schedule and return (model, trace), with
    trace a list of one StageRecord per stage; overflow raises NonFinite.

    Stage 0 fits with threshold 0 (source-only initialization); each
    later stage raises the threshold to the quantile of the current
    assigned distances for fraction step, 2*step, ..., 1.0, warm-starting
    the inner solver from the previous stage.  The threshold never
    decreases across stages.  Each stage records its inner iterations (a
    no-change exit counts as one) and whether it met the stopping rule
    before inner_max_iters.  With eval_labels given, each stage records
    the pseudo-label accuracy of the current assignments.
    """
    config = config or PasConfig()
    refits = _ClassRefits(X_s, labels, X_t)
    X_t = refits.X_t
    if X_t.shape[0] == 0:
        raise EmptyTarget("target set is empty")
    if eval_labels is not None:
        eval_labels = check_labels(eval_labels, X_t.shape[0], "eval", np.int64)

    step = config.schedule_step
    num_stages = int(math.ceil(1.0 / step - 1e-9))
    trace, state, lam = [], None, 0.0
    for s in range(num_stages + 1):
        fraction = 1.0 if s == num_stages else min(1.0, s * step)
        if s > 0:
            lam = max(lam, lambda_for_fraction(state.distances, fraction))
        model, state, history = inner_solve(X_s, labels, X_t, lam, state, config,
                                            _refits=refits)
        acc = None if eval_labels is None else float(
            np.mean(state.assigned == eval_labels))
        trace.append(StageRecord(stage=s, fraction=fraction, threshold=lam,
                                 anchored=int(state.anchors.sum()),
                                 objective=history[-1], inner_iters=len(history),
                                 converged=_converged(history, config),
                                 pseudo_accuracy=acc))
    return model, trace


def predict(model, X):
    """Label each row with its minimum-residual subspace index."""
    return np.argmin(compute_distances(model, X), axis=1)


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
    subspaces = [{"mean": [float(x) for x in S.mean],
                  "basis": [float(x) for x in S.basis.ravel(order="F")],
                  "spectrum": [float(x) for x in S.spectrum]}
                 for S in model.subspaces]
    return {"feature_dim": model.feature_dim, "num_classes": model.num_classes,
            "label_values": [int(v) for v in model.label_values],
            "subspaces": subspaces, "config": asdict(model.config)}


def _subspace_from_dict(entry, d):
    mean, spectrum, basis = (np.asarray(entry[key], dtype=float)
                             for key in ("mean", "spectrum", "basis"))
    if mean.shape != (d,):
        raise ConfigError("mean has shape %r, expected (%d,)" % (mean.shape, d))
    if spectrum.ndim != 1:
        raise ConfigError("spectrum must be a flat list")
    r = spectrum.shape[0]
    # fit_pca keeps at most d columns; the check on B^T B below is r x r
    if r > d:
        raise ConfigError("spectrum has %d values, more than feature_dim %d"
                          % (r, d))
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
        d = check_count(doc["feature_dim"], "feature_dim")
        num_classes = check_count(doc["num_classes"], "num_classes")
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
        except (json.JSONDecodeError, RecursionError) as exc:
            raise ConfigError("model file is not readable JSON: %s" % exc) from exc
    return model_from_dict(doc)
