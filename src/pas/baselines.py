"""Reference classifiers: 1-nearest-neighbor and the source-only subspace model."""

import numpy as np
from scipy.spatial.distance import cdist

from .core import PasConfig, SourceLabels, fit_class_subspaces
from .errors import check_matrix

# target rows per distance block: memory stays at NN1_CHUNK_ROWS x n
# distances instead of m x n
NN1_CHUNK_ROWS = 1024


def nn1_classify(source, X_t):
    """Label each target row with the label of its Euclidean-nearest source row.

    Exact pairwise distances, ties to the lowest source index.
    """
    X_s = check_matrix(source.features, "source features")
    X_t = check_matrix(X_t, "target features", width=X_s.shape[1])
    nearest = np.empty(X_t.shape[0], dtype=np.intp)
    for start in range(0, X_t.shape[0], NN1_CHUNK_ROWS):
        rows = slice(start, start + NN1_CHUNK_ROWS)
        nearest[rows] = np.argmin(cdist(X_t[rows], X_s), axis=1)
    return source.labels[nearest]


def pas_c(source, dim=1):
    """Source-only per-class subspace model (no target refinement).

    Identical to the stage-0 initialization of the progressive fit.
    """
    config = PasConfig(dim=dim)
    labels = SourceLabels(labels=source.labels, num_classes=source.num_classes)
    return fit_class_subspaces(source.features, labels, config=config)
