"""Per-class subspace domain adaptation with progressive sample anchoring.

The package learns one affine subspace per source class, then adapts the
subspaces to an unlabeled target domain by progressively anchoring the
target samples whose reconstruction residual falls below a rising
threshold.  The fitted subspaces double as the target classifier.
"""

from .baselines import nn1_classify, pas_c
from .core import (
    AnchorState,
    PasConfig,
    PasModel,
    SourceLabels,
    StageRecord,
    compute_distances,
    fit_class_subspaces,
    fit_progressive,
    load_model,
    objective,
    predict,
    save_model,
)
from .data import (
    LabeledDataset,
    Shift,
    SynthConfig,
    UnlabeledDataset,
    load_features,
    load_labeled,
    load_labels,
    save_features,
    save_labels,
    synth_shifted_pair,
)
from .diagnostics import DensityRatioModel, adr, anchoring_report, kliep_fit
from .subspace import Subspace, fit_pca, residuals_sq

__version__ = "0.1.0"

__all__ = [
    "AnchorState", "DensityRatioModel", "LabeledDataset",
    "PasConfig", "PasModel", "Shift", "SourceLabels", "StageRecord",
    "Subspace", "SynthConfig", "UnlabeledDataset", "adr",
    "anchoring_report", "compute_distances", "fit_class_subspaces",
    "fit_pca", "fit_progressive", "kliep_fit", "load_features",
    "load_labeled", "load_labels", "load_model", "nn1_classify",
    "objective", "pas_c", "predict", "residuals_sq", "save_features",
    "save_labels", "save_model", "synth_shifted_pair",
]
