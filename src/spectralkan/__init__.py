"""Spatial-spectral Kolmogorov-Arnold networks for hyperspectral change
detection.

The package provides B-spline activation machinery, three learnable layer
kinds with hand-derived backward passes, six model variants over one or
two layer stacks, a deterministic Adam training loop, a bi-temporal data
pipeline with stratified splits, OA/Kappa metrics, and a CLI
(``spectralkan``) that ties them together. Parameter and FLOP accounting
is exact and independent of parameter values.
"""

from .data import (HsiCube, LabelMap, PatchSet, SplitSpec, difference,
                   extract_patches, load_cube, load_labels, normalize,
                   patch_set, save_cube, save_labels, stratified_split,
                   synth_dataset)
from .errors import (ContractError, DataError, DomainError,
                     UndefinedMetricError)
from .layers import DenseLayer, FullKanLayer, SharedKanLayer, init_params
from .metrics import ConfusionMatrix, kappa, overall_accuracy, report, tally
from .model import (Model, ModelConfig, Variant, build_model,
                    load_checkpoint, save_checkpoint)
from .spline import SplineGrid, basis_derivatives, basis_values
from .training import (AdamState, TrainConfig, TrainHistory, adam_step,
                       gradient_check, lr_at, softmax_cross_entropy, train)

__version__ = "0.1.0"

__all__ = [
    "HsiCube", "LabelMap", "PatchSet", "SplitSpec", "difference",
    "extract_patches", "load_cube", "load_labels", "normalize", "patch_set",
    "save_cube", "save_labels", "stratified_split", "synth_dataset",
    "ContractError", "DataError", "DomainError", "UndefinedMetricError",
    "DenseLayer", "FullKanLayer", "SharedKanLayer", "init_params",
    "ConfusionMatrix", "kappa", "overall_accuracy", "report", "tally",
    "Model", "ModelConfig", "Variant", "build_model", "load_checkpoint",
    "save_checkpoint",
    "SplineGrid", "basis_derivatives", "basis_values",
    "AdamState", "TrainConfig", "TrainHistory", "adam_step",
    "gradient_check", "lr_at", "softmax_cross_entropy", "train",
    "__version__",
]
