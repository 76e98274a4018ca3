"""The package's exported names, pinned so removed API cannot return unnoticed."""

import spectralkan

PUBLIC = [
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


def test_all_is_pinned():
    assert spectralkan.__all__ == PUBLIC


def test_every_exported_name_resolves():
    for name in spectralkan.__all__:
        assert getattr(spectralkan, name, None) is not None, name
