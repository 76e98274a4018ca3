"""The package's exported names, pinned so removed API cannot return
unnoticed, and the README's library example, run as documented."""

import os
import subprocess
import sys
from pathlib import Path

import spectralkan

ROOT = Path(__file__).resolve().parents[1]

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


def test_readme_library_example_runs(tmp_path):
    section = (ROOT / "README.md").read_text().split("## Library use\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                            capture_output=True, text=True, timeout=600)
    assert result.returncode == 0, result.stderr
