"""The three workloads: their inputs, one job each, and the output checks.

Every job calls the package through the names the CLI module imported
(``cli.train``, ``cli.predict_at``, ``cli.load_cube`` ...), because those
are the names the hooks replace. Inputs are written once per seed by
``generate`` in a separate process and are never part of a timing.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from spectralkan import cli, data, model as model_mod
from spectralkan.model import ModelConfig, Variant

PATCH = 5
VARIANTS = [v.value for v in Variant]


@dataclass(frozen=True)
class Sizes:
    """Input sizes and the amount of work they fix; no seed can change it."""

    c6_scene: tuple = (64, 64, 30)
    c6_epochs: int = 200
    c6_train_patches: int = 40
    c6_test_pixels: int = 4056
    farm_scene: tuple = (450, 140, 155)
    farm_ckpt_epochs: int = 20
    farm_pixels: int = 63000
    farm_test_pixels: int = 62370
    farm_sample: int = 64
    abl_scene: tuple = (32, 32, 155)
    abl_steps: int = 3
    abl_batch: int = 64
    abl_predict: int = 128
    # (OA, kappa) every job must reach. farmland-eval keeps the criterion-6
    # floors; c6-train's sit below them because the 40-patch protocol falls
    # short of 0.95/0.90 on some seeds (kappa 0.86-0.98 over seeds 0-23).
    c6_floors: tuple = (0.90, 0.75)
    farm_floors: tuple = (0.95, 0.90)


CRITERION6 = (0.95, 0.90)


FULL = Sizes()


def _synth(scene: tuple, seed: int, out: Path) -> None:
    h, w, b = scene
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["synth", "--height", str(h), "--width", str(w),
                         "--bands", str(b), "--seed", str(seed),
                         "--out-dir", str(out)])
    if code != 0:
        raise RuntimeError(f"spectralkan synth exited {code}")


def _scene_files(inputs: dict) -> list[str]:
    return [str(inputs["dir"] / n) for n in ("t1.json", "t2.json", "labels.pgm")]


def _config(variant: str, bands: int) -> ModelConfig:
    return ModelConfig(variant=variant, patch_size=PATCH, bands=bands,
                       spatial_nodes=[PATCH * PATCH, 16, 1],
                       spectral_nodes=[bands, 16, 2])


def _run_cli(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"spectralkan {argv[0]} exited {code}")


def _quality(path: Path, pixels: int, floors: tuple) -> tuple[dict, list[str]]:
    metrics = json.loads(path.read_text())
    oa, kappa = metrics["oa"], metrics["kappa"]
    problems = []
    if metrics["evaluated_pixels"] != pixels:
        problems.append(f"evaluated {metrics['evaluated_pixels']} pixels, expected {pixels}")
    if not (oa >= floors[0] and kappa >= floors[1]):
        problems.append(f"oa={oa:.4f} kappa={kappa:.4f} below {floors[0]}/{floors[1]}")
    met = oa >= CRITERION6[0] and kappa >= CRITERION6[1]
    return {"oa": oa, "kappa": kappa, "criterion6_met": int(met)}, problems


def read_pgm(path: Path) -> np.ndarray:
    """Minimal P5 reader for the files ``save_pgm`` writes."""
    blob = path.read_bytes()
    magic, w, h, maxval, rest = blob.split(maxsplit=4)
    if magic != b"P5" or maxval != b"255":
        raise ValueError(f"{path}: not an 8-bit binary PGM")
    w, h = int(w), int(h)
    return np.frombuffer(rest[:w * h], dtype=np.uint8).reshape(h, w)


def mirror_gather(values: np.ndarray, row: int, col: int, p: int) -> np.ndarray:
    """The p x p window at (row, col), reflecting indices past each edge.

    Independent of the package's padding: an index folds with period
    ``2n`` so that the edge row or column is repeated next to itself.
    """
    half = p // 2

    def fold(idx, n):
        idx = np.mod(idx, 2 * n)
        return np.where(idx < n, idx, 2 * n - 1 - idx)

    rows = fold(np.arange(row - half, row + half + 1), values.shape[0])
    cols = fold(np.arange(col - half, col + half + 1), values.shape[1])
    return values[np.ix_(rows, cols)]


class C6Train:
    name = "c6-train"
    why = ("spectralkan train at criterion 6: training and batched inference "
           "both run SharedKanLayer, so a change helping one and hurting the other shows")
    phase_hooks = ("training.train", "cli.predict_at")
    traces_memory = False
    detail_hooks = ("spline.basis_values", "spline.basis_derivatives",
                    "layers.shared.forward", "layers.shared.backward",
                    "layers.sigmoid", "data.extract_patches", "model.forward",
                    "model.backward", "training.adam_step",
                    "model.save_checkpoint", "metrics.tally")

    def __init__(self, sizes: Sizes = FULL):
        self.sizes = sizes

    def generate(self, seed: int, out: Path) -> None:
        _synth(self.sizes.c6_scene, seed, out)

    def job(self, run, epochs: int | None = None) -> None:
        _run_cli(["train", *_scene_files(run.inputs), "--seed", str(run.seed),
                  "--epochs", str(epochs or self.sizes.c6_epochs),
                  "--out-dir", str(run.out_dir)])

    def warm_up(self, run) -> None:
        # Every code path and array shape of a job, with a tenth of the epochs;
        # the other workloads warm up with a whole job.
        self.job(run, epochs=max(1, self.sizes.c6_epochs // 10))

    def check(self, run) -> tuple[dict, list[str]]:
        s = self.sizes
        (args, _), = run.observed["training.train"]
        (p_args, pred), = run.observed["cli.predict_at"]
        values, problems = _quality(run.out_dir / "metrics.json", s.c6_test_pixels,
                                    s.c6_floors)
        values.update(train_patches=args[2].epochs * len(args[1]),
                      predict_pixels=len(p_args[2]))
        if len(args[1]) != s.c6_train_patches or args[2].epochs != s.c6_epochs:
            problems.append(f"trained {len(args[1])} patches for {args[2].epochs} "
                            f"epochs, expected {s.c6_train_patches} for {s.c6_epochs}")
        if len(p_args[2]) != s.c6_test_pixels:
            problems.append(f"predicted {len(p_args[2])} pixels, expected {s.c6_test_pixels}")
        if (run.out_dir / "model.ckpt").stat().st_size == 0:
            problems.append("empty checkpoint")
        # Same seed, same inputs: every job must predict the same labels.
        digest = hash(np.asarray(pred).tobytes())
        first = run.reference.setdefault("predictions", digest)
        if digest != first:
            problems.append("predictions differ from the run's first job")
        return values, problems


class FarmlandEval:
    name = "farmland-eval"
    why = ("spectralkan eval of an mlp-ss checkpoint on a Farmland-sized scene: "
           "no spline work, time goes to cube I/O, padding, sigmoid and reshapes")
    phase_hooks = ("cli.predict_at",)
    traces_memory = False
    detail_hooks = ("data.load_cube", "data.normalize", "data.extract_patches",
                    "model.load_checkpoint", "model.forward",
                    "layers.dense.forward", "layers.sigmoid", "metrics.tally")

    def __init__(self, sizes: Sizes = FULL):
        self.sizes = sizes

    def generate(self, seed: int, out: Path) -> None:
        # The checkpoint comes from the library's own training on the
        # default 1% split; a shorter schedule than the CLI default already
        # clears the criterion-6 floors on these scenes.
        _synth(self.sizes.farm_scene, seed, out)
        x1, x2 = data.load_cube(out / "t1.json"), data.load_cube(out / "t2.json")
        labels = data.load_labels(out / "labels.pgm")
        cube = data.normalize(data.difference(x1, x2))
        split = data.stratified_split(labels, 0.01, seed)
        model = model_mod.build_model(_config("mlp-ss", cube.bands), seed=seed)
        train_ps = data.patch_set(cube, labels, split.train_indices, PATCH)
        cli.train(model, train_ps, cli.TrainConfig(epochs=self.sizes.farm_ckpt_epochs,
                                                   seed=seed))
        model_mod.save_checkpoint(model, out / "model.ckpt")

    def job(self, run) -> None:
        _run_cli(["eval", str(run.inputs["dir"] / "model.ckpt"),
                  *_scene_files(run.inputs), "--seed", str(run.seed),
                  "--out-dir", str(run.out_dir)])

    def check(self, run) -> tuple[dict, list[str]]:
        s = self.sizes
        (p_args, pred), = run.observed["cli.predict_at"]
        model, cube, coords = p_args
        values, problems = _quality(run.out_dir / "metrics.json", s.farm_test_pixels,
                                    s.farm_floors)
        values["predict_pixels"] = len(coords)
        if len(coords) != s.farm_pixels:
            problems.append(f"predicted {len(coords)} pixels, expected {s.farm_pixels}")
        labels = read_pgm(run.inputs["dir"] / "labels.pgm")
        change_map = read_pgm(run.out_dir / "change_map.pgm")
        known = labels != data.UNKNOWN
        if change_map.shape != labels.shape:
            return values, problems + [f"change map {change_map.shape} vs {labels.shape}"]
        if not np.array_equal(change_map != 128, known) or \
                not np.all(np.isin(change_map[known], (0, 255))):
            problems.append("change map does not cover exactly the known pixels with 0/255")
        if not np.array_equal(change_map[coords[:, 0], coords[:, 1]], pred * 255):
            problems.append("change map differs from predict_at's labels")
        rng = np.random.default_rng(run.seed)
        for i in rng.choice(len(coords), size=min(s.farm_sample, len(coords)), replace=False):
            r, c = coords[i]
            patch = mirror_gather(cube.values, r, c, model.config.patch_size)
            logits, _ = model.forward(patch[None].astype(np.float64))
            if int(np.argmax(logits[0])) != int(pred[i]):
                problems.append(f"pixel ({r}, {c}): single-patch label differs from predict_at")
                break
        return values, problems


class AblationB155:
    name = "ablation-b155"
    why = ("all six variants at p=5, b=155: the only load on FullKanLayer, the wide "
           "kan-enc layer, dense backward and Adam over 620k parameters")
    phase_hooks = ("training.train", "cli.predict_at")
    traces_memory = True  # peak_alloc_mb per variant
    detail_hooks = ("spline.basis_values", "spline.basis_derivatives",
                    "layers.full.forward", "layers.full.backward",
                    "layers.shared.forward", "layers.shared.backward",
                    "layers.dense.forward", "layers.dense.backward",
                    "training.adam_step", "model.forward", "model.backward")

    def __init__(self, sizes: Sizes = FULL):
        self.sizes = sizes

    def generate(self, seed: int, out: Path) -> None:
        _synth(self.sizes.abl_scene, seed, out)

    def job(self, run) -> None:
        s = self.sizes
        t1, t2, lab = _scene_files(run.inputs)
        cube = cli.normalize(cli.difference(cli.load_cube(t1), cli.load_cube(t2)))
        labels = cli.load_labels(lab)
        known = labels.known_coords()
        pick = np.random.default_rng(run.seed).choice(
            len(known), size=s.abl_batch + s.abl_predict, replace=False)
        train_ps = cli.patch_set(cube, labels, known[pick[:s.abl_batch]], PATCH)
        predict_coords = known[pick[s.abl_batch:]]
        config = cli.TrainConfig(epochs=s.abl_steps, batch_size=s.abl_batch, seed=run.seed)
        for variant in VARIANTS:
            model = cli.build_model(_config(variant, cube.bands), seed=run.seed)
            run.variant_start(variant, model)
            model, history = cli.train(model, train_ps, config)
            cli.predict_at(model, cube, predict_coords)
            run.variant_end(variant)

    def check(self, run) -> tuple[dict, list[str]]:
        s = self.sizes
        problems = []
        trains = run.observed["training.train"]
        values = {"train_patches": sum(a[2].epochs * len(a[1]) for a, _ in trains),
                  "predict_pixels": sum(len(a[2]) for a, _ in run.observed["cli.predict_at"])}
        if [a[0].config.variant.value for a, _ in trains] != VARIANTS:
            problems.append("did not train each variant once, in order")
        for (args, (model, history)), (p_args, pred) in zip(
                trains, run.observed["cli.predict_at"]):
            variant = model.config.variant.value
            if len(args[1]) != s.abl_batch or len(history.losses) != s.abl_steps:
                problems.append(f"{variant}: {len(history.losses)} steps on "
                                f"{len(args[1])} patches")
            if not all(np.isfinite(history.losses)):
                problems.append(f"{variant}: non-finite loss")
            if not all(np.all(np.isfinite(p)) for p in model.parameters()):
                problems.append(f"{variant}: non-finite parameters")
            if len(pred) != s.abl_predict or not np.all(np.isin(pred, (0, 1))):
                problems.append(f"{variant}: bad predictions")
            if run.recorded_flops.get(variant) != model.total_flops():
                problems.append(f"{variant}: recorded FLOPs {run.recorded_flops.get(variant)} "
                                f"!= total_flops() {model.total_flops()}")
        return values, problems


WORKLOADS = {w.name: w for w in (C6Train, FarmlandEval, AblationB155)}


if __name__ == "__main__":
    # Input generation, run in a child process by run.py:
    #   workloads.py <workload> <seed> <directory> <Sizes fields as JSON>
    name, seed, directory, sizes = sys.argv[1:]
    WORKLOADS[name](Sizes(**json.loads(sizes))).generate(int(seed), Path(directory))
