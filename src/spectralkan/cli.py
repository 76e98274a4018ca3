"""Command-line pipeline: synthesize, train, evaluate, count, gradcheck.

Exit codes: 0 on success, 2 for configuration/contract problems, 3 for
dataset or file problems, 4 for a failed numerical check. Option
precedence is flags over ``--config`` JSON values over built-in defaults.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .data import (HsiCube, LabelMap, UNKNOWN, difference, extract_patches,
                   load_cube, load_labels, normalize, patch_set, save_cube,
                   save_labels, save_pgm, stratified_split, synth_dataset)
from .errors import ContractError, DataError, DomainError, UndefinedMetricError
from .metrics import report, tally
from .model import (Model, ModelConfig, Variant, build_model, load_checkpoint,
                    save_checkpoint)
from .spline import make_grid
from .training import TrainConfig, gradient_check, train

CHECK_FAILED = 4

# Share of each class trained on; eval rebuilds the same held-out split.
_TRAIN_FRACTION = 0.01

# Float64 values (2 MiB) that one prediction batch may build in any layer.
_BATCH_VALUES = 2 ** 18


def _parse_nodes(value) -> list[int] | None:
    if value is None:
        return None
    if isinstance(value, str):
        value = [v for v in value.replace(" ", "").split(",") if v]
    try:
        return [int(v) for v in value]
    except (TypeError, ValueError):
        raise ContractError(f"node list must be comma-separated integers, got {value!r}")


def _config_defaults(args: argparse.Namespace) -> dict:
    """Option values from the --config file.

    A file value goes through the type and choices of its flag, as the
    flag's own text would.
    """
    config_path = args.config
    try:
        values = json.loads(Path(config_path).read_text())
    except (RecursionError, ValueError) as exc:
        raise ContractError(f"{config_path}: invalid JSON: {exc}") from exc
    if not isinstance(values, dict):
        raise ContractError(f"{config_path}: config must be a JSON object")
    flags = {action.dest: action for action in args.command_parser._actions
             if action.option_strings
             and action.dest not in ("help", "config", "out_dir")}
    unknown = set(values) - set(flags)
    if unknown:
        raise ContractError(
            f"{config_path}: unknown config keys {sorted(unknown)}")
    return {key: _convert(flags[key], value, config_path)
            for key, value in values.items()}


def _convert(flag: argparse.Action, value, config_path):
    if flag.type is not None:
        try:
            value = flag.type(str(value))
        except ValueError as exc:
            raise ContractError(
                f"{config_path}: {flag.dest} must be {flag.type.__name__}, "
                f"got {value!r}") from exc
    if flag.choices is not None and value not in flag.choices:
        raise ContractError(
            f"{config_path}: {flag.dest} must be one of {list(flag.choices)}, "
            f"got {value!r}")
    return value


def _model_config(args, bands: int) -> ModelConfig:
    p = args.patch_size
    spatial = _parse_nodes(args.spatial_nodes) or [p * p, 16, 1]
    spectral = _parse_nodes(args.spectral_nodes) or [bands, 16, 2]
    return ModelConfig(variant=Variant(args.variant), patch_size=p, bands=bands,
                       spatial_nodes=spatial, spectral_nodes=spectral,
                       grid=make_grid())


def _load_pair(args) -> tuple[HsiCube, HsiCube, LabelMap]:
    x1 = load_cube(args.t1)
    x2 = load_cube(args.t2)
    labels = load_labels(args.labels)
    if (labels.height, labels.width) != (x1.height, x1.width):
        raise ContractError(
            f"label map {labels.height}x{labels.width} does not match cube "
            f"{x1.height}x{x1.width}")
    return x1, x2, labels


def _batch_size(model: Model) -> int:
    """Patches per prediction batch, so that no layer builds more than
    ``_BATCH_VALUES`` float64 values for one batch.

    A KAN layer's widest array is its basis tensor, ``d_in * basis_count``
    values per row; a dense layer's is its input or output. The spatial
    stack runs one row per band, the spectral stack one per patch.
    """
    widest = 0
    for rows, stack in ((model.config.bands, model.spatial_stack),
                        (1, model.spectral_stack)):
        for layer in stack:
            width = (max(layer.d_in, layer.d_out) if layer.kind == "dense"
                     else layer.d_in * layer.grid.basis_count)
            widest = max(widest, rows * width)
    return max(1, _BATCH_VALUES // widest)


def predict_at(model: Model, cube: HsiCube, coords: np.ndarray) -> np.ndarray:
    """Predicted class for each coordinate, extracted and run in batches
    small enough for every layer's arrays to stay in cache."""
    p = model.config.patch_size
    coords = np.asarray(coords)
    batch = _batch_size(model)
    out = np.empty(len(coords), dtype=np.uint8)
    for start in range(0, len(coords), batch):
        patches = extract_patches(cube, coords[start:start + batch], p)
        logits, _ = model.forward(patches, keep=False)
        out[start:start + batch] = np.argmax(logits, axis=1)
    return out


def _write_json(payload: dict, path) -> None:
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n")


def cmd_synth(args) -> int:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    x1, x2, labels = synth_dataset(args.height, args.width, args.bands,
                                   change_fraction=args.change_fraction,
                                   noise_sigma=args.noise_sigma, seed=args.seed)
    save_cube(x1, out / "t1.json")
    save_cube(x2, out / "t2.json")
    save_labels(labels, out / "labels.pgm")
    _write_json({
        "t1": "t1.json", "t2": "t2.json", "labels": "labels.pgm",
        "height": args.height, "width": args.width, "bands": args.bands,
        "change_fraction": args.change_fraction,
        "noise_sigma": args.noise_sigma, "seed": args.seed,
    }, out / "manifest.json")
    print(f"wrote synthetic dataset to {out}")
    return 0


def cmd_train(args) -> int:
    x1, x2, labels = _load_pair(args)
    cube = normalize(difference(x1, x2))
    config = _model_config(args, cube.bands)
    tc = TrainConfig(epochs=args.epochs, batch_size=args.batch_size,
                     base_lr=args.lr, decay_factor=args.decay_factor,
                     decay_every=args.decay_every, seed=args.seed)
    split = stratified_split(labels, args.train_fraction, args.seed)
    train_ps = patch_set(cube, labels, split.train_indices, config.patch_size)
    model = build_model(config, seed=args.seed)
    model, history = train(model, train_ps, tc)

    pred = predict_at(model, cube, split.test_indices)
    truth = labels.labels[split.test_indices[:, 0], split.test_indices[:, 1]]
    metrics = report(tally(pred, truth))

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_checkpoint(model, out / "model.ckpt")
    history.to_csv(out / "history.csv")
    _write_json(metrics, out / "metrics.json")
    print(f"test oa={metrics['oa']:.4f} kappa={metrics['kappa']:.4f} "
          f"({metrics['evaluated_pixels']} pixels)")
    return 0


def cmd_eval(args) -> int:
    model = load_checkpoint(args.checkpoint)
    x1, x2, labels = _load_pair(args)
    if model.config.bands != x1.bands:
        raise ContractError(
            f"checkpoint expects {model.config.bands} bands, dataset has {x1.bands}")
    cube = normalize(difference(x1, x2))
    known = labels.known_coords()
    if len(known) == 0:
        raise DataError("no evaluable pixels: every label is unknown")
    pred = predict_at(model, cube, known)

    change_map = np.full(labels.labels.shape, 128, dtype=np.uint8)
    change_map[known[:, 0], known[:, 1]] = pred * 255

    # Metrics are reported on the held-out split so that evaluating right
    # after training reproduces the training run's final report.
    split = stratified_split(labels, args.train_fraction, args.seed)
    pred_grid = np.full(labels.labels.shape, UNKNOWN, dtype=np.uint8)
    pred_grid[known[:, 0], known[:, 1]] = pred
    test_r, test_c = split.test_indices[:, 0], split.test_indices[:, 1]
    metrics = report(tally(pred_grid[test_r, test_c],
                           labels.labels[test_r, test_c]))

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_pgm(change_map, out / "change_map.pgm")
    _write_json(metrics, out / "metrics.json")
    print(f"test oa={metrics['oa']:.4f} kappa={metrics['kappa']:.4f} "
          f"({metrics['evaluated_pixels']} pixels)")
    return 0


def cmd_count(args) -> int:
    if args.bands is None:
        raise ContractError("--bands is required for accounting")
    config = _model_config(args, args.bands)
    model = build_model(config, seed=0)
    per_layer = []
    for stack_name, stack in (("spatial", model.spatial_stack),
                              ("spectral", model.spectral_stack)):
        for i, layer in enumerate(stack):
            per_layer.append({
                "stack": stack_name, "index": i, "kind": layer.kind,
                "d_in": layer.d_in, "d_out": layer.d_out,
                "params": layer.param_count(), "flops": layer.flop_count(),
            })
    spatial_nodes, spectral_nodes = config.stack_nodes
    payload = {
        "variant": config.variant.value,
        "patch_size": config.patch_size,
        "bands": config.bands,
        "spatial_nodes": spatial_nodes,
        "spectral_nodes": spectral_nodes,
        "per_layer": per_layer,
        "total_params": model.total_params(),
        "total_flops": model.total_flops(),
    }
    print(json.dumps(payload, sort_keys=True, indent=1))
    return 0


def cmd_gradcheck(args) -> int:
    p, b = 3, 4
    config = ModelConfig(variant=Variant(args.variant), patch_size=p, bands=b,
                         spatial_nodes=[p * p, 4, 1], spectral_nodes=[b, 4, 2],
                         grid=make_grid())
    model = build_model(config, seed=args.seed)
    rng = np.random.default_rng(args.seed)
    patches = rng.uniform(-0.9, 0.9, size=(8, p, p, b))
    labels = np.arange(8) % 2
    err = gradient_check(model, patches, labels, step=1e-6)
    status = "PASS" if err <= args.threshold else "FAIL"
    print(f"gradcheck variant={config.variant.value} params={model.total_params()} "
          f"max_rel_err={err:.3e} threshold={args.threshold:.1e}: {status}")
    return 0 if status == "PASS" else CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spectralkan",
        description="Spatial-spectral KAN change detection for bi-temporal "
                    "hyperspectral cubes.")
    sub = parser.add_subparsers(dest="command", required=True)
    variants = [v.value for v in Variant]
    variant = ModelConfig.variant.value

    sy = sub.add_parser("synth", help="write a synthetic bi-temporal dataset")
    sy.add_argument("--height", type=int, default=64)
    sy.add_argument("--width", type=int, default=64)
    sy.add_argument("--bands", type=int, default=30)
    sy.add_argument("--change-fraction", type=float, default=0.3)
    sy.add_argument("--noise-sigma", type=float, default=0.1)
    sy.add_argument("--seed", type=int, default=0)
    sy.add_argument("--out-dir", required=True)
    sy.set_defaults(func=cmd_synth)

    tr = sub.add_parser("train", help="train a variant and evaluate the test split")
    tr.add_argument("t1", help="first-epoch cube header (.json)")
    tr.add_argument("t2", help="second-epoch cube header (.json)")
    tr.add_argument("labels", help="ground-truth PGM")
    tr.add_argument("--config", help="JSON file with option defaults")
    tr.add_argument("--variant", choices=variants, default=variant)
    tr.add_argument("--patch-size", type=int, dest="patch_size",
                    default=ModelConfig.patch_size)
    tr.add_argument("--spatial-nodes", dest="spatial_nodes")
    tr.add_argument("--spectral-nodes", dest="spectral_nodes")
    tr.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    tr.add_argument("--batch-size", type=int, dest="batch_size",
                    default=TrainConfig.batch_size)
    tr.add_argument("--lr", type=float, default=TrainConfig.base_lr)
    tr.add_argument("--decay-factor", type=float, dest="decay_factor",
                    default=TrainConfig.decay_factor)
    tr.add_argument("--decay-every", type=int, dest="decay_every",
                    default=TrainConfig.decay_every)
    tr.add_argument("--train-fraction", type=float, dest="train_fraction",
                    default=_TRAIN_FRACTION)
    tr.add_argument("--seed", type=int, default=TrainConfig.seed)
    tr.add_argument("--out-dir", required=True)
    tr.set_defaults(func=cmd_train, command_parser=tr)

    ev = sub.add_parser("eval", help="evaluate a checkpoint and render the change map")
    ev.add_argument("checkpoint")
    ev.add_argument("t1")
    ev.add_argument("t2")
    ev.add_argument("labels")
    ev.add_argument("--config", help="JSON file with option defaults")
    ev.add_argument("--train-fraction", type=float, dest="train_fraction",
                    default=_TRAIN_FRACTION,
                    help="fraction used to reconstruct the held-out split")
    ev.add_argument("--seed", type=int, default=TrainConfig.seed)
    ev.add_argument("--out-dir", required=True)
    ev.set_defaults(func=cmd_eval, command_parser=ev)

    ct = sub.add_parser("count", help="report per-layer parameter/FLOP accounting")
    ct.add_argument("--config", help="JSON file with option defaults")
    ct.add_argument("--variant", choices=variants, default=variant)
    ct.add_argument("--bands", type=int)
    ct.add_argument("--patch-size", type=int, dest="patch_size",
                    default=ModelConfig.patch_size)
    ct.add_argument("--spatial-nodes", dest="spatial_nodes")
    ct.add_argument("--spectral-nodes", dest="spectral_nodes")
    ct.set_defaults(func=cmd_count, command_parser=ct)

    gc = sub.add_parser("gradcheck", help="finite-difference check of a tiny model")
    gc.add_argument("--config", help="JSON file with option defaults")
    gc.add_argument("--variant", choices=variants, default=variant)
    gc.add_argument("--threshold", type=float, default=1e-4)
    gc.add_argument("--seed", type=int, default=0)
    gc.set_defaults(func=cmd_gradcheck, command_parser=gc)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "config", None):
            # Flags still win: the file only replaces the defaults.
            args.command_parser.set_defaults(**_config_defaults(args))
            args = parser.parse_args(argv)
        return args.func(args)
    except (ContractError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DataError, UndefinedMetricError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc.filename or ''}: {exc.strerror or exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
