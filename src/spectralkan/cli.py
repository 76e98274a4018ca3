"""Command-line pipeline: synthesize, train, evaluate, count, gradcheck.

``train`` and ``eval`` hold one scene cube, the normalized difference of
the two epochs built in the array the first epoch is read into, and
report on the same held-out split.

Exit codes: 0 on success, 2 for configuration/contract problems and for
arrays too large for memory, 3 for dataset or file problems, 4 for a
failed numerical check. Option
precedence is flags over ``--config`` JSON values over built-in defaults.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import sys
from pathlib import Path

import numpy as np

# ``difference`` is not called here; it stays importable as ``cli.difference``
# for the benchmark jobs, which difference in memory through this module.
from .data import (HsiCube, LabelMap, difference, extract_patches,
                   load_cube, load_labels, normalize, patch_set, save_cube,
                   save_labels, save_pgm, stratified_split, subtract_cube,
                   synth_dataset, UNKNOWN, _checked_payload, _pixel_coords)
from .errors import ContractError, DataError, DomainError, UndefinedMetricError
from .metrics import report, tally
from .model import (Model, ModelConfig, Variant, _outline, build_model,
                    load_checkpoint, save_checkpoint)
from .training import TrainConfig, gradient_check, train

CHECK_FAILED = 4

# Share of each class trained on; eval rebuilds the same held-out split.
_TRAIN_FRACTION = 0.01

# glibc's malloc(3) parameters, fixed when ``main`` starts. By default the
# mmap and trim thresholds follow the largest block freed so far, so
# whether each prediction batch page-faults its memory afresh would hang
# on which arrays happened to be freed before it.
_MALLOC_THRESHOLDS = ((-3, 32 << 20),  # M_MMAP_THRESHOLD
                      (-1, 64 << 20))  # M_TRIM_THRESHOLD
try:
    _mallopt = ctypes.CDLL(None).mallopt
    _mallopt.argtypes, _mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
except (AttributeError, OSError, TypeError):  # no mallopt: not glibc
    _mallopt = None


def _parse_nodes(value) -> list[int] | None:
    """Node list from flag text or a --config list; ``None`` when absent
    or empty, which selects the config's default. An empty field, as in
    ``25,,1``, is an error."""
    if value is None:
        return None
    try:
        if not isinstance(value, str):
            # A list reads as its comma-joined text, so 25.0 and true fail
            # as they would in the flag.
            value = ",".join(map(str, value))
        text = value.replace(" ", "")
        return [int(v) for v in text.split(",")] if text else None
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
    return ModelConfig(variant=Variant(args.variant), patch_size=args.patch_size,
                       bands=bands, spatial_nodes=_parse_nodes(args.spatial_nodes),
                       spectral_nodes=_parse_nodes(args.spectral_nodes))


def _load_scene(args, bands: int | None = None) -> tuple[HsiCube, LabelMap]:
    """The label map, checked to hold a known pixel before either epoch is
    read, then the normalized difference cube, built in the array that
    ``load_cube`` reads the first epoch into. A checkpoint's band count,
    if given as ``bands``, is compared with t1's header before any payload
    is read."""
    labels = load_labels(args.labels)
    if np.all(labels.labels == UNKNOWN):
        raise DataError("no evaluable pixels: every label is unknown")
    if bands is not None:
        (_, _, found), _ = _checked_payload(Path(args.t1))
        if found != bands:
            raise ContractError(
                f"checkpoint expects {bands} bands, dataset has {found}")
    cube = subtract_cube(load_cube(args.t1), args.t2)
    cube = normalize(cube, out=cube.values)
    if (labels.height, labels.width) != (cube.height, cube.width):
        raise ContractError(
            f"label map {labels.height}x{labels.width} does not match cube "
            f"{cube.height}x{cube.width}")
    return cube, labels


_BATCH_VALUES = 2 ** 18  # float64 values (2 MiB) per layer and prediction batch


def _batch_size(model: Model) -> int:
    """Patches per prediction batch, so that no layer builds more than
    ``_BATCH_VALUES`` float64 values (2 MiB) for one batch, a budget of
    prediction alone (a KAN backward walks ``spline._row_blocks``).

    A KAN layer counts as its basis tensor, ``d_in * basis_count`` values
    per row; a dense layer's widest array is its input or output. Only the
    full layer still builds that tensor in prediction, where the shared
    layer evaluates its spline in pp-form. The rule stays as it is: the
    shared and dense layers' products round a row by its place in the
    batch, so a different batch plan would move change-map bits.
    """
    widest = 0
    for _, stack, rows in model.stacks():
        for layer in stack:
            width = (max(layer.d_in, layer.d_out) if layer.kind == "dense"
                     else layer.d_in * layer.grid.basis_count)
            widest = max(widest, rows * width)
    return max(1, _BATCH_VALUES // widest)


def predict_at(model: Model, cube: HsiCube, coords: np.ndarray) -> np.ndarray:
    """Predicted class for each coordinate, extracted and run in batches
    small enough for every layer's arrays to stay in cache. Each layer's
    operand is prepared once per call and read by every batch."""
    p = model.config.patch_size
    coords = _pixel_coords(coords)
    batch = _batch_size(model)
    prepared = model.prepare()
    out = np.empty(len(coords), dtype=np.uint8)
    for start in range(0, len(coords), batch):
        patches = extract_patches(cube, coords[start:start + batch], p)
        logits, _ = model.forward(patches, keep=False, prepared=prepared)
        out[start:start + batch] = np.argmax(logits, axis=1)
    return out


def _write_json(payload: dict, path) -> None:
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n")


def _out_dir(args) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _report(out: Path, pred: np.ndarray, labels: LabelMap, coords: np.ndarray) -> None:
    """Write and print OA and kappa of ``pred`` against the labels at ``coords``."""
    metrics = report(tally(pred, labels.labels[coords[:, 0], coords[:, 1]]))
    _write_json(metrics, out / "metrics.json")
    print(f"test oa={metrics['oa']:.4f} kappa={metrics['kappa']:.4f} "
          f"({metrics['evaluated_pixels']} pixels)")


def cmd_synth(args) -> int:
    out = _out_dir(args)
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
    cube, labels = _load_scene(args)
    config = _model_config(args, cube.bands)
    tc = TrainConfig(epochs=args.epochs, batch_size=args.batch_size,
                     base_lr=args.lr, decay_factor=args.decay_factor,
                     decay_every=args.decay_every, seed=args.seed)
    split = stratified_split(labels, args.train_fraction, args.seed)
    train_ps = patch_set(cube, labels, split.train_indices, config.patch_size)
    model = build_model(config, seed=args.seed)
    model, history = train(model, train_ps, tc)
    pred = predict_at(model, cube, split.test_indices)

    out = _out_dir(args)
    save_checkpoint(model, out / "model.ckpt")
    history.to_csv(out / "history.csv")
    _report(out, pred, labels, split.test_indices)
    return 0


def cmd_eval(args) -> int:
    model = load_checkpoint(args.checkpoint)
    cube, labels = _load_scene(args, bands=model.config.bands)
    known = labels.known_coords()
    # Metrics are reported on the held-out split, so evaluating right after
    # training reproduces its report; a bad split fails before prediction.
    test = stratified_split(labels, args.train_fraction, args.seed).test_indices
    change_map = np.full(labels.labels.shape, 128, dtype=np.uint8)
    change_map[known[:, 0], known[:, 1]] = predict_at(model, cube, known) * 255

    out = _out_dir(args)
    save_pgm(change_map, out / "change_map.pgm")
    _report(out, change_map[test[:, 0], test[:, 1]] == 255, labels, test)
    return 0


def cmd_count(args) -> int:
    if args.bands is None:
        raise ContractError("--bands is required for accounting")
    config = _model_config(args, args.bands)
    model = _outline(config)
    per_layer = [{
        "stack": stack_name, "index": i, "kind": layer.kind,
        "d_in": layer.d_in, "d_out": layer.d_out,
        "params": sum(p.size for p in layer.params()),
        "flops": layer.flop_count(),
    } for stack_name, stack, _ in model.stacks() for i, layer in enumerate(stack)]
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
                         spatial_nodes=[p * p, 4, 1], spectral_nodes=[b, 4, 2])
    model = build_model(config, seed=args.seed)
    rng = np.random.default_rng(args.seed)
    patches = rng.uniform(-0.9, 0.9, size=(8, p, p, b))
    labels = np.arange(8) % 2
    err = gradient_check(model, patches, labels)
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

    def command(name, func, text):
        cmd = sub.add_parser(name, help=text)
        cmd.set_defaults(func=func, command_parser=cmd)
        return cmd

    sy = command("synth", cmd_synth, "write a synthetic bi-temporal dataset")
    tr = command("train", cmd_train, "train a variant and evaluate the test split")
    ev = command("eval", cmd_eval, "evaluate a checkpoint and render the change map")
    ct = command("count", cmd_count, "report per-layer parameter/FLOP accounting")
    gc = command("gradcheck", cmd_gradcheck, "finite-difference check of a tiny model")

    def add(commands, *names, **kwargs):
        # One declaration for every command that takes the argument; the
        # calls run in --help order.
        for cmd in commands:
            cmd.add_argument(*names, **kwargs)

    add([sy], "--height", type=int, default=64)
    add([sy], "--width", type=int, default=64)
    add([sy], "--bands", type=int, default=30)
    add([sy], "--change-fraction", type=float, default=0.3)
    add([sy], "--noise-sigma", type=float, default=0.1)
    add([ev], "checkpoint")
    add([tr, ev], "t1", help="first-epoch cube header (.json)")
    add([tr, ev], "t2", help="second-epoch cube header (.json)")
    add([tr, ev], "labels", help="ground-truth PGM")
    add([tr, ev, ct, gc], "--config", help="JSON file with option defaults")
    add([tr, ct, gc], "--variant", choices=[v.value for v in Variant],
        default=ModelConfig.variant.value)
    add([ct], "--bands", type=int)
    add([gc], "--threshold", type=float, default=1e-4)
    add([tr, ct], "--patch-size", type=int, default=ModelConfig.patch_size)
    add([tr, ct], "--spatial-nodes")
    add([tr, ct], "--spectral-nodes")
    add([tr], "--epochs", type=int, default=TrainConfig.epochs)
    add([tr], "--batch-size", type=int, default=TrainConfig.batch_size)
    add([tr], "--lr", type=float, default=TrainConfig.base_lr)
    add([tr], "--decay-factor", type=float, default=TrainConfig.decay_factor)
    add([tr], "--decay-every", type=int, default=TrainConfig.decay_every)
    add([tr, ev], "--train-fraction", type=float, default=_TRAIN_FRACTION,
        help="share of each class trained on; eval rebuilds the same held-out split")
    add([sy, tr, ev, gc], "--seed", type=int, default=TrainConfig.seed)
    add([sy, tr, ev], "--out-dir", required=True)
    return parser


def main(argv=None) -> int:
    if _mallopt is not None:
        for param, value in _MALLOC_THRESHOLDS:
            _mallopt(param, value)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "config", None):
            # Flags still win: the file only replaces the defaults.
            args.command_parser.set_defaults(**_config_defaults(args))
            args = parser.parse_args(argv)
        if getattr(args, "seed", 0) < 0:
            raise ContractError(f"--seed must be non-negative, got {args.seed}")
        return args.func(args)
    except (ContractError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
    except (DataError, UndefinedMetricError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc.filename or ''}: {exc.strerror or exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
