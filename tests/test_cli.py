import argparse
import json
import os
import shutil
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from spectralkan import (HsiCube, LabelMap, Variant, build_model, difference,
                         extract_patches, load_checkpoint, load_cube,
                         load_labels, ModelConfig, normalize, save_checkpoint,
                         SplineGrid, synth_dataset)
from spectralkan import cli
from spectralkan import data as data_mod
from spectralkan import layers
from spectralkan.cli import _batch_size, build_parser, main, predict_at
from spectralkan.data import save_cube, save_labels
from spectralkan.errors import (ContractError, DataError, MalformedHeaderError,
                               TruncatedPayloadError)
from spectralkan.training import TrainConfig


SYNTH_ARGS = ["synth", "--height", "24", "--width", "24", "--bands", "8",
              "--change-fraction", "0.3", "--noise-sigma", "0.1",
              "--seed", "7"]
DATASET_FILES = ["t1.json", "t1.raw", "t2.json", "t2.raw", "labels.pgm",
                 "manifest.json"]


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("synthdata")
    assert main(SYNTH_ARGS + ["--out-dir", str(out)]) == 0
    return out


def train_args(dataset, out, extra=()):
    return ["train", str(dataset / "t1.json"), str(dataset / "t2.json"),
            str(dataset / "labels.pgm"), "--out-dir", str(out), *extra]


def eval_args(dataset, ckpt, out, extra=()):
    return ["eval", str(ckpt), str(dataset / "t1.json"),
            str(dataset / "t2.json"), str(dataset / "labels.pgm"),
            "--out-dir", str(out), *extra]


FAST_TRAIN = ["--epochs", "4", "--batch-size", "16", "--train-fraction",
              "0.05", "--seed", "3"]


class TestSynth:
    def test_writes_expected_files(self, dataset):
        for name in DATASET_FILES:
            assert (dataset / name).exists()

    def test_reruns_are_byte_identical(self, dataset, tmp_path):
        assert main(SYNTH_ARGS + ["--out-dir", str(tmp_path)]) == 0
        for name in DATASET_FILES:
            assert (tmp_path / name).read_bytes() == (dataset / name).read_bytes()

    def test_zero_change_fraction_gives_blank_labels(self, tmp_path):
        args = ["synth", "--height", "8", "--width", "8", "--bands", "3",
                "--change-fraction", "0", "--out-dir", str(tmp_path)]
        assert main(args) == 0
        assert np.all(load_labels(tmp_path / "labels.pgm").labels == 0)


class TestDefaults:
    def test_training_defaults_match_protocol(self):
        args = build_parser().parse_args(["train", "a", "b", "c",
                                          "--out-dir", "d"])
        assert args.epochs == 200
        assert args.batch_size == 64
        assert args.lr == 0.001
        assert args.decay_factor == 0.9
        assert args.decay_every == 10
        assert args.patch_size == 5
        assert args.train_fraction == 0.01
        assert args.variant == "spectral-kan"

    def test_parser_accepts_all_documented_flags(self):
        parser = build_parser()
        args = parser.parse_args([
            "train", "a", "b", "c", "--variant", "kan-ss", "--patch-size",
            "3", "--spatial-nodes", "9,4,1", "--spectral-nodes", "8,4,2",
            "--epochs", "5", "--batch-size", "8", "--lr", "0.01",
            "--decay-factor", "0.5", "--decay-every", "2",
            "--train-fraction", "0.1", "--seed", "9", "--out-dir", "d"])
        assert args.variant == "kan-ss"
        assert args.spatial_nodes == "9,4,1"

    # Arguments taken by several commands, with the commands that take them.
    SHARED = {
        "t1": {"train", "eval"}, "t2": {"train", "eval"},
        "labels": {"train", "eval"},
        "--config": {"train", "eval", "count", "gradcheck"},
        "--variant": {"train", "count", "gradcheck"},
        "--patch-size": {"train", "count"}, "--spatial-nodes": {"train", "count"},
        "--spectral-nodes": {"train", "count"},
        "--train-fraction": {"train", "eval"},
        "--seed": {"synth", "train", "eval", "gradcheck"},
        "--out-dir": {"synth", "train", "eval"},
        # synth's scene size (default 30) and count's required band count.
        "--bands": {"synth", "count"},
    }

    def test_shared_arguments_agree_across_commands(self):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        taken = {}
        for command, parser in sub.choices.items():
            for action in parser._actions:
                if action.dest != "help":
                    name = (action.option_strings or [action.dest])[0]
                    taken.setdefault(name, {})[command] = (
                        action.dest, action.type, action.default, action.choices,
                        action.required, action.help)
        shared = {name: by_command for name, by_command in taken.items()
                  if len(by_command) > 1}
        assert {name: set(by) for name, by in shared.items()} == self.SHARED
        for name, by_command in shared.items():
            first, *rest = by_command.values()
            if name != "--bands":
                assert all(fields == first for fields in rest), (name, by_command)
        assert taken["--seed"]["synth"][2] == TrainConfig.seed


class TestTrainEval:
    def test_train_writes_outputs(self, dataset, tmp_path):
        assert main(train_args(dataset, tmp_path, FAST_TRAIN)) == 0
        assert (tmp_path / "model.ckpt").exists()
        metrics = json.loads((tmp_path / "metrics.json").read_text())
        assert set(metrics) == {"oa", "kappa", "confusion", "evaluated_pixels"}
        lines = (tmp_path / "history.csv").read_text().splitlines()
        assert lines[0] == "epoch,lr,loss"
        assert len(lines) == 5

    def test_identical_seeds_are_byte_identical(self, dataset, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(train_args(dataset, a, FAST_TRAIN)) == 0
        assert main(train_args(dataset, b, FAST_TRAIN)) == 0
        for name in ("model.ckpt", "history.csv", "metrics.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_eval_reproduces_training_report(self, dataset, tmp_path):
        run = tmp_path / "run"
        ev = tmp_path / "ev"
        assert main(train_args(dataset, run, FAST_TRAIN)) == 0
        assert main(eval_args(dataset, run / "model.ckpt", ev,
                              ["--train-fraction", "0.05", "--seed", "3"])) == 0
        assert (ev / "metrics.json").read_bytes() == \
            (run / "metrics.json").read_bytes()
        change_map = (ev / "change_map.pgm").read_bytes()
        assert change_map.startswith(b"P5\n24 24\n255\n")
        body = np.frombuffer(change_map[-24 * 24:], dtype=np.uint8)
        assert set(np.unique(body)) <= {0, 255}

    def test_checkpoint_roundtrip_precision(self, dataset, tmp_path):
        run = tmp_path / "run"
        assert main(train_args(dataset, run, FAST_TRAIN)) == 0
        model = load_checkpoint(run / "model.ckpt")
        save_checkpoint(model, tmp_path / "again.ckpt")
        assert (tmp_path / "again.ckpt").read_bytes() == \
            (run / "model.ckpt").read_bytes()

    def test_zero_epochs_equals_initialization(self, dataset, tmp_path):
        extra = ["--epochs", "0", "--train-fraction", "0.05", "--seed", "5"]
        assert main(train_args(dataset, tmp_path, extra)) == 0
        trained = load_checkpoint(tmp_path / "model.ckpt")
        config = ModelConfig(variant=Variant.SPECTRAL_KAN, patch_size=5,
                             bands=8, spatial_nodes=[25, 16, 1],
                             spectral_nodes=[8, 16, 2], grid=SplineGrid())
        fresh = build_model(config, seed=5)
        for a, b in zip(trained.parameters(), fresh.parameters()):
            assert np.array_equal(a, b)

    def test_mlp_variant_runs_end_to_end(self, dataset, tmp_path):
        extra = FAST_TRAIN + ["--variant", "mlp"]
        assert main(train_args(dataset, tmp_path, extra)) == 0
        metrics = json.loads((tmp_path / "metrics.json").read_text())
        assert 0.0 <= metrics["oa"] <= 1.0
        model = load_checkpoint(tmp_path / "model.ckpt")
        assert model.config.variant == Variant.MLP
        assert model.spatial_stack == []

    def test_config_file_precedence(self, dataset, tmp_path):
        config = tmp_path / "conf.json"
        config.write_text(json.dumps({"epochs": 2, "seed": 3,
                                      "batch_size": 16,
                                      "train_fraction": 0.05}))
        out = tmp_path / "out"
        args = train_args(dataset, out, ["--config", str(config),
                                         "--epochs", "1"])
        assert main(args) == 0
        lines = (out / "history.csv").read_text().splitlines()
        assert len(lines) == 2  # flag epochs=1 beats config epochs=2

    def test_unknown_config_key_rejected(self, dataset, tmp_path):
        config = tmp_path / "conf.json"
        config.write_text(json.dumps({"learning": 1}))
        assert main(train_args(dataset, tmp_path,
                               ["--config", str(config)])) == 2

    @pytest.mark.parametrize("command,values", [
        ("train", {"lr": None}),
        ("train", {"variant": "bogus"}),
        ("gradcheck", {"threshold": "x"}),
        ("count", {"bands": "x"}),
        ("count", {"bands": 155, "spatial_nodes": [25.9, 16.7, 1]}),
        ("count", {"bands": 155, "spatial_nodes": [25, True, 1]}),
        ("count", {"bands": 155, "spatial_nodes": [25.0, 16, 1]}),
        ("count", {"bands": 155, "spectral_nodes": [155, 16, 2.0]}),
        ("count", {"bands": 155, "spectral_nodes": [155, True, 2]}),
    ])
    def test_config_value_must_convert_like_its_flag(self, dataset, tmp_path,
                                                     command, values):
        config = tmp_path / "conf.json"
        config.write_text(json.dumps(values))
        argv = {"train": train_args(dataset, tmp_path / "out"),
                "gradcheck": ["gradcheck"], "count": ["count"]}[command]
        assert main(argv + ["--config", str(config)]) == 2


class TestErrorPaths:
    def test_band_mismatch_is_config_error(self, dataset, tmp_path):
        run = tmp_path / "run"
        assert main(train_args(dataset, run, FAST_TRAIN)) == 0
        other = tmp_path / "other"
        assert main(["synth", "--height", "24", "--width", "24", "--bands",
                     "6", "--seed", "7", "--out-dir", str(other)]) == 0
        code = main(eval_args(other, run / "model.ckpt", tmp_path / "ev"))
        assert code == 2

    def test_band_mismatch_is_found_before_any_payload_is_read(
            self, dataset, tmp_path, monkeypatch, capsys):
        run = tmp_path / "run"
        assert main(train_args(dataset, run, FAST_TRAIN)) == 0
        other = tmp_path / "other"
        assert main(["synth", "--height", "24", "--width", "24", "--bands",
                     "6", "--seed", "7", "--out-dir", str(other)]) == 0
        monkeypatch.setattr(data_mod, "_read_payload",
                            lambda path, *args: pytest.fail(f"read {path}"))
        capsys.readouterr()
        assert main(eval_args(other, run / "model.ckpt", tmp_path / "ev")) == 2
        assert ("checkpoint expects 8 bands, dataset has 6"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_all_unknown_labels_is_data_error(self, dataset, tmp_path, monkeypatch,
                                              capsys, command):
        unknown = LabelMap(np.full((24, 24), 255, dtype=np.uint8))
        save_labels(unknown, tmp_path / "unknown.pgm")
        args = [command, str(dataset / "t1.json"), str(dataset / "t2.json"),
                str(tmp_path / "unknown.pgm"), "--out-dir", str(tmp_path / "ev")]
        if command == "eval":
            run = tmp_path / "run"
            assert main(train_args(dataset, run, FAST_TRAIN)) == 0
            args.insert(1, str(run / "model.ckpt"))
        # The label map is checked before either epoch is read.
        monkeypatch.setattr(cli, "load_cube", lambda path: pytest.fail(f"read {path}"))
        capsys.readouterr()
        assert main(args) == 3
        assert "every label is unknown" in capsys.readouterr().err

    def test_bad_split_fails_before_prediction(self, dataset, tmp_path, monkeypatch):
        run = tmp_path / "run"
        assert main(train_args(dataset, run, FAST_TRAIN)) == 0
        calls = []
        monkeypatch.setattr(cli, "predict_at", lambda *args: calls.append(args))
        code = main(eval_args(dataset, run / "model.ckpt", tmp_path / "ev",
                              ["--train-fraction", "1.5"]))
        assert code == 2 and calls == []

    @pytest.mark.parametrize("flag,field", [("--lr", "base_lr"),
                                            ("--decay-factor", "decay_factor")])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_rate_is_config_error(self, dataset, tmp_path, capsys,
                                             flag, field, value):
        code = main(train_args(dataset, tmp_path / "run", [flag, value]))
        assert code == 2
        assert field in capsys.readouterr().err

    # synth takes no --config.
    @pytest.mark.parametrize("command,through", [
        ("synth", "flag"), ("train", "flag"), ("eval", "flag"),
        ("gradcheck", "flag"), ("train", "config"), ("eval", "config"),
        ("gradcheck", "config")])
    def test_negative_seed_is_config_error(self, dataset, tmp_path, capsys,
                                           command, through):
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(build_model(ModelConfig(bands=8)), ckpt)
        argv = {"synth": ["synth", "--out-dir", str(tmp_path / "out")],
                "train": train_args(dataset, tmp_path / "out"),
                "eval": eval_args(dataset, ckpt, tmp_path / "out"),
                "gradcheck": ["gradcheck"]}[command]
        if through == "flag":
            argv += ["--seed", "-1"]
        else:
            config = tmp_path / "conf.json"
            config.write_text(json.dumps({"seed": -1}))
            argv += ["--config", str(config)]
        capsys.readouterr()
        assert main(argv) == 2
        assert "--seed must be non-negative, got -1" in capsys.readouterr().err

    def test_missing_file_is_data_error(self, tmp_path):
        args = ["train", str(tmp_path / "nope.json"), str(tmp_path / "x.json"),
                str(tmp_path / "l.pgm"), "--out-dir", str(tmp_path)]
        assert main(args) == 3

    def test_corrupt_cube_is_data_error(self, dataset, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        args = ["train", str(bad), str(dataset / "t2.json"),
                str(dataset / "labels.pgm"), "--out-dir", str(tmp_path)]
        assert main(args) == 3


    def test_nested_json_cube_header_is_data_error(self, dataset, tmp_path):
        bad = tmp_path / "nested.json"
        bad.write_text("[" * 100_000 + "]" * 100_000)
        args = ["train", str(bad), str(dataset / "t2.json"),
                str(dataset / "labels.pgm"), "--out-dir", str(tmp_path)]
        assert main(args) == 3

    def test_nested_json_checkpoint_header_is_data_error(self, dataset, tmp_path):
        text = b"[" * 100_000 + b"]" * 100_000
        ckpt = tmp_path / "nested.ckpt"
        ckpt.write_bytes(b"SKAN0001" + struct.pack("<Q", len(text)) + text)
        assert main(eval_args(dataset, ckpt, tmp_path / "ev")) == 3

    def test_label_map_of_another_size_is_config_error(self, dataset, tmp_path,
                                                       capsys):
        save_labels(LabelMap(np.zeros((20, 24), dtype=np.uint8)),
                    tmp_path / "small.pgm")
        args = ["train", str(dataset / "t1.json"), str(dataset / "t2.json"),
                str(tmp_path / "small.pgm"), "--out-dir", str(tmp_path / "run")]
        capsys.readouterr()
        assert main(args) == 2
        assert "label map 20x24 does not match cube 24x24" in capsys.readouterr().err

    def test_config_array_is_config_error(self, dataset, tmp_path, capsys):
        config = tmp_path / "list.json"
        config.write_text('[{"epochs": 1}]')
        capsys.readouterr()
        assert main(train_args(dataset, tmp_path / "run", ["--config", str(config)])) == 2
        assert "config must be a JSON object" in capsys.readouterr().err

    def test_cube_header_not_an_object_is_data_error(self, dataset, tmp_path, capsys):
        bad = tmp_path / "array.json"
        bad.write_text(json.dumps([json.loads((dataset / "t1.json").read_text())]))
        args = ["train", str(bad), str(dataset / "t2.json"),
                str(dataset / "labels.pgm"), "--out-dir", str(tmp_path)]
        capsys.readouterr()
        assert main(args) == 3
        assert "header is not an object" in capsys.readouterr().err

    def test_checkpoint_header_past_end_of_file_is_data_error(self, dataset, tmp_path,
                                                              capsys):
        ckpt = tmp_path / "short.ckpt"
        ckpt.write_bytes(b"SKAN0001" + struct.pack("<Q", 1000) + b"{}")
        with pytest.raises(TruncatedPayloadError, match="past end of file"):
            load_checkpoint(ckpt)
        capsys.readouterr()
        assert main(eval_args(dataset, ckpt, tmp_path / "ev")) == 3
        assert "header extends past end of file" in capsys.readouterr().err

    def test_nested_json_config_is_config_error(self, dataset, tmp_path):
        config = tmp_path / "nested.json"
        config.write_text("[" * 100_000 + "]" * 100_000)
        args = train_args(dataset, tmp_path / "run", ["--config", str(config)])
        assert main(args) == 2


def write_payload(header_path, values):
    """Replace a cube file's payload, non-finite values included."""
    raw = header_path.with_suffix(".raw")
    raw.write_bytes(np.asarray(values, dtype="<f4").tobytes())


def break_t2(scene, fault):
    """Give the scene's second epoch one fault."""
    t1, t2 = scene / "t1.json", scene / "t2.json"
    if fault == "malformed-header":
        t2.write_text("{broken")
    elif fault == "short-payload":
        raw = scene / "t2.raw"
        raw.write_bytes(raw.read_bytes()[:-4])
    elif fault == "nan":
        values = load_cube(t2).values
        values[20, 3, 5] = np.nan
        write_payload(t2, values)
    elif fault == "shape":
        save_cube(HsiCube(load_cube(t2).values[:, :, :6]), t2)
    elif fault == "wide-band":
        values = load_cube(t2).values
        values[0, 0, 5], values[1, 1, 5] = 2e38, -2e38
        write_payload(t2, values)
    elif fault == "overflow":
        v1, v2 = load_cube(t1).values, load_cube(t2).values
        v1[2, 9, 4], v2[2, 9, 4] = 3e38, -3e38
        write_payload(t1, v1)
        write_payload(t2, v2)


class TestSecondEpochFaults:
    """Each fault in t2 gives ``train`` and ``eval`` the exit code and
    message that loading and differencing both epochs in memory gives."""

    @pytest.fixture(scope="class")
    def checkpoint(self, dataset, tmp_path_factory):
        run = tmp_path_factory.mktemp("t2run")
        assert main(train_args(dataset, run, FAST_TRAIN)) == 0
        return run / "model.ckpt"

    @pytest.mark.parametrize("fault,code,message", [
        ("malformed-header", 3, "t2.json: invalid JSON"),
        ("short-payload", 3, "t2.raw: expected 18432 bytes, found 18428"),
        ("nan", 3, "t2.raw: payload contains non-finite values"),
        ("shape", 2, "cube shapes differ: (24, 24, 8) vs (24, 24, 6)"),
        ("overflow", 2, "error: cube values must be finite"),
        ("wide-band", 2, "error: band 5 spans ["),
    ])
    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_exit_code_and_message(self, dataset, checkpoint, tmp_path, capsys,
                                   command, fault, code, message):
        scene = tmp_path / "scene"
        shutil.copytree(dataset, scene)
        break_t2(scene, fault)
        out = tmp_path / "out"
        argv = (train_args(scene, out, FAST_TRAIN) if command == "train"
                else eval_args(scene, checkpoint, out))
        capsys.readouterr()
        assert main(argv) == code
        assert message in capsys.readouterr().err


def corrupt_checkpoint(path, how, value=None):
    """Rewrite one field of a saved checkpoint, keeping the rest intact."""
    blob = path.read_bytes()
    (hlen,) = struct.unpack_from("<Q", blob, 8)
    header, body = json.loads(blob[16:16 + hlen]), bytearray(blob[16 + hlen:])
    entry = next(e for e in header["tensors"].values() if e["offset"] == 0)
    second = sorted(header["tensors"].values(), key=lambda e: e["offset"])[1]
    if how == "nbytes-8-short":
        entry["nbytes"] -= 8
    elif how == "nbytes-3-short":
        entry["nbytes"] -= 3
    elif how == "string-offset":
        entry["offset"] = "0"
    elif how == "negative-offset":
        entry["offset"] = -8
    elif how == "list-header":
        header = [header]
    elif how == "nan-payload":
        body[:8] = struct.pack("<d", float("nan"))
    elif how == "first-offset-plus-8":
        entry["offset"] += 8
    elif how == "second-offset-is-first":
        second["offset"] = entry["offset"]
    elif how == "trailing-bytes":
        body += bytes(64)
    elif how == "dtype-f4le":
        header["dtype"] = "f4le"
    elif how == "fractional-degree":
        header["config"]["spline"]["degree"] = 3.7
    elif how == "unknown-key":
        header["comment"] = "unexpected"
    elif how == "huge-degree":
        header["config"]["spline"]["degree"] = value
    elif how == "wide-spectral":
        header["config"]["spectral_nodes"][1] = value
    elif how == "float-patch-size":
        header["config"]["patch_size"] = float(header["config"]["patch_size"])
    elif how == "float-degree":
        header["config"]["spline"]["degree"] = 3.0
    elif how == "float-spatial-node":
        header["config"]["spatial_nodes"][1] = 16.0
    elif how == "bool-spatial-node":
        header["config"]["spatial_nodes"][2] = True
    text = json.dumps(header).encode()
    path.write_bytes(blob[:8] + struct.pack("<Q", len(text)) + text + body)


class TestCorruptCheckpoint:
    @staticmethod
    def saved(tmp_path, variant=Variant.SPECTRAL_KAN):
        config = ModelConfig(variant=variant, patch_size=5,
                             bands=8, spatial_nodes=[25, 16, 1],
                             spectral_nodes=[8, 16, 2], grid=SplineGrid())
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(build_model(config, seed=1), ckpt)
        return ckpt

    @pytest.mark.parametrize("how", [
        "nbytes-8-short", "nbytes-3-short", "string-offset", "negative-offset",
        "list-header", "nan-payload", "first-offset-plus-8",
        "second-offset-is-first", "trailing-bytes", "dtype-f4le",
        "fractional-degree", "unknown-key",
    ])
    def test_rejected_as_data_error(self, dataset, tmp_path, how):
        ckpt = self.saved(tmp_path)
        corrupt_checkpoint(ckpt, how)
        with pytest.raises(DataError):
            load_checkpoint(ckpt)
        assert main(eval_args(dataset, ckpt, tmp_path / "ev")) == 3

    @pytest.mark.parametrize("variant", [Variant.MLP_SS, Variant.SPECTRAL_KAN])
    @pytest.mark.parametrize("how", ["float-patch-size", "float-degree",
                                     "float-spatial-node", "bool-spatial-node"])
    def test_non_integer_field_rejected(self, dataset, tmp_path, capsys, variant, how):
        # Each edit equals the saved value, so only the constructors' integer
        # checks tell it from the saved model.
        ckpt = self.saved(tmp_path, variant)
        corrupt_checkpoint(ckpt, how)
        with pytest.raises(MalformedHeaderError, match="must be an integer"):
            load_checkpoint(ckpt)
        capsys.readouterr()
        assert main(eval_args(dataset, ckpt, tmp_path / "ev")) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    @pytest.mark.parametrize("variant,how,value", [
        (Variant.MLP_SS, "huge-degree", 10 ** 5),
        (Variant.MLP_SS, "huge-degree", 10 ** 6),
        (Variant.MLP_SS, "huge-degree", 10 ** 7),
        (Variant.SPECTRAL_KAN, "wide-spectral", 200_000),
        (Variant.SPECTRAL_KAN, "wide-spectral", 10 ** 20),
    ])
    def test_oversized_config_rejected_before_allocating(
            self, dataset, tmp_path, variant, how, value):
        ckpt = self.saved(tmp_path, variant)
        corrupt_checkpoint(ckpt, how, value)
        tracemalloc.start()
        try:
            with pytest.raises(MalformedHeaderError):
                load_checkpoint(ckpt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert main(eval_args(dataset, ckpt, tmp_path / "ev")) == 3


def scene_args(data):
    return argparse.Namespace(t1=data / "t1.json", t2=data / "t2.json",
                              labels=data / "labels.pgm")


class TestLoadScene:
    @pytest.mark.parametrize("h,w,b,constant_band", [
        (70, 70, 155, None),  # three 1 MiB blocks, the last one partial
        (6, 5, 7, None),      # under one block
        (40, 40, 200, 3),     # two blocks, with a constant band
    ])
    def test_bytes_of_the_in_memory_pipeline(self, tmp_path, h, w, b, constant_band):
        x1, x2, labels = synth_dataset(h, w, b, seed=4)
        if constant_band is not None:
            x1.values[:, :, constant_band] = 1.5
            x2.values[:, :, constant_band] = 0.25
        save_cube(x1, tmp_path / "t1.json")
        save_cube(x2, tmp_path / "t2.json")
        save_labels(labels, tmp_path / "labels.pgm")
        args = scene_args(tmp_path)
        expected = normalize(difference(load_cube(args.t1), load_cube(args.t2)))
        cube, _ = cli._load_scene(args)
        assert cube.values.dtype == np.float32
        assert cube.values.tobytes() == expected.values.tobytes()


class TestSceneMemory:
    h, w, b = 128, 128, 96
    cube_bytes = h * w * b * 4

    @pytest.fixture(scope="class")
    def data(self, tmp_path_factory):
        data = tmp_path_factory.mktemp("memscene")
        assert main(["synth", "--height", str(self.h), "--width", str(self.w),
                     "--bands", str(self.b), "--out-dir", str(data)]) == 0
        return data

    @staticmethod
    def peak(call, *args):
        tracemalloc.start()
        try:
            result = call(*args)
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_load_scene_holds_one_cube_and_a_half(self, data):
        """The difference is built in the first epoch's array, with the
        second epoch streamed into it, and normalized in place."""
        _, peak = self.peak(cli._load_scene, scene_args(data))
        assert peak <= 1.5 * self.cube_bytes, peak / self.cube_bytes

    def test_train_and_eval_hold_at_most_four_cubes(self, data, tmp_path):
        """Neither command holds much more than the difference cube and
        its transient copies."""
        run = tmp_path / "run"
        for argv in (train_args(data, run, ["--variant", "mlp-ss", "--epochs", "2"]),
                     eval_args(data, run / "model.ckpt", tmp_path / "ev")):
            code, peak = self.peak(main, argv)
            assert code == 0
            assert peak <= 4 * self.cube_bytes, (argv[0], peak / self.cube_bytes)


def ablation_model(variant, bands, seed=0):
    config = ModelConfig(variant=variant, patch_size=5, bands=bands,
                         spatial_nodes=[25, 16, 1],
                         spectral_nodes=[bands, 16, 2], grid=SplineGrid())
    return build_model(config, seed=seed)


def scene(size, bands, seed=0):
    x1, x2, _ = synth_dataset(size, size, bands, seed=seed)
    return normalize(difference(x1, x2))


class TestPredictAt:
    @pytest.mark.parametrize("variant,bands,batch", [
        (Variant.MLP_SS, 155, 67), (Variant.MLP, 155, 67),
        (Variant.KAN, 155, 8), (Variant.KAN_ENC, 155, 8),
        (Variant.KAN_SS, 155, 8), (Variant.SPECTRAL_KAN, 155, 8),
        (Variant.SPECTRAL_KAN, 30, 43),
    ])
    def test_batch_holds_two_mib_in_the_widest_layer(self, variant, bands, batch):
        assert _batch_size(ablation_model(variant, bands)) == batch

    @pytest.mark.parametrize("variant", list(Variant))
    def test_batches_match_one_forward_over_all_patches(self, variant):
        cube = scene(20, 30, seed=1)
        model = ablation_model(variant, 30, seed=2)
        coords = np.argwhere(np.ones((20, 20), dtype=bool))
        batch = _batch_size(model)
        assert cube.values.dtype == np.float32
        assert len(coords) > batch and len(coords) % batch != 0
        pred = predict_at(model, cube, coords)
        logits, _ = model.forward(
            extract_patches(cube, coords, 5).astype(np.float64))
        assert pred.dtype == np.uint8
        assert np.array_equal(pred, np.argmax(logits, axis=1))

    @pytest.mark.parametrize("variant", list(Variant))
    def test_no_pixels_gives_no_labels(self, variant):
        pred = predict_at(ablation_model(variant, 30), scene(6, 30),
                          np.zeros((0, 2), dtype=np.int64))
        assert pred.shape == (0,) and pred.dtype == np.uint8

    @pytest.mark.parametrize("coords", [
        np.array([[1, 2, 3], [0, 1, 2]]), np.zeros((0, 3), dtype=np.int64),
        [[1.7, 2.2]],
    ], ids=["2x3", "empty-0x3", "fractional"])
    def test_rejects_malformed_coords(self, coords):
        with pytest.raises(ContractError, match="coordinates"):
            predict_at(ablation_model(Variant.SPECTRAL_KAN, 30), scene(6, 30), coords)

    @pytest.mark.parametrize("variant,operands", [
        (Variant.KAN, 2), (Variant.KAN_ENC, 2), (Variant.KAN_SS, 4),
        (Variant.SPECTRAL_KAN, 4),
    ])
    def test_each_operand_is_prepared_once_per_call(self, variant, operands,
                                                    monkeypatch):
        cube = scene(14, 30, seed=1)
        model = ablation_model(variant, 30, seed=2)
        coords = np.argwhere(np.ones((14, 14), dtype=bool))
        assert len(coords) > 3 * _batch_size(model)
        calls = []
        for owner, name in ((layers, "_pp_table"),
                            (layers.FullKanLayer, "prepare")):
            original = getattr(owner, name)

            def counted(*args, original=original):
                calls.append(args)
                return original(*args)

            monkeypatch.setattr(owner, name, counted)
        predict_at(model, cube, coords)
        assert len(calls) == operands

    @pytest.mark.parametrize("variant", list(Variant))
    def test_peak_memory_of_a_full_scene_stays_small(self, variant):
        cube = scene(40, 155, seed=3)
        model = ablation_model(variant, 155, seed=4)
        coords = np.argwhere(np.ones((40, 40), dtype=bool))
        tracemalloc.start()
        try:
            predict_at(model, cube, coords)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 << 20


class TestCount:
    def run_count(self, capsys, extra):
        assert main(["count", *extra]) == 0
        return json.loads(capsys.readouterr().out)

    def test_spectral_kan_accounting(self, capsys):
        payload = self.run_count(capsys, ["--variant", "spectral-kan",
                                          "--bands", "155"])
        assert payload["total_params"] == 7_552
        assert payload["total_flops"] == 786_584
        assert len(payload["per_layer"]) == 4
        assert payload["per_layer"][0]["params"] == 1_000
        assert payload["per_layer"][0]["flops"] == 3_300

    def test_flat_kan_accounting(self, capsys):
        payload = self.run_count(capsys, ["--variant", "kan", "--bands", "155"])
        assert payload["total_params"] == 620_320
        assert payload["spectral_nodes"] == [3875, 16, 2]

    def test_counts_a_model_too_large_for_memory(self, capsys, monkeypatch):
        # 24.8e9 parameters, 185 GiB as float64. No random draw may run:
        # one would ask for the 18.5 GiB first-layer coefficients.
        def no_rng(*args, **kwargs):
            raise AssertionError("count drew random numbers")

        monkeypatch.setattr(np.random, "default_rng", no_rng)
        tracemalloc.start()
        try:
            payload = self.run_count(capsys, ["--variant", "kan", "--patch-size",
                                              "1001", "--bands", "155"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert payload["total_params"] == 24_849_625_120
        assert payload["spectral_nodes"] == [1001 * 1001 * 155, 16, 2]
        assert peak < 4 << 20

    @pytest.mark.parametrize("variant", ["kan", "spectral-kan", "mlp"])
    def test_model_no_array_can_hold_is_config_error(self, capsys, variant):
        # A 10**20-node layer needs a tensor past np.intp's byte limit.
        capsys.readouterr()
        assert main(["count", "--variant", variant, "--bands", "155",
                     "--spectral-nodes", "155,100000000000000000000,2"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ") and "larger than any array holds" in err

    def test_dense_accounting_follows_layer_formula(self, capsys):
        payload = self.run_count(capsys, ["--variant", "mlp", "--bands", "155"])
        assert payload["total_params"] == 62_050

    def test_custom_nodes(self, capsys):
        payload = self.run_count(capsys, [
            "--variant", "spectral-kan", "--bands", "155",
            "--spatial-nodes", "25,1", "--spectral-nodes", "155,2"])
        assert payload["total_params"] == \
            (2 * 25 + 8 * 25) + (2 * 155 * 2 + 8 * 155)

    def test_empty_node_flags_select_the_defaults(self, capsys):
        default = self.run_count(capsys, ["--bands", "155"])
        empty = self.run_count(capsys, ["--bands", "155", "--spatial-nodes", "",
                                        "--spectral-nodes", ""])
        assert empty == default

    @pytest.mark.parametrize("flag,value", [
        ("--spatial-nodes", "25,,1"),
        ("--spectral-nodes", "155,16,2,"),
        ("config", [25, "", 1]),
    ])
    def test_empty_node_field_is_config_error(self, capsys, tmp_path, flag, value):
        argv = ["count", "--bands", "155"]
        if flag == "config":
            config = tmp_path / "conf.json"
            config.write_text(json.dumps({"spatial_nodes": value}))
            argv += ["--config", str(config)]
        else:
            argv += [flag, value]
        assert main(argv) == 2
        assert "comma-separated integers" in capsys.readouterr().err

    def test_config_node_lists_count_like_flags(self, capsys, tmp_path):
        config = tmp_path / "conf.json"
        config.write_text(json.dumps({"spatial_nodes": [25, 1],
                                      "spectral_nodes": ["155", 2]}))
        flags = ["--bands", "155", "--spatial-nodes", "25,1",
                 "--spectral-nodes", "155,2"]
        assert self.run_count(capsys, ["--bands", "155", "--config", str(config)]) \
            == self.run_count(capsys, flags)

    def test_count_is_seed_independent(self, capsys):
        a = self.run_count(capsys, ["--variant", "kan-ss", "--bands", "155"])
        b = self.run_count(capsys, ["--variant", "kan-ss", "--bands", "155"])
        assert a == b

    def test_missing_bands_is_config_error(self):
        assert main(["count", "--variant", "kan"]) == 2


def test_python_dash_m_runs_the_cli_from_the_source_tree():
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-m", "spectralkan", "count",
                           "--variant", "mlp", "--bands", "3"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["variant"] == "mlp"


class TestOutOfMemory:
    @pytest.mark.parametrize("command", ["train"])
    def test_exits_2_with_one_error_line(self, dataset, tmp_path, monkeypatch,
                                         capsys, command):
        def build_model(config, seed):
            raise MemoryError("Unable to allocate 18.5 GiB for an array")

        monkeypatch.setattr(cli, "build_model", build_model)
        assert main(train_args(dataset, tmp_path / "run", FAST_TRAIN)) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [
            "error: out of memory: Unable to allocate 18.5 GiB for an array"]


class TestMallocThresholds:
    def test_main_fixes_mmap_and_trim_thresholds(self, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(cli, "_mallopt", lambda *args: calls.append(args))
        assert main(["count", "--bands", "8"]) == 0
        assert calls == [(-3, 32 << 20), (-1, 64 << 20)]

    def test_main_runs_without_mallopt(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "_mallopt", None)
        assert main(["count", "--bands", "8"]) == 0


class TestGradcheck:
    @pytest.mark.parametrize("variant", ["spectral-kan", "kan"])
    def test_passes_for_variants(self, variant, capsys):
        assert main(["gradcheck", "--variant", variant]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_zero_threshold_always_fails(self, capsys):
        assert main(["gradcheck", "--variant", "mlp", "--threshold", "0"]) == 4
        assert "FAIL" in capsys.readouterr().out
